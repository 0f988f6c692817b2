"""The Open Graph API surface the paper's crawler consumes (Sec 2.3).

Three endpoints matter for FRAppE:

* ``graph.facebook.com/<app_id>`` — the app summary; returns ``false``
  for apps deleted from the graph (how Sec 5.3 validates takedowns),
* ``graph.facebook.com/<app_id>/feed`` — the app's profile feed,
* ``facebook.com/connect/prompt_feed.php?api_key=<app_id>`` — the
  lax-authentication posting endpoint that enables app piggybacking:
  Facebook does not verify that the caller *is* the named app (Sec 6.2).
"""

from __future__ import annotations

from typing import Any

from repro.platform.apps import AppRegistry
from repro.platform.posts import Post, PostLog

__all__ = ["GraphApi", "GraphApiError"]


class GraphApiError(LookupError):
    """Raised when a Graph API query returns ``false`` (app removed).

    This is a *permanent* failure: the platform answered authoritatively
    that the app no longer exists, and retrying cannot change the
    answer.  Transient failures (rate limits, 5xx, timeouts) are raised
    as :class:`~repro.platform.transport.TransientGraphApiError`
    subclasses — callers deciding whether to retry must check for those
    *before* catching this base class.
    """


class GraphApi:
    """Facade over the registry/post log mimicking the 2012 Graph API."""

    def __init__(self, registry: AppRegistry, post_log: PostLog) -> None:
        self._registry = registry
        self._post_log = post_log

    # -- https://graph.facebook.com/<app_id> -----------------------------

    def exists(self, app_id: str, day: int | None = None) -> bool:
        """Does the graph still contain this app (as of *day*)?"""
        app = self._registry.maybe_get(app_id)
        return app is not None and not app.is_deleted(day)

    #: first day of the crawl window — MAU series are indexed from here
    CRAWL_EPOCH_DAY = 270

    def summary(self, app_id: str, day: int | None = None) -> dict[str, Any]:
        """The app summary, or :class:`GraphApiError` if removed.

        ``monthly_active_users`` reflects the crawl month *day* falls in
        (the paper crawled weekly over March–May and derived per-month
        MAU medians/maxima, Fig 4).
        """
        app = self._registry.maybe_get(app_id)  # exists() inlined: one lookup per request
        if app is None or app.is_deleted(day):
            raise GraphApiError(app_id)
        if app.mau_series:
            if day is None:
                month = len(app.mau_series) - 1
            else:
                month = (day - self.CRAWL_EPOCH_DAY) // 30
                month = max(0, min(month, len(app.mau_series) - 1))
            mau = app.mau_series[month]
        else:
            mau = 0
        return {
            "id": app.app_id,
            "name": app.name,
            "description": app.description,
            "company": app.company,
            "category": app.category,
            "link": app.canvas_url,
            "monthly_active_users": mau,
        }

    # -- https://graph.facebook.com/<app_id>/feed -------------------------

    def profile_feed(self, app_id: str, day: int | None = None) -> list[dict[str, Any]]:
        """Posts on the app's profile page (message, link, created time)."""
        app = self._registry.maybe_get(app_id)  # exists() inlined: one lookup per request
        if app is None or app.is_deleted(day):
            raise GraphApiError(app_id)
        return [
            {
                "message": post.message,
                "link": post.link,
                "created_time": post.day,
                "from": post.user_id,
            }
            for post in app.profile_feed
            if day is None or post.day <= day
        ]

    # -- connect/prompt_feed.php?api_key=<app_id> --------------------------
    #
    # The vulnerable endpoint: the application field of the resulting
    # post is taken from the request with no authentication of the
    # caller.  The *deleted* check is also skipped for popular apps —
    # the piggybacked apps are alive anyway.

    def prompt_feed(
        self,
        api_key: str,
        user_id: int,
        message: str,
        link: str | None,
        day: int,
        *,
        truth_malicious: bool = False,
        truth_piggybacked: bool = False,
        likes: int = 0,
        comments: int = 0,
    ) -> Post:
        """Publish a post whose application field is *api_key*.

        No caller authentication — any party that lures a user into the
        share dialog can attribute a post to any app ID.  The ``truth_*``
        keywords record the simulation's hidden labels.
        """
        if api_key not in self._registry:
            raise GraphApiError(api_key)
        return self._post_log.new_post(
            day=day,
            user_id=user_id,
            app_id=api_key,
            app_name=self._registry.get(api_key).name,
            message=message,
            link=link,
            likes=likes,
            comments=comments,
            truth_malicious=truth_malicious,
            truth_piggybacked=truth_piggybacked,
        )
