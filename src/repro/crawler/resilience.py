"""Retry, backoff, and circuit breaking for the crawler (Sec 2.3 at scale).

The paper's crawler simply lost whatever a failed request would have
returned — which is why D-Inst is the smallest dataset.  A production
watchdog cannot afford that: this module gives the crawler

* a :class:`RetryPolicy` — exponential backoff with *full jitter* drawn
  from a seeded RNG, a per-request attempt budget, and a per-app
  deadline so one pathological app cannot stall the crawl,
* a :class:`CircuitBreaker` per endpoint class (summary / feed /
  install) that stops hammering an endpoint that is failing
  consistently and probes it again after a cooldown, and
* a :class:`CrawlOutcome` record per collection so downstream layers
  can distinguish *authoritative* missing data (app removed — itself a
  malice signal, Sec 4.1) from *transient* missing data (we gave up —
  no signal at all).

All sleeping is simulated: delays are added to the transport's
:class:`~repro.platform.transport.TransportStats` clock, which is also
the clock the breakers schedule cooldowns against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.observer import get_observer
from repro.platform.graph_api import GraphApiError
from repro.platform.install import AppRemovedError
from repro.platform.transport import (
    RateLimitError,
    TransientGraphApiError,
    TransportStats,
)
from repro.rng import derive_seed

__all__ = [
    "OK",
    "GAVE_UP",
    "PERMANENT",
    "SKIPPED",
    "RetryPolicy",
    "CircuitBreaker",
    "CrawlOutcome",
    "ResilientExecutor",
]

#: collection succeeded (possibly after retries)
OK = "ok"
#: transient failures exhausted the retry budget / deadline — no verdict
GAVE_UP = "gave_up"
#: the platform answered authoritatively: the app is removed
PERMANENT = "permanent"
#: the crawler never attempted the collection (human-only install flow)
SKIPPED = "skipped"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule and budgets for transient-fault retries."""

    #: attempts per request, first try included
    max_attempts: int = 4
    base_delay_s: float = 2.0
    max_delay_s: float = 60.0
    #: simulated-time budget for all of one app's collections
    per_app_deadline_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Full-jitter exponential backoff for a (0-based) failed attempt."""
        cap = min(self.max_delay_s, self.base_delay_s * (2.0**attempt))
        return float(rng.uniform(0.0, cap))

    def delay_for(
        self, error: TransientGraphApiError, attempt: int, rng: np.random.Generator
    ) -> float:
        """The wait before retrying *error* — honours rate-limit hints."""
        delay = self.backoff(attempt, rng)
        if isinstance(error, RateLimitError):
            delay = max(delay, error.retry_after)
        return delay

    @staticmethod
    def mandatory_delay(error: TransientGraphApiError) -> float:
        """The wait *error* imposes regardless of jitter (rate-limit hints).

        When this floor alone exceeds the remaining deadline budget the
        retry is hopeless: no jitter draw can shrink it, so the caller
        must give up immediately instead of sleeping toward a deadline
        it is already guaranteed to miss.
        """
        if isinstance(error, RateLimitError):
            return error.retry_after
        return 0.0


class CircuitBreaker:
    """Per-endpoint closed / open / half-open breaker on simulated time.

    ``failure_threshold`` *consecutive* transient failures open the
    breaker; while open, callers wait out the remaining ``cooldown_s``
    and then get exactly one half-open probe.  A successful probe (or
    any authoritative answer) closes the breaker; a failed probe
    re-opens it.

    Half-open admits *exactly one* probe: the caller whose ``allow``
    performed the open → half-open transition owns it, and every other
    caller is rejected until the probe resolves via ``record_success``
    or ``record_failure``.  Without this, a burst of concurrent service
    requests arriving at cooldown expiry would all hammer the
    still-suspect endpoint at once.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self, failure_threshold: int = 5, cooldown_s: float = 180.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    def cooldown_remaining(self, now_s: float) -> float:
        """Simulated seconds until a half-open probe is allowed (0 if now)."""
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.cooldown_s - now_s)

    def allow(self, now_s: float) -> bool:
        """May a request go out at *now_s*?  Transitions open → half-open.

        In half-open, only the caller that performed the transition is
        admitted; concurrent callers get ``False`` (the breaker-open
        outcome) until the probe resolves.
        """
        if self.state == self.OPEN:
            if now_s < self._opened_at + self.cooldown_s:
                return False
            self.state = self.HALF_OPEN
            self._probe_in_flight = True
            return True
        if self.state == self.HALF_OPEN:
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._probe_in_flight = False

    def record_failure(self, now_s: float) -> None:
        self._consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self._opened_at = now_s
            self._consecutive_failures = 0
        self._probe_in_flight = False

    def rebase(self, delta_s: float) -> None:
        """Shift the open timestamp *delta_s* seconds into the past.

        Breaker timestamps live in the executor's *app frame* (time
        since the current app's crawl started); when a new frame begins,
        a breaker still open from the previous frame keeps its cooldown
        schedule by moving its open instant back by the closed frame's
        extent.  Closed breakers carry no live timestamp and keep their
        stale value untouched (it is checkpoint-visible).
        """
        if self.state != self.CLOSED:
            self._opened_at -= delta_s

    # -- checkpoint support -----------------------------------------------

    def snapshot(self) -> dict:
        """The breaker's dynamic state (for crawl checkpoints)."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "opened_at": self._opened_at,
            "probe_in_flight": self._probe_in_flight,
        }

    def restore(self, data: dict) -> None:
        """Restore dynamic state captured by :meth:`snapshot`, in place."""
        self.state = data["state"]
        self._consecutive_failures = int(data["consecutive_failures"])
        self._opened_at = float(data["opened_at"])
        self._probe_in_flight = bool(data.get("probe_in_flight", False))


@dataclass
class CrawlOutcome:
    """How one collection (summary / feed / install) of one app went."""

    collection: str
    status: str = SKIPPED  # OK | GAVE_UP | PERMANENT | SKIPPED
    attempts: int = 0
    #: transient fault kinds encountered, in order
    faults: list[str] = field(default_factory=list)
    #: simulated seconds spent on this collection (service + waiting)
    elapsed_s: float = 0.0

    @property
    def recovered(self) -> bool:
        """Did retries turn transient faults into a definitive result?

        Both OK and PERMANENT count: an authoritative "app removed"
        reached through retries is a successful recovery — the fault
        cost latency, not the verdict.  Only GAVE_UP is a loss.
        """
        return self.status in (OK, PERMANENT) and bool(self.faults)

    @property
    def transiently_failed(self) -> bool:
        """Did the collection see at least one transient fault?"""
        return bool(self.faults)


class ResilientExecutor:
    """Runs transport calls under a retry policy and per-endpoint breakers.

    Jitter is drawn from a stateless per-``(endpoint, app)`` RNG derived
    from the seed, so retry schedules — like fault draws — are
    reproducible regardless of crawl order.

    All clock arithmetic (deadlines, backoff accounting, breaker
    timestamps, outcome timing) runs in the transport's *app frame* —
    the time elapsed since :meth:`begin_app` — which every app's crawl
    integrates from exactly 0.0.  Keeping the arithmetic off the global
    clock makes an app's crawl bit-reproducible wherever it runs: the
    batch-parallel scheduler crawls apps in sandboxes and commits them
    in canonical order relying on exactly this invariance (float
    addition is not associative, so arithmetic based on the global
    clock would drift in the last ulp with the clock's base).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        stats: TransportStats,
        seed: int = 2012,
        breakers: dict[str, CircuitBreaker] | None = None,
    ) -> None:
        self.policy = policy
        self.stats = stats
        self._seed = seed
        self.breakers = breakers if breakers is not None else {}

    def breaker(self, endpoint: str) -> CircuitBreaker:
        if endpoint not in self.breakers:
            self.breakers[endpoint] = CircuitBreaker()
        return self.breakers[endpoint]

    def begin_app(self) -> None:
        """Open a new app frame and rebase live breaker timestamps.

        Called at the start of every app's crawl; the closed frame's
        extent is subtracted from open breakers' timestamps so their
        cooldown schedules stay anchored to the global timeline.
        """
        delta = self.stats.begin_app()
        if delta:
            for breaker in self.breakers.values():
                breaker.rebase(delta)

    # -- checkpoint support -----------------------------------------------
    #
    # Breakers carry *cross-app* state (consecutive failures on one app
    # open the breaker for the next), so kill-anywhere resume must put
    # them back exactly where the interrupted run left them.

    def snapshot_breakers(self) -> dict[str, dict]:
        """Per-endpoint breaker states, JSON-serialisable."""
        return {
            endpoint: breaker.snapshot()
            for endpoint, breaker in sorted(self.breakers.items())
        }

    def restore_breakers(self, data: dict[str, dict]) -> None:
        """Restore breaker states captured by :meth:`snapshot_breakers`."""
        for endpoint, state in data.items():
            self.breaker(endpoint).restore(state)

    def call(
        self,
        endpoint: str,
        app_id: str,
        fn,
        outcome: CrawlOutcome,
        deadline_at: float | None = None,
        args: tuple = (),
    ):
        """Run ``fn(*args)`` with retries; returns the result or ``None``.

        Updates *outcome* in place: attempts and faults accumulate (one
        outcome may span several requests, e.g. the weekly summary
        queries), and ``status`` is set to the worst applicable verdict
        so far — OK sticks once any request succeeded, GAVE_UP records
        an exhausted budget, PERMANENT an authoritative removal.

        This is the crawler's per-request hot path, so it does only the
        work a request needs: while the breaker is closed its cooldown
        and admission checks are skipped (both are exact no-ops there),
        and the jitter RNG and its key are built only when a retry
        actually draws jitter.
        """
        breaker = self.breakers.get(endpoint)
        if breaker is None:
            breaker = self.breaker(endpoint)
        stats = self.stats
        policy = self.policy
        obs = get_observer()
        traced = obs.enabled
        # the jitter key names the attempt count this call started at
        first_attempt = outcome.attempts
        rng: np.random.Generator | None = None
        started = stats.app_elapsed_s
        try:
            for attempt in range(policy.max_attempts):
                if breaker.state != CircuitBreaker.CLOSED:
                    wait = breaker.cooldown_remaining(stats.app_elapsed_s)
                    if wait > 0.0:
                        if self._past_deadline(deadline_at, wait):
                            self._mark(outcome, GAVE_UP)
                            return None
                        stats.add_wait(wait)
                        if traced:
                            obs.event(
                                "breaker.cooldown_wait",
                                t=stats.app_elapsed_s,
                                endpoint=endpoint,
                                app_id=app_id,
                                wait_s=wait,
                            )
                            obs.observe("breaker_cooldown_wait_seconds", wait)
                    before = breaker.state
                    allowed = breaker.allow(stats.app_elapsed_s)
                    if traced:
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    if not allowed:
                        self._mark(outcome, GAVE_UP)
                        return None
                outcome.attempts += 1
                if traced:
                    obs.event(
                        "retry.attempt",
                        t=stats.app_elapsed_s,
                        endpoint=endpoint,
                        app_id=app_id,
                        attempt=attempt,
                    )
                    obs.count("retry_attempts_total", endpoint=endpoint)
                try:
                    result = fn(*args)
                except TransientGraphApiError as error:
                    outcome.faults.append(error.kind)
                    before = breaker.state
                    breaker.record_failure(stats.app_elapsed_s)
                    if traced:
                        obs.event(
                            "retry.fault",
                            t=stats.app_elapsed_s,
                            endpoint=endpoint,
                            app_id=app_id,
                            kind=error.kind,
                            attempt=attempt,
                        )
                        obs.count("retry_faults_total", kind=error.kind)
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    if attempt + 1 >= policy.max_attempts:
                        self._mark(outcome, GAVE_UP)
                        return None
                    # A rate-limit hint that already overruns the
                    # deadline makes the retry hopeless before any
                    # jitter is drawn: give up now, sleep nothing.
                    if self._past_deadline(
                        deadline_at, policy.mandatory_delay(error)
                    ):
                        self._mark(outcome, GAVE_UP)
                        return None
                    if rng is None:  # jitter RNG, derived only when needed
                        rng_key = f"retry:{endpoint}:{app_id}:{first_attempt}"
                        rng = np.random.default_rng(derive_seed(self._seed, rng_key))
                    delay = policy.delay_for(error, attempt, rng)
                    if self._past_deadline(deadline_at, delay):
                        self._mark(outcome, GAVE_UP)
                        return None
                    stats.add_wait(delay)
                    if traced:
                        obs.event(
                            "retry.backoff",
                            t=stats.app_elapsed_s,
                            endpoint=endpoint,
                            app_id=app_id,
                            delay_s=delay,
                        )
                        obs.observe("retry_backoff_seconds", delay)
                except (AppRemovedError, GraphApiError):
                    # Authoritative: the app is gone.  The endpoint is
                    # healthy (it answered), so the breaker resets.
                    before = breaker.state
                    breaker.record_success()
                    if traced:
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    self._mark(outcome, PERMANENT)
                    return None
                else:
                    before = breaker.state
                    breaker.record_success()
                    if traced:
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    outcome.status = OK
                    return result
            self._mark(outcome, GAVE_UP)
            return None
        finally:
            outcome.elapsed_s += stats.app_elapsed_s - started

    def _note_transition(
        self,
        obs,
        endpoint: str,
        app_id: str,
        before: str,
        breaker: CircuitBreaker,
    ) -> None:
        """Emit a ``breaker.transition`` event if the state just changed."""
        if breaker.state == before:
            return
        obs.event(
            "breaker.transition",
            t=self.stats.app_elapsed_s,
            endpoint=endpoint,
            app_id=app_id,
            from_state=before,
            to_state=breaker.state,
        )
        obs.count(
            "breaker_transitions_total",
            endpoint=endpoint,
            to_state=breaker.state,
        )

    def _past_deadline(self, deadline_at: float | None, wait: float) -> bool:
        return (
            deadline_at is not None
            and self.stats.app_elapsed_s + wait > deadline_at
        )

    @staticmethod
    def _mark(outcome: CrawlOutcome, status: str) -> None:
        """Record a terminal status without losing information.

        OK sticks (some request of the collection succeeded), and an
        authoritative PERMANENT answer sticks over a later GAVE_UP —
        once the platform has said "removed", the missing data is
        informative no matter how later requests fare.
        """
        if outcome.status == OK:
            return
        if outcome.status == PERMANENT and status == GAVE_UP:
            return
        outcome.status = status
