"""A small URL model.

The simulation passes URLs around as plain strings (as Facebook post
metadata does); this module centralises parsing so every subsystem
agrees on what the host, path, and query parameters of a URL are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlencode, urlsplit

__all__ = ["Url", "domain_of", "registered_domain", "is_facebook_url"]

FACEBOOK_DOMAIN = "facebook.com"


@dataclass(frozen=True)
class Url:
    """A parsed URL.

    >>> u = Url.parse("https://www.facebook.com/apps/application.php?id=42")
    >>> u.host, u.path, u.params["id"]
    ('www.facebook.com', '/apps/application.php', '42')
    """

    scheme: str
    host: str
    path: str = ""
    params: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, raw: str) -> "Url":
        parts = urlsplit(raw)
        if not parts.scheme or not parts.netloc:
            raise ValueError(f"not an absolute URL: {raw!r}")
        return cls(
            scheme=parts.scheme,
            host=parts.netloc.lower(),
            path=parts.path,
            params=dict(parse_qsl(parts.query)),
        )

    def __str__(self) -> str:
        query = f"?{urlencode(self.params)}" if self.params else ""
        return f"{self.scheme}://{self.host}{self.path}{query}"

    @property
    def domain(self) -> str:
        """The registered domain, e.g. ``facebook.com`` for ``www.facebook.com``."""
        return registered_domain(self.host)

    def with_params(self, **params: str) -> "Url":
        merged = dict(self.params)
        merged.update(params)
        return Url(self.scheme, self.host, self.path, merged)


def registered_domain(host: str) -> str:
    """Collapse a hostname to its registered domain.

    The simulation only mints two-label domains (plus subdomains), so
    the last two labels suffice; real public-suffix handling is out of
    scope.
    """
    labels = host.lower().rstrip(".").split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    return ".".join(labels[-2:])


#: An ``http(s)://host`` prefix that ``urlsplit`` needs no rule for: a
#: lowercase scheme, then a host of plain ASCII characters (no user,
#: port, brackets, whitespace or control characters) that ends the
#: string or is followed by a path, query or fragment.
_PLAIN_HOST = re.compile(r"https?://([A-Za-z0-9.-]+)(?=[/?#]|\Z)")


def domain_of(raw: str) -> str:
    """Registered domain of a raw URL string (empty string if unparsable).

    Equals ``Url.parse(raw).domain`` (``""`` where that raises), but
    splits off only the host: no query parsing, no :class:`Url`, and no
    ``urlsplit`` at all for a plain ``http(s)://host`` URL.
    """
    plain = _PLAIN_HOST.match(raw) if isinstance(raw, str) else None
    if plain is not None:
        return registered_domain(plain.group(1))
    try:
        parts = urlsplit(raw)
    except ValueError:
        return ""
    if not parts.scheme or not parts.netloc:
        return ""
    return registered_domain(parts.netloc)


def is_facebook_url(raw: str) -> bool:
    """Does this URL point inside ``facebook.com`` (Sec 4.2.2)?"""
    return domain_of(raw) == FACEBOOK_DOMAIN
