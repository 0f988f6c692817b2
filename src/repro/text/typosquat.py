"""Typosquat detection and version-suffix handling (Sec 4.2.1 / 5.3).

Hackers "typo-squat" popular app names ('FarmVile' for 'FarmVille') and
append version numbers to otherwise-identical names ('Profile Watchers
v4.32').  Both signals feed FRAppE's validation stage.
"""

from __future__ import annotations

import re

# The naive DP is the oracle is_typosquat must agree with; it stays
# importable here, where perfbench counts calls to it.
from repro.text.editdist import name_similarity  # noqa: F401
from repro.text.fastdist import char_signature, similar

__all__ = ["strip_version_suffix", "is_typosquat"]

#: 'Name v4.32', 'Name v8', 'Name V2' — a trailing version marker.
_VERSION_RE = re.compile(r"\s+v\d+(?:\.\d+)*\s*$", re.IGNORECASE)


def strip_version_suffix(name: str) -> tuple[str, bool]:
    """Remove a trailing version marker from an app name.

    Returns ``(base_name, had_version)``.

    >>> strip_version_suffix("Profile Watchers v4.32")
    ('Profile Watchers', True)
    >>> strip_version_suffix("FarmVille")
    ('FarmVille', False)
    """
    stripped = _VERSION_RE.sub("", name)
    return stripped, stripped != name


def is_typosquat(
    name: str,
    popular_names: list[str] | set[str],
    min_similarity: float = 0.85,
) -> bool:
    """Is *name* a near-miss of a popular app name, without matching it?

    A typosquat is highly similar to — but not identical to — some
    popular name.  Identical names are *not* typosquats (they are exact
    impersonation, which the paper treats separately).

    Decided by :func:`repro.text.fastdist.similar`, which answers
    exactly ``name_similarity(name, popular) >= min_similarity`` (the
    naive DP, kept as the oracle) but mostly from O(1) bounds.
    """
    if name in popular_names:
        return False
    base, _ = strip_version_suffix(name)
    if base != name and base in popular_names:
        return True
    sig = char_signature(name)
    return any(
        similar(name, popular, min_similarity, sig_a=sig)
        for popular in popular_names
    )
