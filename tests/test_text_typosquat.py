"""Tests for typosquat detection and version-suffix stripping."""

from hypothesis import given, settings, strategies as st

from repro.text.editdist import name_similarity
from repro.text.typosquat import is_typosquat, strip_version_suffix

POPULAR = {"FarmVille", "CityVille", "Mafia Wars"}


class TestVersionSuffix:
    def test_paper_examples(self):
        assert strip_version_suffix("Profile Watchers v4.32") == (
            "Profile Watchers",
            True,
        )
        assert strip_version_suffix(
            "How long have you spent logged in? v8"
        ) == ("How long have you spent logged in?", True)

    def test_no_version(self):
        assert strip_version_suffix("FarmVille") == ("FarmVille", False)

    def test_embedded_v_is_not_a_version(self):
        assert strip_version_suffix("v8 engines") == ("v8 engines", False)

    def test_uppercase_marker(self):
        assert strip_version_suffix("Past Life V2") == ("Past Life", True)

    @given(st.text(alphabet="abc ", max_size=10), st.integers(1, 99))
    def test_roundtrip(self, base, major):
        name = f"{base.strip()} v{major}"
        stripped, had = strip_version_suffix(name)
        if base.strip():
            assert had
            assert stripped == base.strip()


class TestTyposquat:
    def test_paper_example(self):
        assert is_typosquat("FarmVile", POPULAR)

    def test_exact_match_is_not_a_typosquat(self):
        assert not is_typosquat("FarmVille", POPULAR)

    def test_unrelated_name(self):
        assert not is_typosquat("Free Phone Calls", POPULAR)

    def test_versioned_popular_name(self):
        assert is_typosquat("FarmVille v3", POPULAR)

    def test_transposition(self):
        assert is_typosquat("FarmVilel", POPULAR)

    def test_empty_popular_set(self):
        assert not is_typosquat("FarmVile", set())


def _naive_is_typosquat(name, popular_names, min_similarity):
    """The predicate spelled with the naive DP on every pair."""
    if name in popular_names:
        return False
    base, _ = strip_version_suffix(name)
    if base != name and base in popular_names:
        return True
    return any(
        name_similarity(name, popular) >= min_similarity
        for popular in popular_names
    )


# A small alphabet makes near-misses (and version suffixes) common.
_names = st.text(alphabet="FarmVilCty W v12.", max_size=12)


@settings(max_examples=400, deadline=None)
@given(
    _names,
    st.lists(_names, max_size=6),
    st.sampled_from([0.5, 0.7, 0.8, 0.85, 0.9, 1.0]) | st.floats(0.0, 1.0),
)
def test_typosquat_matches_naive_dp(name, popular, min_similarity):
    assert is_typosquat(name, popular, min_similarity) == _naive_is_typosquat(
        name, popular, min_similarity
    )
