"""The MyPageKeeper scan's fast paths equal their references bit for bit.

``url_feature_matrix`` builds the scan's URL-feature rows in one
columnar pass; ``url_features`` is the per-URL reference it must
reproduce exactly (the SVM sees the same floats, so flags cannot move).
``domain_of`` splits off only the host; ``Url.parse(raw).domain`` (or
``""`` where that raises) is its reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mypagekeeper.classifier import url_feature_matrix, url_features
from repro.platform.posts import Post
from repro.urlinfra.url import Url, domain_of

_MESSAGES = st.one_of(
    st.sampled_from(
        [
            "",
            " ",
            "\t\n  ",
            "FREE free WOW omg credits gift prize",
            "WOW I just got 5000 Facebook Credits for Free",
            "Get your FREE 300 FACEBOOK CREDITS",
            "I just reached level 23 in Happy Farm!",
            "Sent you a little present in Zoo World",
            "hurry hurry deal of the day, exclusive offer",
            "Had a great day at the beach with the family",
        ]
    ),
    st.text(alphabet="free wow deal ipad xyz12'!", max_size=40),
    st.text(max_size=30),
)

_POST = st.builds(
    lambda message, likes, comments: Post(
        0, 0, 0, "app", message=message, likes=likes, comments=comments
    ),
    _MESSAGES,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def _reference_matrix(groups: list[list[Post]]) -> np.ndarray:
    return np.vstack([url_features(group).as_array() for group in groups])


def _assert_bit_identical(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_POST, min_size=1, max_size=40), min_size=1, max_size=8)
)
def test_feature_matrix_matches_per_url_reference(groups):
    # sizes 1-40 cross numpy's 8-element pairwise-summation boundary
    _assert_bit_identical(url_feature_matrix(groups), _reference_matrix(groups))


@given(st.integers(min_value=1, max_value=40), st.data())
def test_feature_matrix_matches_reference_at_every_group_size(size, data):
    groups = [data.draw(st.lists(_POST, min_size=size, max_size=size))]
    _assert_bit_identical(url_feature_matrix(groups), _reference_matrix(groups))


def test_feature_matrix_matches_reference_on_a_simulated_world(world):
    groups: dict[str, list[Post]] = {}
    for post in world.post_log:
        if post.link is not None:
            groups.setdefault(post.link, []).append(post)
    matrix = url_feature_matrix(list(groups.values()))
    _assert_bit_identical(matrix, _reference_matrix(list(groups.values())))
    assert max(map(len, groups.values())) >= 8


def test_feature_matrix_rejects_an_empty_group():
    try:
        url_feature_matrix([[]])
    except ValueError:
        pass
    else:
        raise AssertionError("an empty group must raise like url_features")


def _reference_domain_of(raw: str) -> str:
    try:
        return Url.parse(raw).domain
    except ValueError:
        return ""


_LABEL = st.text(alphabet="abcXYZ019-", min_size=1, max_size=8)
_URLS = st.builds(
    lambda scheme, labels, port, user, path, query: (
        f"{scheme}{user}{'.'.join(labels)}{port}{path}{query}"
    ),
    st.sampled_from(["http://", "https://", "HTTP://", "ftp://", "", "//", "http:"]),
    st.lists(_LABEL, min_size=0, max_size=4),
    st.sampled_from(["", ":80", ":8080", ":", "."]),
    st.sampled_from(["", "user@", "u:p@"]),
    st.sampled_from(["", "/", "/survey/c-1", "/apps/application.php"]),
    st.sampled_from(["", "?id=42", "?ref=post&x=%zz", "?=&&=", "#frag"]),
)

MALFORMED = [
    "",
    "no-scheme.com/path",
    "www.example.com",
    "http:///path-without-netloc",
    "http://[::1",
    "http://[::1]/x",
    "http://[fe80::1]:80/",
    "http://[not-ipv6]/",
    "mailto:someone@example.com",
    "HTTP://WWW.Example.COM./x",
    " http://padded.example.com ",
    "http://a..b.com",
    "http://host.example.com\n",
    "http://host.example.com/\tpath",
    "http://ho\tst.example.com/",
    "http://host.example.com\x00/",
    "https://www.facebook.com:443/x",
    "https://user@www.facebook.com/x",
    "http://host.example.com?q#f",
    "http://-.-/",
]


@given(st.one_of(_URLS, st.text(max_size=40)))
def test_domain_of_matches_url_parse(raw):
    assert domain_of(raw) == _reference_domain_of(raw)


def test_domain_of_matches_url_parse_on_malformed_urls():
    for raw in MALFORMED:
        assert domain_of(raw) == _reference_domain_of(raw), raw
    assert domain_of("http://[::1") == ""
    # urlsplit decodes falsy non-strings to an empty URL
    assert domain_of(None) == _reference_domain_of(None) == ""
