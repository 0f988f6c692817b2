"""MyPageKeeper's URL classifier (Sec 2.2).

The classifier evaluates every *URL* by combining evidence from all
posts that contain it:

* spam-keyword density (malicious posts advertise FREE/deals/prizes),
* text similarity across the posts carrying the URL (spam campaigns
  reuse near-identical messages),
* like/comment counts (malicious posts engage users less),
* campaign size (how many posts carry the URL),

plus a URL blacklist.  A URL flagged by either source marks every post
containing it as malicious.

The SVM arrives pre-trained, exactly as MyPageKeeper did in the paper
(it was built and validated in the authors' prior work): at
construction we synthesise a calibration corpus of spam/ham URL feature
profiles and fit the SVM to it.  The operating point reproduces the
paper's measured behaviour — 97% precision on flagged posts and a
0.005% false-flag rate on benign posts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.mypagekeeper.keywords import spam_keyword_count
from repro.platform.posts import Post
from repro.urlinfra.blacklist import UrlBlacklist

__all__ = ["PostFeatures", "url_features", "url_feature_matrix", "UrlClassifier"]

#: Cap on pairwise message comparisons per URL (keeps features O(1)).
_SIMILARITY_SAMPLE = 6


def _token_set(message: str) -> frozenset[str]:
    return frozenset(message.lower().split())


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 1.0


@dataclass(frozen=True)
class PostFeatures:
    """Aggregated features of one URL across the posts carrying it."""

    spam_keyword_density: float
    message_similarity: float
    mean_likes: float
    mean_comments: float
    log_post_count: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.spam_keyword_density,
                self.message_similarity,
                self.mean_likes,
                self.mean_comments,
                self.log_post_count,
            ]
        )


def url_features(posts: list[Post]) -> PostFeatures:
    """Aggregate the posts carrying one URL into a feature vector."""
    if not posts:
        raise ValueError("need at least one post")
    messages = [p.message for p in posts]
    densities = [
        spam_keyword_count(m) / max(len(m.split()), 1) for m in messages
    ]
    sample = messages[:_SIMILARITY_SAMPLE]
    if len(sample) < 2:
        similarity = 0.0
    else:
        token_sets = [_token_set(m) for m in sample]
        pairs = list(combinations(token_sets, 2))
        similarity = float(np.mean([_jaccard(a, b) for a, b in pairs]))
    return PostFeatures(
        spam_keyword_density=float(np.mean(densities)),
        message_similarity=similarity,
        mean_likes=float(np.mean([p.likes for p in posts])),
        mean_comments=float(np.mean([p.comments for p in posts])),
        log_post_count=float(np.log1p(len(posts))),
    )


def _exact_mean(values: list[float]) -> float:
    """``float(np.mean(values))``, bit for bit, without numpy when short.

    numpy sums fewer than 8 elements left to right (longer arrays
    pairwise), so a plain loop reproduces those sums exactly; ``sum()``
    would not, as it compensates rounding from Python 3.12 on.
    """
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def url_feature_matrix(groups: list[list[Post]]) -> np.ndarray:
    """Rows of :func:`url_features` for every group, in one pass.

    Row *i* equals ``url_features(groups[i]).as_array()`` bit for bit;
    :func:`url_features` stays as the reference.  Keyword densities are
    memoised per message for this call only: half the linked posts
    repeat a text already seen (campaign lures, game updates).
    """
    density_of: dict[str, float] = {}
    log_size_of: dict[int, float] = {}
    rows: list[tuple[float, float, float, float, float]] = []
    for posts in groups:
        size = len(posts)
        if not size:
            raise ValueError("need at least one post")
        densities = []
        for post in posts:
            message = post.message
            density = density_of.get(message)
            if density is None:
                density = spam_keyword_count(message) / max(len(message.split()), 1)
                density_of[message] = density
            densities.append(density)
        if size < 2:
            similarity = 0.0
        else:
            token_sets = [_token_set(p.message) for p in posts[:_SIMILARITY_SAMPLE]]
            similarity = _exact_mean(
                [_jaccard(a, b) for a, b in combinations(token_sets, 2)]
            )
        log_size = log_size_of.get(size)
        if log_size is None:
            log_size = log_size_of[size] = float(np.log1p(size))
        # Like/comment counts are small integers: their float sums are
        # exact in any order, so the integer mean equals numpy's.
        rows.append(
            (
                _exact_mean(densities),
                similarity,
                sum(post.likes for post in posts) / size,
                sum(post.comments for post in posts) / size,
                log_size,
            )
        )
    return np.array(rows, dtype=float).reshape(len(rows), 5)


class UrlClassifier:
    """Pre-trained SVM over URL features, combined with a blacklist."""

    def __init__(
        self,
        blacklist: UrlBlacklist | None = None,
        rng: np.random.Generator | None = None,
        calibration_size: int = 600,
    ) -> None:
        self._blacklist = blacklist or UrlBlacklist()
        rng = rng or np.random.default_rng(41)
        x, y = self._calibration_corpus(rng, calibration_size)
        self._scaler = StandardScaler().fit(x)
        self._svm = SVC(c=1.0, kernel="rbf", gamma="auto").fit(
            self._scaler.transform(x), y
        )

    @staticmethod
    def _calibration_corpus(
        rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synthesise spam/ham URL profiles for pre-training.

        Distribution parameters follow Sec 2.2's characterisation:
        spam campaigns have keyword-dense, near-duplicate messages with
        few likes/comments; benign URLs the opposite.
        """
        half = size // 2
        spam = np.column_stack(
            [
                # keyword density: broad support up to fully keyword-
                # stuffed lures (RBF kernels do not extrapolate, so the
                # calibration must cover the whole spam range)
                0.05 + 0.9 * rng.beta(1.3, 2.5, half),
                rng.beta(4.0, 1.4, half),  # similarity ~0.74, mass at 1
                rng.gamma(1.2, 0.8, half),  # likes ~1
                rng.gamma(1.1, 0.5, half),  # comments ~0.5
                np.log1p(rng.geometric(0.05, half)),  # campaign size
            ]
        )
        # Ham URLs: half are single-post (similarity 0), the rest are
        # benign campaigns (game updates) with moderate similarity.
        ham_similarity = np.where(
            rng.random(half) < 0.5, 0.0, rng.beta(2.5, 4.0, half)
        )
        # Benign group sizes are bimodal: most URLs appear once or
        # twice, but popular apps' canonical links gather huge groups.
        ham_group = np.where(
            rng.random(half) < 0.25,
            rng.geometric(0.01, half),
            rng.geometric(0.4, half),
        )
        ham = np.column_stack(
            [
                rng.beta(1, 40, half),  # keyword density ~0.02
                ham_similarity,
                rng.gamma(2.0, 4.0, half),  # likes ~8, wide spread
                rng.gamma(1.5, 2.0, half),  # comments ~3
                np.log1p(ham_group),
            ]
        )
        x = np.vstack([spam, ham])
        y = np.array([1] * half + [0] * half)
        return x, y

    @property
    def blacklist(self) -> UrlBlacklist:
        return self._blacklist

    def classify_url(self, url: str, posts: list[Post], day: int | None = None) -> bool:
        """Is *url* malicious, given the posts that carry it?"""
        return url in self.classify_many({url: posts}, day)

    def classify_many(
        self, posts_by_url: dict[str, list[Post]], day: int | None = None
    ) -> set[str]:
        """Classify a batch of URLs; returns the flagged subset.

        Blacklist hits skip the SVM; the rest are scored in one
        vectorised prediction call.
        """
        flagged: set[str] = set()
        pending_urls: list[str] = []
        pending_groups: list[list[Post]] = []
        contains = self._blacklist.contains
        for url, posts in posts_by_url.items():
            if contains(url, day):
                flagged.add(url)
            else:
                pending_urls.append(url)
                pending_groups.append(posts)
        if pending_urls:
            matrix = self._scaler.transform(url_feature_matrix(pending_groups))
            predictions = self._svm.predict(matrix)
            flagged.update(
                url for url, hit in zip(pending_urls, predictions) if hit
            )
        return flagged
