"""The production pipeline never falls back onto a reference oracle.

The naive kernels (``editdist.name_similarity``, the per-record
``FeatureExtractor.vector``, ``cluster_names(kernel="naive")``, SMO
without its row cache, MyPageKeeper's per-URL ``url_features``) stay
in the code base as the oracles the fast paths are tested against, and
the crawler's full
``FaultyTransport.snapshot_state`` stays as what the journal's folded
deltas must equal.  None of them belongs on the hot
path: a faulted, journaled ``FrappePipeline.run`` must finish with every
one of them patched to raise.
"""

from __future__ import annotations

from repro.config import ScaleConfig
from repro.core.features import FeatureExtractor
from repro.core.pipeline import FrappePipeline
from repro.ml import svm
from repro.mypagekeeper import classifier
from repro.platform.transport import FaultyTransport
from repro.text import clustering, editdist, typosquat

from tests.conftest import TEST_SCALE, TEST_SEED


def _oracle(name: str):
    def called(*args, **kwargs):
        raise AssertionError(f"the production path entered {name}")

    return called


def test_faulted_journaled_pipeline_never_enters_an_oracle(
    tmp_path, monkeypatch
):
    for module in (editdist, typosquat, clustering):
        monkeypatch.setattr(
            module, "name_similarity", _oracle("editdist.name_similarity")
        )
    monkeypatch.setattr(
        FeatureExtractor, "vector", _oracle("FeatureExtractor.vector")
    )
    monkeypatch.setattr(
        classifier, "url_features", _oracle("classifier.url_features")
    )
    fast_cluster_names = clustering.cluster_names

    def cluster_names(names, threshold=1.0, kernel="fast"):
        if kernel == "naive":
            _oracle('cluster_names(kernel="naive")')()
        return fast_cluster_names(names, threshold, kernel=kernel)

    monkeypatch.setattr(clustering, "cluster_names", cluster_names)
    cached_smo = svm._smo

    def smo(*args, row_cache=True, **kwargs):
        if not row_cache:
            _oracle("_smo(row_cache=False)")()
        return cached_smo(*args, row_cache=row_cache, **kwargs)

    monkeypatch.setattr(svm, "_smo", smo)
    monkeypatch.setattr(
        FaultyTransport,
        "snapshot_state",
        _oracle("FaultyTransport.snapshot_state"),
    )
    deltas = 0
    delta_state = FaultyTransport.delta_state

    def counted_delta_state(self):
        nonlocal deltas
        deltas += 1
        return delta_state(self)

    monkeypatch.setattr(FaultyTransport, "delta_state", counted_delta_state)

    config = ScaleConfig(
        scale=TEST_SCALE,
        master_seed=TEST_SEED,
        fault_rate=0.2,
        checkpoint_dir=str(tmp_path / "checkpoint"),
    )
    result = FrappePipeline(config).run()
    assert result.validation is not None
    crawled = len(result.bundle.records) + len(result.unlabelled_records)
    # every journal line carried a delta, never the full state
    assert deltas == crawled > 0

