"""Table 6 — classification accuracy with individual features."""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.config import PAPER
from repro.core.frappe import FrappeClassifier
from repro.core.pipeline import PipelineResult
from repro.experiments import common
from repro.ml.metrics import ClassificationReport

__all__ = ["run", "single_feature_cv"]

#: paper's Table 6 row label -> our feature name
FEATURE_OF_ROW = {
    "category": "has_category",
    "company": "has_company",
    "description": "has_description",
    "profile_posts": "has_profile_posts",
    "client_id": "client_id_mismatch",
    "wot_score": "wot_score",
    "permission_count": "permission_count",
}


#: A 1:1 resample reproduces the paper's error asymmetry: sparse
#: features (category/company/permission-count) then flag large benign
#: fractions instead of defaulting to all-benign.
RATIO = 1.0


def single_feature_cv(
    result: PipelineResult, seed: int = 6
) -> dict[str, ClassificationReport | None]:
    """Per-feature CV; every row is ``None`` if the resample cannot fold."""
    records, labels = result.complete_records()
    if common.resampled_size(labels, RATIO) < common.CV_FOLDS:
        return dict.fromkeys(FEATURE_OF_ROW)
    out: dict[str, ClassificationReport | None] = {}
    for row, feature in FEATURE_OF_ROW.items():
        classifier = FrappeClassifier(result.extractor, features=(feature,))
        out[row] = classifier.cross_validate(
            records, labels, k=common.CV_FOLDS, benign_per_malicious=RATIO,
            rng=np.random.default_rng(seed),
        )
    return out


def run(result: PipelineResult) -> ExperimentReport:
    report = ExperimentReport(
        "table6",
        "Single-feature classifiers (5-fold CV on D-Complete)",
        notes="the comparable shape: description/profile-posts are the "
        "strongest single features; category/company/permission-count "
        "flag many benign apps; client-ID misses many malicious apps",
    )
    measured = single_feature_cv(result)
    _records, labels = result.complete_records()
    for row, paper_acc, paper_fp, paper_fn in PAPER.single_feature_cv:
        report.add(
            row,
            f"acc={paper_acc}% FP={paper_fp}% FN={paper_fn}%",
            common.cv_cell(measured[row], labels, RATIO),
        )
    return report
