"""Table 5 — FRAppE Lite 5-fold CV at several benign:malicious ratios."""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.config import PAPER
from repro.core.frappe import frappe_lite
from repro.core.pipeline import PipelineResult
from repro.experiments import common
from repro.ml.metrics import ClassificationReport

__all__ = ["run", "cv_at_ratios"]

RATIOS = {"1:1": 1.0, "4:1": 4.0, "7:1": 7.0, "10:1": 10.0}


def cv_at_ratios(
    result: PipelineResult,
    ratios: dict[str, float] = RATIOS,
    seed: int = 5,
) -> dict[str, ClassificationReport | None]:
    """FRAppE Lite CV on D-Complete at each resampled ratio.

    A ratio whose resample holds fewer samples than folds maps to
    ``None`` (see :func:`~repro.experiments.common.cv_cell`).
    """
    records, labels = result.complete_records()
    out: dict[str, ClassificationReport | None] = {}
    for name, ratio in ratios.items():
        capped = _cap_ratio(labels, ratio)
        if common.resampled_size(labels, capped) < common.CV_FOLDS:
            out[name] = None
            continue
        classifier = frappe_lite(result.extractor)
        out[name] = classifier.cross_validate(
            records,
            labels,
            k=common.CV_FOLDS,
            benign_per_malicious=capped,
            rng=np.random.default_rng(seed),
        )
    return out


def _cap_ratio(labels: list[int], ratio: float) -> float:
    """Never request more benign apps than D-Complete holds."""
    n_malicious = sum(labels)
    n_benign = len(labels) - n_malicious
    if n_malicious == 0:
        return ratio
    return min(ratio, n_benign / n_malicious)


def run(result: PipelineResult) -> ExperimentReport:
    report = ExperimentReport(
        "table5", "FRAppE Lite cross-validation vs class ratio"
    )
    measured = cv_at_ratios(result)
    _records, labels = result.complete_records()
    for ratio_name, paper_acc, paper_fp, paper_fn in PAPER.frappe_lite_cv:
        capped = _cap_ratio(labels, RATIOS[ratio_name])
        report.add(
            f"ratio {ratio_name}",
            f"acc={paper_acc}% FP={paper_fp}% FN={paper_fn}%",
            common.cv_cell(measured[ratio_name], labels, capped),
        )
    return report
