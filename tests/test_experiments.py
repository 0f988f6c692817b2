"""Tests that every experiment module runs and reports sane values.

These exercise the tables/figures machinery on the shared small world;
the benchmark suite compares the actual numbers at a larger scale.
"""

import pytest

from repro.experiments import (
    fig01_15,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig16,
    sec3,
    sec52,
    sec61,
    sec7,
    table1,
    table2,
    table3,
    table5,
    table6,
    table8,
    table9,
)
from repro.analysis.report import ExperimentReport

_SIMPLE_MODULES = [
    table1, table2, table3, table5, table6, table8, table9,
    fig03, fig04, fig05, fig06, fig07, fig08, fig09,
    fig10, fig11, fig12, fig16, sec3, sec52, sec7,
]
_COLLUSION_MODULES = [fig01_15, fig13, fig14, sec61]


@pytest.mark.parametrize(
    "module", _SIMPLE_MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_simple_experiment_runs(module, pipeline_result):
    report = module.run(pipeline_result)
    assert isinstance(report, ExperimentReport)
    assert report.rows
    assert report.render()


@pytest.mark.parametrize(
    "module", _COLLUSION_MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_collusion_experiment_runs(module, pipeline_result, collusion):
    report = module.run(pipeline_result, collusion)
    assert isinstance(report, ExperimentReport)
    assert report.rows


class TestExperimentSemantics:
    def test_fig05_separation(self, pipeline_result):
        fractions = fig05.field_fractions(pipeline_result)
        assert fractions["benign"]["description"] > 0.7
        assert fractions["malicious"]["description"] < 0.2

    def test_fig07_permission_gap(self, pipeline_result):
        counts = fig07.permission_counts(pipeline_result)
        malicious_single = sum(1 for c in counts["malicious"] if c == 1)
        assert malicious_single >= 0.85 * max(len(counts["malicious"]), 1)

    def test_fig12_external_gap(self, pipeline_result):
        ratios = fig12.external_ratios(pipeline_result)
        import numpy as np
        assert np.mean(ratios["malicious"]) > np.mean(ratios["benign"]) + 0.2

    def test_table2_ranked_by_volume(self, pipeline_result):
        top = table2.top_malicious_apps(pipeline_result, n=5)
        counts = [count for _id, _name, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_table9_finds_piggybacked(self, pipeline_result):
        found = {a for a, *_ in table9.piggybacked_apps(pipeline_result)}
        targets = pipeline_result.world.piggybacked_ids()
        assert found & targets

    def test_fig03_clicks_nonnegative(self, pipeline_result):
        totals = fig03.clicks_per_malicious_app(pipeline_result)
        assert totals
        assert all(v >= 0 for v in totals.values())

    def test_fig13_roles_sum(self, pipeline_result, collusion):
        report = fig13.run(pipeline_result, collusion)
        measured = report.measured_by_metric()
        total = int(measured["colluding apps"])
        assert total == len(collusion.graph)


class _TinyComplete:
    """The shared result with D-Complete cut to a few malicious apps."""

    def __init__(self, result, n_malicious: int, n_benign: int = 40) -> None:
        records, labels = result.complete_records()
        malicious = [i for i, label in enumerate(labels) if label][:n_malicious]
        benign = [i for i, label in enumerate(labels) if not label][:n_benign]
        keep = sorted(malicious + benign)
        self._records = [records[i] for i in keep]
        self._labels = [labels[i] for i in keep]
        self.extractor = result.extractor

    def complete_records(self):
        return self._records, self._labels


class TestCrossValidationAtTinyScale:
    """Two malicious apps leave a 1:1 resample of 4 samples, under 5 folds."""

    def test_table5_marks_the_unfoldable_ratio(self, pipeline_result):
        tiny = _TinyComplete(pipeline_result, n_malicious=2)
        assert table5.cv_at_ratios(tiny)["1:1"] is None
        measured = table5.run(tiny).measured_by_metric()
        assert measured["ratio 1:1"] == "not measurable: 4 samples < 5 folds"
        for ratio in ("4:1", "7:1", "10:1"):
            assert measured[f"ratio {ratio}"].startswith("acc=")

    def test_table6_marks_every_row_when_1_to_1_cannot_fold(self, pipeline_result):
        tiny = _TinyComplete(pipeline_result, n_malicious=2)
        measured = table6.run(tiny).measured_by_metric()
        assert set(measured.values()) == {"not measurable: 4 samples < 5 folds"}

    def test_foldable_worlds_render_as_before(self, pipeline_result):
        tiny = _TinyComplete(pipeline_result, n_malicious=3)
        measured = table5.run(tiny).measured_by_metric()
        # 3 malicious + 3 benign = 6 samples: measurable
        assert all(value.startswith("acc=") for value in measured.values())
        rep = table5.cv_at_ratios(tiny)["1:1"]
        acc, fp, fn = rep.as_percentages()
        assert measured["ratio 1:1"] == f"acc={acc:.1f}% FP={fp:.1f}% FN={fn:.1f}%"
