"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Smoke runs use a small ``--scale`` (no pinned digest there); the
traced-vs-untraced and world-vs-world hash checks still apply.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (seed, scale) per workload: small, and every stage still runs.  The
#: study's cross-validation needs at least three malicious apps in
#: D-Complete, which this seed's worlds have at scale 0.02.
SMOKE = {
    "study": ("2012", "0.02"),
    "chaos_crawl": ("7", "0.005"),
    "serve": ("7", "0.005"),
    "monitor": ("7", "0.005"),
}


def _run(*argv: str) -> tuple[int, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(list(argv))
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_exactly_the_declared_metrics(workload, trace):
    seed, scale = SMOKE[workload]
    code, result = _run(
        "--workload", workload, "--seed", seed, "--seconds", "0",
        "--trace", trace, "--scale", scale,
    )
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in declared)


def _raw_attributes() -> list:
    return [
        inspect.getattr_static(*tracer.resolve(t.path)) for t in tracer.TARGETS
    ]


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    import workloads

    originals = _raw_attributes()
    recorder = tracer.Tracer()
    with recorder.installed():
        assert all(
            now is not before
            for now, before in zip(_raw_attributes(), originals)
        )
        traced = workloads.ChaosCrawl(3, 0.005, tmp_path / "traced")
        traced.prepare()
        traced.run()
    assert all(
        now is before for now, before in zip(_raw_attributes(), originals)
    )
    spans = len(recorder.spans)
    assert spans > 0
    plain = workloads.ChaosCrawl(3, 0.005, tmp_path / "plain")
    plain.prepare()
    plain.run()
    # A later untraced pass records nothing and computes the same output.
    assert len(recorder.spans) == spans
    assert plain.check().digest == traced.check().digest


def test_self_times_add_up_to_the_root():
    recorder = tracer.Tracer()
    with recorder.span("region.timed"):
        outer = recorder.open("crawler.crawl", "crawler")
        inner = recorder.open("checkpoint.append", "checkpoint")
        recorder.close(inner)
        nested = recorder.open("crawler.crawl", "crawler")
        recorder.close(nested)
        recorder.close(outer)
    root = recorder.spans[0]
    totals = recorder.self_s("region.timed")
    assert sum(totals.values()) == pytest.approx(root.end - root.start)
    # A repeated name nested in itself is counted once.
    assert recorder.inclusive_s("crawler.crawl") == pytest.approx(
        recorder.spans[1].end - recorder.spans[1].start
    )
    assert recorder.under("checkpoint.append", "crawler.crawl") == 1


def test_digest_mismatch_is_a_failed_check():
    args = run.argparse.Namespace(workload="study", seed=run.DEFAULT_SEED,
                                  scale=None)
    good = json.loads(run.DIGESTS_PATH.read_text())["study"]
    results = [
        {"seed": int(seed), "digest": digest, "errors": []}
        for seed, digest in good.items()
    ]
    assert run.check_digests(args, results) == []
    results[0]["digest"] = "0" * 64
    assert run.check_digests(args, results)
    # Passes of one world must agree at any seed.
    args.seed = 5
    results = [
        {"seed": 5, "digest": "a", "errors": []},
        {"seed": 5, "digest": "b", "errors": []},
    ]
    assert run.check_digests(args, results)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
