"""End-to-end benchmark of the FRAppE reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload study --seed 2012 --seconds 10 --trace 0

Each run starts one fresh process per pass (``child.py``), so every pass
pays import and preparation and no in-process memo survives from one
pass to the next.  Passes come in cycles over a few worlds derived from
``--seed``; cycles repeat until ``--seconds`` of timed region has been
measured.  The last line of standard output is one JSON object:

* ``--trace 0``: every end-to-end metric of ``BENCHMARK.json`` (medians
  over the passes, ``ok_frac`` over all work offered);
* ``--trace 1``: alternating untraced and traced passes; every per-layer
  metric from the traced passes, plus the tracing overhead.  Spans are
  written to ``.perfbench_out/``.

Each pass hashes its outputs.  Passes of the same world, traced or not,
must agree, and at the default seed each hash must equal the one pinned
in ``digests.json``, a hand-edited file.  A mismatch, a failed
pass or a failed output check makes the run exit 1; a checkout without
the program under ``src/`` exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import EXIT_NO_PROGRAM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 2012
#: worlds per cycle, by workload.  A run's median is taken over several
#: worlds because the cost of one world varies with its seed (the number
#: of flagged apps sets the validation cost, for one); the counts keep a
#: run near half a minute on two cores.
WORLDS = {"study": 4, "chaos_crawl": 3, "serve": 3, "monitor": 4}
#: a run must finish well within three minutes
BUDGET_S = 165.0

#: one process, one thread: numeric libraries must not start a pool
CHILD_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class NoProgram(RuntimeError):
    """The checkout has no importable program to measure."""


def pass_seed(workload: str, seed: int, index: int) -> int:
    """World seed of pass *index* of a run seeded *seed* (pass 0: *seed*)."""
    return seed + 7919 * (index % WORLDS[workload])


def run_pass(args, index: int, seed: int, traced: bool, run_dir: Path,
             deadline: float) -> dict:
    """Run one pass in a fresh process; its result dict, or ``None``."""
    workdir = run_dir / f"pass{index}"
    workdir.mkdir()
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(seed),
        "--workdir", str(workdir), "--out", str(out),
    ]
    if args.scale is not None:
        cmd += ["--scale", repr(args.scale)]
    if traced:
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(TRACE_DIR / f"{args.workload}-{seed}.json")]
    try:
        completed = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stdout or "")
        print(f"pass {index} ({seed}) timed out", file=sys.stderr)
        return None
    sys.stderr.write(completed.stdout)
    if completed.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(f"cannot import the program from {ROOT / 'src'}")
    if completed.returncode != 0:
        print(f"pass {index} ({seed}) exited {completed.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    shutil.rmtree(workdir)
    print(f"pass {index} seed {seed} traced {int(traced)}: "
          + " ".join(f"{k}={result[k]:.4f}" for k in
                     ("setup_s", "wall_s", "cpu_s")),
          file=sys.stderr)
    result["seed"] = seed
    result["traced"] = traced
    return result


def schedule(args, run_dir: Path) -> list[dict | None]:
    """Run passes until enough time is measured; every pass's result."""
    started = time.monotonic()
    deadline = started + BUDGET_S
    results: list[dict | None] = []
    measured = 0.0
    index = 0
    while True:
        seed = pass_seed(
            args.workload, args.seed, index // 2 if args.trace else index
        )
        traced = bool(args.trace) and index % 2 == 1
        result = run_pass(args, index, seed, traced, run_dir, deadline)
        results.append(result)
        index += 1
        if result is None:
            break
        measured += result["wall_s"]
        # Untraced runs stop only after whole cycles, so a faster program
        # is measured over the same mix of worlds; traced runs after
        # whole (untraced, traced) pairs.
        boundary = index % (2 if args.trace else WORLDS[args.workload]) == 0
        elapsed = time.monotonic() - started
        per_pass = elapsed / index
        if boundary and measured >= args.seconds:
            break
        if elapsed + per_pass > BUDGET_S:
            break
    return results


def check_digests(args, results: list[dict]) -> list[str]:
    """Problems with the passes' output hashes (empty when all agree)."""
    problems = []
    by_seed: dict[int, set[str]] = {}
    for result in results:
        by_seed.setdefault(result["seed"], set()).add(result["digest"])
        problems += [f"seed {result['seed']}: {e}" for e in result["errors"]]
    for seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            problems.append(f"seed {seed}: passes disagree: {sorted(digests)}")
    if args.seed == DEFAULT_SEED and args.scale is None:
        pinned = json.loads(DIGESTS_PATH.read_text()).get(args.workload, {})
        for seed, digests in sorted(by_seed.items()):
            expected = pinned.get(str(seed))
            if expected not in digests:
                # Observed digests in the file's own format, so an
                # intended change of output is re-pinned by hand.
                observed = ", ".join(f'"{seed}": "{d}"' for d in sorted(digests))
                problems.append(
                    f"{args.workload} seed {seed}: observed {observed}; "
                    f"pinned {expected}"
                )
    return problems


def end_to_end(results: list[dict]) -> dict[str, float]:
    # Passes measure different worlds, so the timed region is averaged:
    # every world weighs in, and the mean is steadier than the median of
    # a few worlds whose costs differ.  Set-up and memory do nearly the
    # same work in every pass and take the median.
    values = {
        name: statistics.fmean(r[name] for r in results)
        for name in ("wall_s", "cpu_s")
    }
    values.update({
        name: statistics.median(r[name] for r in results)
        for name in ("setup_s", "peak_rss_mb")
    })
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    values["ok_frac"] = 1.0 - failed / attempted
    return values


def per_layer(results: list[dict]) -> dict[str, float]:
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["service.verdicts_per_s"] = statistics.median(
        plain["answered"] / plain["wall_s"]
        for plain in untraced
    )
    values["obs.trace_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
        - 1.0
    )
    return values


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="override the workload's scale (smoke tests); no pinned digest",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        results = schedule(args, run_dir)
    except NoProgram as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    completed = [r for r in results if r is not None]
    problems = check_digests(args, completed)
    failed_passes = len(results) - len(completed)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if completed and (not args.trace or any(r["traced"] for r in completed)):
        values = per_layer(completed) if args.trace else end_to_end(completed)
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if set(values) != set(declared):
            print(
                f"metrics differ from BENCHMARK.json {kind}: "
                f"missing {sorted(set(declared) - set(values))}, "
                f"undeclared {sorted(set(values) - set(declared))}",
                file=sys.stderr,
            )
            return 1
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
        }
    correct = not problems and not failed_passes and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed_passes,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Turn a termination request into an exception, so the running pass
    # is killed and waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
