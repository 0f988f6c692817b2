"""One measured pass of one workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass pays the
import and preparation a user pays, and no in-process memo (the
experiments' per-``(scale, seed)`` result cache, a warm feature memo)
carries over from one pass to the next.  The pass writes one JSON object
to ``--out``; with ``--spans`` set it is a traced pass and also writes
its spans there.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: exit code when the program under test cannot even be imported
EXIT_NO_PROGRAM = 3
#: exit code when the workload raised
EXIT_WORKLOAD_ERROR = 4

#: span names whose inclusive time is reported as ``<name>_s``
TIMED_SPANS = (
    "ecosystem.simulate", "ecosystem.benign_build", "ecosystem.emit_posts",
    "mypagekeeper.scan", "core.validate", "text.typosquat", "crawler.crawl",
    "checkpoint.append", "checkpoint.compact", "checkpoint.state",
    "core.features", "core.fit", "core.predict", "core.score",
    "service.serve", "monitor.run", "monitor.append", "store.ingest",
    "store.query", "collusion.discover", "experiments.run",
    "experiments.render",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer, check) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    facts = check.facts
    transport = facts.get("transport", {})
    counts = tracer.counts
    values: dict[str, float] = {
        f"{name}_s": tracer.inclusive_s(name) for name in TIMED_SPANS
    }
    requests = transport.get("requests", 0)
    faults = transport.get("faults", 0)
    observations = facts.get("observations", 0)
    values.update({
        "ecosystem.posts": counts["ecosystem.posts"],
        "mypagekeeper.posts_per_s": _ratio(
            counts["mypagekeeper.posts"], values["mypagekeeper.scan_s"]
        ),
        "text.name_similarity_calls": counts["text.name_similarity_calls"],
        "crawler.apps": counts["crawler.apps"],
        "crawler.requests": requests,
        "crawler.faults": faults,
        "crawler.useful_ratio": _ratio(requests - faults, requests),
        "crawler.sim_wait_s": transport.get("sim_wait_s", 0.0),
        "checkpoint.appends": counts["checkpoint.appends"],
        "checkpoint.bytes": facts.get("checkpoint_bytes", 0),
        "core.score_calls": counts["core.score_calls"],
        "service.cache_hit_ratio": facts.get("cache_hit_ratio", 0.0),
        "service.live_crawls": tracer.under("crawler.crawl", "service.serve"),
        "service.queue_wait_p50_s": facts.get("queue_wait_p50_s", 0.0),
        "service.shed": facts.get("shed", 0),
        "service.batch_mean": facts.get("batch_mean", 0.0),
        "service.sim_p50_s": facts.get("sim_p50_s", 0.0),
        "service.sim_p99_s": facts.get("sim_p99_s", 0.0),
        "service.max_ok_rate_x": facts.get("max_ok_rate_x", 0.0),
        "monitor.observations": observations,
        "monitor.bytes_per_observation": _ratio(
            facts.get("journal_bytes", 0), observations
        ),
        "store.rows_per_s": _ratio(
            counts["store.rows"], values["store.ingest_s"]
        ),
        "store.db_bytes": facts.get("db_bytes", 0),
    })
    for layer, seconds in tracer.self_s("region.timed").items():
        values[f"self.{layer}_s"] = seconds
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    try:
        import workloads
        from tracer import Tracer
    except ImportError:
        traceback.print_exc()
        return EXIT_NO_PROGRAM

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, Path(args.workdir)
    )
    tracer = Tracer() if args.spans else None
    installed = tracer.installed() if tracer else nullcontext()
    region = tracer.span if tracer else (lambda name: nullcontext())
    try:
        with installed:
            with region("region.setup"):
                workload.prepare()
            setup_s = time.perf_counter() - _STARTED
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            with region("region.timed"):
                workload.run()
            wall_s = time.perf_counter() - wall_start
            cpu_s = time.process_time() - cpu_start
        check = workload.check()
    except Exception:
        traceback.print_exc()
        return EXIT_WORKLOAD_ERROR

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": check.digest,
        "attempted": check.attempted,
        "failed": check.failed,
        "errors": check.errors,
        "answered": check.facts.get("answered", 0),
    }
    if tracer is not None:
        result["layers"] = layer_values(tracer, check)
        tracer.dump(args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
