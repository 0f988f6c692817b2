"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``     build a world and print its vital statistics
``experiments``  reproduce every paper table/figure (paper vs measured)
``evaluate``     run the watchdog over app IDs (or a random sample)
``crawl``        crawl D-Sample under injected faults, report resilience
``serve``        drive the online verdict service with an open-loop load
``drift``        sweep campaign drift rates through the model lifecycle:
                 detection accuracy, static-vs-online accuracy, and
                 champion–challenger promotions/rollbacks per rate
``monitor``      run the continuous monitoring daemon: epoch-driven
                 recrawls through the tiered scheduler, forensic event
                 detection, and a durable, resumable history store
``forensics``    run the Sec 6 AppNet investigation
``bench``        perf-regression harness: time every fast path against
                 its kept-alive naive reference, write ``BENCH_<n>.json``,
                 and (with ``--compare``) fail on a >20% ratio regression
``export``       write the labelled D-Sample dataset to JSON
``obs``          replay an exported trace: causal tree or per-stage summary

``--trace FILE`` / ``--metrics FILE`` / ``--profile`` turn observation
on for any command: the run is instrumented through ``repro.obs`` (its
outputs stay byte-identical — the tracer only *watches*), the canonical
trace goes to FILE, metrics go to FILE (JSONL) plus ``FILE`` with a
``.prom`` suffix (Prometheus-style text), and ``--profile`` prints the
per-stage CPU/simulated-cost table to stderr.

``--fault-rate`` / ``--retry-budget`` apply to every command (all
crawling runs through the configured transport); ``crawl`` also accepts
them after the subcommand for convenience.

``--checkpoint DIR`` makes every crawl crash-safe: completed records go
to a write-ahead journal in DIR, and re-running the same configuration
with ``--resume`` skips the durable apps and continues — kill the
process anywhere and the resumed study is byte-identical to an
uninterrupted one.  Without ``--resume`` an existing checkpoint is
refused (not silently overwritten or mixed).
"""

from __future__ import annotations

import argparse
import sys

from repro.config import ScaleConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FRAppE (CoNEXT 2012) reproduction toolkit",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="simulation scale relative to the paper (default 0.02)",
    )
    parser.add_argument(
        "--seed", type=int, default=2012, help="master RNG seed"
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-request probability of an injected transient crawl "
             "fault (default 0: fault layer disabled)",
    )
    parser.add_argument(
        "--retry-budget", type=int, default=4,
        help="crawl attempts per request before giving up (default 4)",
    )
    parser.add_argument(
        "--blackouts", type=int, default=0,
        help="seeded sustained platform outages (multi-call blackout "
             "windows) injected over the crawl horizon (default 0)",
    )
    parser.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal crawl progress to DIR (write-ahead log + atomic "
             "snapshots) so a killed run can be resumed",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="N",
        help="minimum journal appends between snapshot compactions; a "
             "compaction also waits for the journal to outgrow the last "
             "snapshot (default 64)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue the crawl from an existing --checkpoint DIR",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="crawl workers for the batch-parallel scheduler "
             "(default 1: sequential; any value is byte-identical)",
    )
    parser.add_argument(
        "--processes", type=int, default=1,
        help="OS processes for the fault-tolerant sharded crawl "
             "(default 1: no supervisor; any value is byte-identical, "
             "even when workers are killed mid-shard)",
    )
    parser.add_argument(
        "--store", metavar="FILE", default=None,
        help="sink this run's outputs (and, when instrumented, its "
             "trace/metrics) into the fleet analytics store at FILE "
             "(sqlite; created on first use, ingestion is idempotent)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="instrument the run and export the canonical trace (JSONL) "
             "to FILE; command outputs stay byte-identical",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="instrument the run and export metrics to FILE (JSONL) "
             "plus the same path with a .prom suffix (Prometheus text)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-stage CPU/simulated-cost table to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="build a world and summarise it")
    sub.add_parser("experiments", help="reproduce every table/figure")
    sub.add_parser("forensics", help="AppNet investigation (Sec 6)")

    crawl = sub.add_parser(
        "crawl", help="crawl D-Sample under faults, report resilience"
    )
    # SUPPRESS keeps the subcommand's flags from clobbering values
    # already parsed from the global position when omitted here.
    crawl.add_argument(
        "--fault-rate", type=float, default=argparse.SUPPRESS,
        help="override the global --fault-rate",
    )
    crawl.add_argument(
        "--retry-budget", type=int, default=argparse.SUPPRESS,
        help="override the global --retry-budget",
    )
    crawl.add_argument(
        "--checkpoint", metavar="DIR", default=argparse.SUPPRESS,
        help="override the global --checkpoint",
    )
    crawl.add_argument(
        "--checkpoint-every", type=int, default=argparse.SUPPRESS,
        help="override the global --checkpoint-every",
    )
    crawl.add_argument(
        "--resume", action="store_true", default=argparse.SUPPRESS,
        help="override the global --resume",
    )
    crawl.add_argument(
        "--workers", type=int, default=argparse.SUPPRESS,
        help="override the global --workers",
    )
    crawl.add_argument(
        "--processes", type=int, default=argparse.SUPPRESS,
        help="override the global --processes",
    )

    evaluate = sub.add_parser("evaluate", help="watchdog over app IDs")
    evaluate.add_argument(
        "app_ids", nargs="*", help="app IDs (random sample when omitted)"
    )
    evaluate.add_argument(
        "--sample", type=int, default=8,
        help="random apps to assess when no IDs are given",
    )

    serve = sub.add_parser(
        "serve", help="drive the online verdict service with open-loop load"
    )
    serve.add_argument(
        "--requests", type=int, default=200,
        help="requests to offer (default 200)",
    )
    serve.add_argument(
        "--overload", type=float, default=1.0,
        help="offered load as a multiple of the estimated cold-crawl "
             "capacity (default 1.0; >=2 forces shedding)",
    )
    serve.add_argument(
        "--fault-rate", type=float, default=argparse.SUPPRESS,
        help="override the global --fault-rate",
    )
    serve.add_argument(
        "--interactive-fraction", type=float, default=0.7,
        help="fraction of requests at interactive priority (default 0.7)",
    )
    serve.add_argument(
        "--pool", type=int, default=32,
        help="apps drawn with repetition from a pool of this size "
             "(smaller pools exercise the verdict cache; default 32)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="admission queue bound (default 16)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=1,
        help="adaptive continuous-batching cap: a tick drains up to "
             "this many requests, batch growing with queue depth and "
             "shrinking when deadline headroom is tight (default 1 = "
             "the unbatched historical path)",
    )
    serve.add_argument(
        "--snapshot-out", metavar="FILE", default=None,
        help="write the run's JSON-round-trippable ServiceReport "
             "snapshot to FILE (ingestable via 'repro ingest', "
             "diffable across sessions)",
    )
    serve.add_argument(
        "--canary", choices=("good", "bad"), default=None,
        help="attach a champion–challenger rollout and put a canary on "
             "probation: 'good' agrees with the champion and is "
             "promoted; 'bad' inverts every verdict and must be "
             "rolled back by the health gate",
    )

    drift = sub.add_parser(
        "drift",
        help="adversarial-drift sweep: detection accuracy vs drift rate "
             "plus the champion–challenger lifecycle response",
    )
    drift.add_argument(
        "--epochs", type=int, default=6,
        help="simulated epochs per trajectory (default 6)",
    )
    drift.add_argument(
        "--apps-per-epoch", type=int, default=160,
        help="cohort size per epoch (default 160)",
    )
    drift.add_argument(
        "--drift-rates", default="0.0,0.25,0.5,1.0", metavar="R,R,...",
        help="comma-separated per-epoch intensity increments "
             "(default 0.0,0.25,0.5,1.0)",
    )
    drift.add_argument(
        "--inject-bad-canary", type=int, default=None, metavar="EPOCH",
        help="at EPOCH, skip the promotion gate and push a broken model "
             "straight into canary probation (rollback chaos test)",
    )
    drift.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the drift-metrics JSONL (epoch, window, and summary "
             "rows) to FILE",
    )

    bench = sub.add_parser(
        "bench", help="time fast vs reference paths; gate on speedup ratios"
    )
    bench.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSON report (e.g. BENCH_4.json)",
    )
    bench.add_argument(
        "--full", action="store_true",
        help="acceptance-scale workloads (10K-name clustering; the "
             "naive reference alone takes minutes)",
    )
    bench.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="fail (exit 1) when a gated speedup ratio regressed vs "
             "this baseline JSON",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional drop per gated ratio (default 0.2)",
    )

    monitor = sub.add_parser(
        "monitor",
        help="continuous monitoring daemon: epoch-driven recrawls, "
             "forensic event detection, durable per-app history",
    )
    monitor.add_argument(
        "--epochs", type=int, default=3,
        help="monitoring epochs to run (default 3)",
    )
    monitor.add_argument(
        "--stride-days", type=int, default=7,
        help="simulated days between epochs (default 7)",
    )
    monitor.add_argument(
        "--forensics", action="store_true",
        help="diff each observation against history and record forensic "
             "events (deletion, rename, permission change, post-rate "
             "collapse)",
    )
    monitor.add_argument(
        "--lifecycle", action="store_true",
        help="apply the scripted app-lifecycle events (the simulated "
             "ground truth the forensic detectors should find)",
    )
    monitor.add_argument(
        "--policy", choices=("tiered", "active-learning"), default="tiered",
        help="recrawl policy: strict tier ladder, or the ladder plus an "
             "exploration budget of most-uncertain apps (default tiered)",
    )
    monitor.add_argument(
        "--supervised", action="store_true",
        help="run each epoch in a forked, heartbeat-watched worker with "
             "restart-and-fallback supervision",
    )
    monitor.add_argument(
        "--fault-rate", type=float, default=argparse.SUPPRESS,
        help="override the global --fault-rate",
    )
    monitor.add_argument(
        "--blackouts", type=int, default=argparse.SUPPRESS,
        help="override the global --blackouts",
    )
    monitor.add_argument(
        "--checkpoint", metavar="DIR", default=argparse.SUPPRESS,
        help="override the global --checkpoint (the history store DIR)",
    )
    monitor.add_argument(
        "--resume", action="store_true", default=argparse.SUPPRESS,
        help="override the global --resume",
    )

    export = sub.add_parser("export", help="export D-Sample to JSON")
    export.add_argument("output", help="output path (.json)")

    ingest = sub.add_parser(
        "ingest",
        help="ingest exported artifacts into the analytics store "
             "(--store; idempotent, torn/corrupt inputs tolerated)",
    )
    ingest.add_argument(
        "--trace", action="append", default=[], metavar="FILE",
        help="trace JSONL export(s) written by --trace",
    )
    ingest.add_argument(
        "--metrics", action="append", default=[], metavar="FILE",
        help="metrics JSONL export(s) written by --metrics",
    )
    ingest.add_argument(
        "--serve-snapshot", action="append", default=[], metavar="FILE",
        help="ServiceReport snapshot JSON written by serve --snapshot-out",
    )
    ingest.add_argument(
        "--monitor-history", action="append", default=[], metavar="DIR",
        help="monitor history store directory (the monitor.jsonl WAL)",
    )
    ingest.add_argument(
        "--incidents", action="append", default=[], metavar="FILE",
        help="rollout-incident JSONL file(s)",
    )

    report = sub.add_parser(
        "report",
        help="render the paper tables + operational views from the "
             "analytics store (--store) instead of in-process objects",
    )
    report.add_argument(
        "--paper-only", action="store_true",
        help="emit only the paper tables, byte-identical to "
             "'repro experiments' for the same stored run",
    )
    report.add_argument(
        "--window", type=float, default=60.0, metavar="SECONDS",
        help="simulated-clock window for temporal views (default 60)",
    )
    report.add_argument(
        "--slo-target", type=float, default=0.99,
        help="availability SLO target for the burn-down (default 0.99)",
    )

    obs = sub.add_parser(
        "obs", help="replay an exported trace (causal tree or summary)"
    )
    obs.add_argument("trace_file", help="trace JSONL written by --trace")
    obs.add_argument(
        "--tree", action="store_true",
        help="render the causal span tree instead of the summary table",
    )
    obs.add_argument(
        "--category", default=None,
        help="restrict the tree to one category (crawl/serve/train/...)",
    )
    obs.add_argument(
        "--key", default=None,
        help="restrict the tree to root spans whose key contains this",
    )
    obs.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N root spans in the tree",
    )
    return parser


def _config(args: argparse.Namespace) -> ScaleConfig:
    return ScaleConfig(
        scale=args.scale,
        master_seed=args.seed,
        fault_rate=args.fault_rate,
        retry_budget=args.retry_budget,
        blackouts=args.blackouts,
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        crawl_workers=args.workers,
        crawl_processes=args.processes,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.ecosystem.simulation import run_simulation

    world = run_simulation(_config(args))
    registry = world.registry
    print(f"apps:        {len(registry)} "
          f"({len(registry.malicious())} truly malicious)")
    print(f"posts:       {len(world.post_log)}")
    print(f"users:       {world.users.n_users}")
    print(f"campaigns:   {len(world.campaigns)} "
          f"({sum(c.plan.colluding for c in world.campaigns)} AppNets)")
    print(f"sites:       {len(world.services.redirector)} indirection websites")
    print(f"short links: "
          f"{sum(len(s) for s in world.services.shorteners.values())}")
    return 0


def _open_store(args: argparse.Namespace, required: bool = False):
    """The analytics store named by ``--store`` (None when absent)."""
    path = getattr(args, "store", None)
    if not path:
        if required:
            raise SystemExit(
                "this command needs the analytics store: pass --store FILE "
                "before the subcommand"
            )
        return None
    from repro.store import AnalyticsStore

    return AnalyticsStore(path)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    reports = run_all(args.scale, seed=args.seed)
    for report in reports:
        print(report.render())
        print()
    store = _open_store(args)
    if store is not None:
        from repro.store import ingest_experiments

        with store:
            result = ingest_experiments(
                store, reports,
                label=f"experiments scale={args.scale} seed={args.seed}",
            )
        print(f"store:      {args.store} ({result.describe()})",
              file=sys.stderr)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.pipeline import FrappePipeline
    from repro.core.watchdog import AppWatchdog
    from repro.crawler.crawler import AppCrawler

    result = FrappePipeline(_config(args)).run(sweep_unlabelled=False)
    watchdog = AppWatchdog(
        result.classifier, result.extractor, AppCrawler(result.world)
    )
    app_ids = list(args.app_ids)
    if not app_ids:
        rng = np.random.default_rng(args.seed)
        everything = sorted(result.bundle.d_total)
        chosen = rng.choice(len(everything), size=args.sample, replace=False)
        app_ids = [everything[i] for i in chosen]
    for assessment in watchdog.bulk_assess(app_ids, day=400):
        print(assessment.summary())
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    """Crawl D-Sample through the configured transport; print outcomes.

    With ``--checkpoint DIR`` the crawl is crash-safe (kill it anywhere,
    re-run with ``--resume``, get byte-identical results).  Replay
    progress goes to stderr so stdout stays comparable across resumed
    and uninterrupted runs.
    """
    from repro.crawler.checkpoint import CrawlJournal
    from repro.crawler.crawler import make_crawler
    from repro.crawler.datasets import DatasetBuilder
    from repro.ecosystem.simulation import run_simulation
    from repro.mypagekeeper.classifier import UrlClassifier
    from repro.mypagekeeper.monitor import MyPageKeeper

    config = _config(args)
    world = run_simulation(config)
    report = MyPageKeeper(
        UrlClassifier(world.services.blacklist), world.post_log
    ).scan()
    bundle = DatasetBuilder(world, report).build(crawl=False)
    crawler = make_crawler(world)
    journal = None
    if config.checkpoint_dir:
        journal = CrawlJournal(
            config.checkpoint_dir,
            snapshot_every=config.checkpoint_every,
            resume=config.resume,
        )
        durable = sum(1 for a in bundle.d_sample if a in journal)
        print(
            f"checkpoint: {config.checkpoint_dir} "
            f"({durable}/{len(bundle.d_sample)} apps already durable)",
            file=sys.stderr,
        )
    try:
        records = crawler.crawl_many(
            bundle.d_sample,
            journal=journal,
            workers=config.crawl_workers,
            processes=config.crawl_processes,
        )
    finally:
        if journal is not None:
            journal.close()

    stats = crawler.stats
    print(f"crawled {len(records)} apps at fault_rate={config.fault_rate} "
          f"(retry budget {config.retry_budget})")
    print(f"requests:   {stats.requests} "
          f"({stats.fault_count()} faults injected)")
    if stats.injected:
        mix = ", ".join(
            f"{kind}={count}" for kind, count in sorted(stats.injected.items())
        )
        print(f"faults:     {mix}")
    if stats.truncated_feeds:
        print(f"truncated:  {stats.truncated_feeds} feed pages")
    if stats.vanished:
        print(f"vanished:   {len(stats.vanished)} apps deleted mid-crawl")
    for collection, tally in crawler.outcome_tallies(records).items():
        counts = ", ".join(f"{s}={n}" for s, n in sorted(tally.items()))
        print(f"{collection + ':':<12}{counts}")
    recovery = crawler.recovery_rate(records)
    if recovery is not None:
        print(f"recovery:   {recovery:.1%} of transiently-faulted "
              f"collections saved by retries")
    print(f"crawl time: {stats.elapsed_s / 3600:.1f} simulated hours "
          f"({stats.service_s / 3600:.1f}h service, "
          f"{stats.wait_s / 3600:.1f}h waiting)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Train FRAppE, stand up the verdict service, offer open-loop load.

    ``--overload`` scales the arrival rate relative to the analytically
    estimated cold-crawl capacity; at >= 2 the admission queue must
    shed, and the report shows the priority policy doing it (bulk
    before interactive), the cache absorbing repeats, and every request
    accounted for by a typed outcome.
    """
    from repro.core.pipeline import FrappePipeline
    from repro.config import ServiceConfig
    from repro.service import (
        LoadProfile,
        estimate_capacity_rps,
        generate_requests,
        make_service,
    )

    result = FrappePipeline(_config(args)).run(sweep_unlabelled=False)
    service = make_service(
        result,
        ServiceConfig(
            max_queue_depth=args.queue_depth, batch_max=args.batch_max
        ),
    )
    if args.canary:
        service.rollout = _build_canary_rollout(service, args.canary)
    capacity = estimate_capacity_rps(result.world.schedule)
    profile = LoadProfile(
        n_requests=args.requests,
        rate_rps=capacity * args.overload,
        interactive_fraction=args.interactive_fraction,
        pool_size=args.pool,
        seed=args.seed,
    )
    requests = generate_requests(sorted(result.bundle.d_sample), profile)
    report = service.serve(requests)
    print(f"offered:     {args.requests} requests at "
          f"{profile.rate_rps:.3f} req/s "
          f"({args.overload:.1f}x estimated capacity "
          f"{capacity:.3f} req/s), fault_rate={result.world.config.fault_rate}")
    print(report.summary())
    incidents = (
        list(service.rollout.incidents) if service.rollout is not None else []
    )
    for incident in incidents:
        print(f"rollback:    canary v{incident.canary_version} -> "
              f"champion v{incident.restored_version} restored "
              f"({incident.reason})")
    if args.snapshot_out or getattr(args, "store", None):
        snapshot = report.snapshot()
        snapshot["incidents"] = [inc.jsonable() for inc in incidents]
        if args.snapshot_out:
            import json

            from repro.crawler.checkpoint import atomic_write

            atomic_write(
                args.snapshot_out,
                json.dumps(snapshot, sort_keys=True, indent=2) + "\n",
            )
            print(f"snapshot:    {args.snapshot_out}", file=sys.stderr)
        store = _open_store(args)
        if store is not None:
            from repro.store import ingest_service_report

            with store:
                result = ingest_service_report(
                    store, snapshot,
                    label=f"serve seed={args.seed} "
                          f"overload={args.overload}",
                )
            print(f"store:       {args.store} ({result.describe()})",
                  file=sys.stderr)
    return 0


class _InvertedCascade:
    """A deliberately broken model: every verdict flipped."""

    def __init__(self, cascade) -> None:
        self._cascade = cascade

    def score_record(self, record):
        prediction, margin, tier = self._cascade.score_record(record)
        if tier in ("frappe", "lite"):
            return 1 - prediction, -margin, tier
        return prediction, margin, tier


def _build_canary_rollout(service, kind: str):
    """A rollout with the service's own cascade as champion and a
    probationary canary: the cascade again ('good') or its inversion
    ('bad', which the health gate must catch and roll back)."""
    from repro.service import ModelRegistry, RolloutConfig, RolloutController

    registry = ModelRegistry()
    champion = registry.register(service.cascade, note="serving champion")
    payload = (
        service.cascade if kind == "good"
        else _InvertedCascade(service.cascade)
    )
    challenger = registry.register(payload, note=f"{kind} canary")
    controller = RolloutController(
        registry,
        champion.version,
        config=RolloutConfig(
            canary_fraction=0.4, canary_requests=20, min_canary_sample=6
        ),
    )
    controller.start_canary(challenger.version, t=0.0)
    return controller


def _cmd_drift(args: argparse.Namespace) -> int:
    """Drift sweep: detection accuracy vs drift rate, with lifecycle."""
    from repro.core.lifecycle import (
        LifecycleConfig,
        run_drift_sweep,
        write_drift_metrics,
    )
    from repro.ecosystem.drift import DriftPlan

    rates = [float(r) for r in args.drift_rates.split(",") if r.strip()]
    plan = DriftPlan(
        seed=args.seed,
        n_epochs=args.epochs,
        apps_per_epoch=args.apps_per_epoch,
    )
    config = LifecycleConfig(inject_bad_canary_epoch=args.inject_bad_canary)
    sweep = run_drift_sweep(rates, plan=plan, config=config)
    print(f"epochs:      {plan.n_epochs} x {plan.apps_per_epoch} apps, "
          f"seed={plan.seed}")
    print(sweep.table())
    for row in sweep.rows:
        final = row.result.outcomes[-1]
        print(f"rate {row.drift_rate:.2f}: final epoch "
              f"static={final.static_accuracy:.3f} "
              f"online={final.online_accuracy:.3f} "
              f"champion=v{final.champion_version}")
        for incident in row.result.incidents:
            print(f"  rollback: canary v{incident.canary_version} -> "
                  f"v{incident.restored_version} restored "
                  f"({incident.reason})")
    if args.out:
        n = write_drift_metrics(args.out, sweep)
        print(f"metrics:     {args.out} ({n} rows)")
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    from repro.collusion import CollusionAnalyzer
    from repro.ecosystem.simulation import run_simulation

    world = run_simulation(_config(args))
    analyzer = CollusionAnalyzer(world)
    collusion = analyzer.discover()
    stats = analyzer.stats(collusion)
    print(f"colluding apps: {stats.n_colluding}")
    print(f"roles: {stats.n_promoters} promoters / "
          f"{stats.n_promotees} promotees / {stats.n_dual} dual")
    print(f"components: {stats.n_components} "
          f"(top: {stats.top_component_sizes})")
    print(f"indirection sites: {collusion.indirection.n_sites}")
    print(f"hosting: {analyzer.hosting_providers(collusion)}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Run the continuous monitoring daemon over D-Sample.

    With ``--checkpoint DIR`` every observation and epoch plan is a
    checksummed, fsynced journal line: kill the daemon anywhere and a
    ``--resume`` run continues to a byte-identical history store.
    ``--blackouts`` adds sustained platform outages the tier scheduler
    must pause through instead of burning retry budgets.
    """
    from repro.crawler.crawler import make_crawler
    from repro.crawler.datasets import DatasetBuilder
    from repro.crawler.monitor import AppMonitor, MonitorConfig, MonitorJournal
    from repro.crawler.recrawl import ActiveLearningPolicy, RecrawlScheduler
    from repro.ecosystem.simulation import run_simulation
    from repro.mypagekeeper.classifier import UrlClassifier
    from repro.mypagekeeper.monitor import MyPageKeeper

    config = _config(args)
    world = run_simulation(config)
    report = MyPageKeeper(
        UrlClassifier(world.services.blacklist), world.post_log
    ).scan()
    bundle = DatasetBuilder(world, report).build(crawl=False)
    crawler = make_crawler(world)
    journal = None
    if config.checkpoint_dir:
        journal = MonitorJournal(config.checkpoint_dir, resume=config.resume)
        print(
            f"history:    {config.checkpoint_dir} "
            f"({len(journal.entries)} durable entries"
            + (f", {journal.quarantined} quarantined" if journal.quarantined
               else "") + ")",
            file=sys.stderr,
        )
    if args.policy == "active-learning":
        scheduler = RecrawlScheduler(policy=ActiveLearningPolicy())
    else:
        scheduler = RecrawlScheduler()
    monitor = AppMonitor(
        world,
        crawler,
        bundle.d_sample,
        config=MonitorConfig(
            epochs=args.epochs,
            stride_days=args.stride_days,
            forensics=args.forensics,
            lifecycle=args.lifecycle,
        ),
        scheduler=scheduler,
        journal=journal,
    )
    try:
        result = monitor.run(supervised=args.supervised)
    finally:
        if journal is not None:
            journal.close()
    stats = crawler.stats
    print(f"monitored {len(bundle.d_sample)} apps for "
          f"{result.epochs_run} epochs (stride {args.stride_days}d, "
          f"policy {args.policy}, fault_rate={config.fault_rate}, "
          f"blackouts={config.blackouts})")
    print(f"history:    {result.observations} durable observations"
          + (f", {result.quarantined} quarantined" if result.quarantined
             else ""))
    census = ", ".join(
        f"{tier}={n}" for tier, n in result.tier_census.items() if n
    )
    print(f"tiers:      {census or 'none'}")
    if result.pauses:
        print(f"backpressure: {result.pauses} blackout pauses "
              f"(tiers re-planned instead of retrying into the outage)")
    if result.forensic_events:
        kinds: dict[str, int] = {}
        for event in result.forensic_events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        mix = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        print(f"forensics:  {len(result.forensic_events)} events ({mix})")
        for event in result.forensic_events[:8]:
            print(f"  e{event.epoch} {event.app_id}: {event.kind} "
                  f"({event.detail})")
    print(f"crawl time: {stats.elapsed_s / 3600:.1f} simulated hours "
          f"({stats.service_s / 3600:.1f}h service, "
          f"{stats.wait_s / 3600:.1f}h waiting)")
    store = _open_store(args)
    if store is not None:
        if journal is None:
            print(
                "store:      --store needs the durable history: pass "
                "--checkpoint DIR so there is a monitor.jsonl to ingest",
                file=sys.stderr,
            )
        else:
            from repro.store import ingest_monitor_history

            with store:
                ingested = ingest_monitor_history(
                    store, config.checkpoint_dir,
                    label=f"monitor seed={config.master_seed} "
                          f"epochs={args.epochs}",
                )
            print(f"store:      {args.store} ({ingested.describe()})",
                  file=sys.stderr)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest exported artifacts into the analytics store (idempotent)."""
    import json

    from repro.store import (
        ingest_incidents,
        ingest_metrics,
        ingest_monitor_history,
        ingest_service_report,
        ingest_trace,
    )

    store = _open_store(args, required=True)
    results = []
    with store:
        for path in args.trace:
            results.append(ingest_trace(store, path))
        for path in args.metrics:
            results.append(ingest_metrics(store, path))
        for path in args.serve_snapshot:
            with open(path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
            results.append(
                ingest_service_report(store, snapshot, label=str(path))
            )
        for directory in args.monitor_history:
            results.append(ingest_monitor_history(store, directory))
        for path in args.incidents:
            results.append(ingest_incidents(store, path))
    if not results:
        print("nothing to ingest: pass --trace/--metrics/--serve-snapshot/"
              "--monitor-history/--incidents", file=sys.stderr)
        return 1
    for result in results:
        print(result.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the paper tables + operational views from stored data."""
    from repro.store import render_report

    store = _open_store(args, required=True)
    with store:
        output = render_report(
            store,
            paper_only=args.paper_only,
            window_s=args.window,
            slo_target=args.slo_target,
        )
    sys.stdout.write(output)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf-regression harness (see :mod:`repro.bench`)."""
    from repro.bench import main as bench_main

    return bench_main(args)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core.pipeline import FrappePipeline
    from repro.io import export_dataset

    result = FrappePipeline(_config(args)).run(sweep_unlabelled=False)
    path = export_dataset(result, args.output)
    print(f"wrote {path} "
          f"({len(result.bundle.d_sample)} labelled records)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Replay a ``--trace`` file: causal tree or per-stage summary."""
    from repro.obs import load_trace, render_summary, render_tree

    roots = load_trace(args.trace_file)
    if args.tree:
        print(render_tree(
            roots, category=args.category, key=args.key, limit=args.limit
        ))
    else:
        print(render_summary(roots))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "experiments": _cmd_experiments,
    "evaluate": _cmd_evaluate,
    "crawl": _cmd_crawl,
    "serve": _cmd_serve,
    "drift": _cmd_drift,
    "monitor": _cmd_monitor,
    "forensics": _cmd_forensics,
    "bench": _cmd_bench,
    "export": _cmd_export,
    "obs": _cmd_obs,
    "ingest": _cmd_ingest,
    "report": _cmd_report,
}

#: commands that only read or move artifacts — instrumenting them
#: would sink their own (empty) observation into the store as noise
_UNOBSERVED = ("obs", "ingest", "report", "bench")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    wants_obs = bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "profile", False)
        or getattr(args, "store", None)
    )
    # `ingest --trace FILE` names an input artifact, not instrumentation.
    if not wants_obs or args.command in _UNOBSERVED:
        return _COMMANDS[args.command](args)

    from pathlib import Path

    from repro.obs import observation
    from repro.store import StoreSink

    observer = StoreSink()
    with observation(observer):
        code = _COMMANDS[args.command](args)
    if args.trace:
        Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
        path = observer.tracer.export(args.trace)
        print(f"trace:      {path}", file=sys.stderr)
    if args.metrics:
        jsonl = Path(args.metrics)
        jsonl.parent.mkdir(parents=True, exist_ok=True)
        prom = jsonl.with_suffix(".prom")
        observer.metrics.export(jsonl_path=jsonl, prometheus_path=prom)
        print(f"metrics:    {jsonl} + {prom}", file=sys.stderr)
    if args.profile:
        print(observer.profiler.render(), file=sys.stderr)
    if args.store:
        from repro.store import AnalyticsStore

        with AnalyticsStore(args.store) as store:
            for result in observer.flush(
                store, label=f"{args.command} seed={args.seed}"
            ):
                print(f"store:      {args.store} ({result.describe()})",
                      file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
