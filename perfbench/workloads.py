"""The benchmark's four workloads, each driven through public entry points.

A workload is built from a seed, a scale and a fresh working directory.
``prepare()`` is the untimed preparation, ``run()`` the timed region and
``check()`` turns the outputs into a :class:`Check`: a sha256 over the
outputs that must not depend on timing, the work attempted and failed
(for the ``ok_frac`` metric), and facts the per-layer metrics read.

Why these four: ``study`` is the paper reproduction users run (simulation,
MyPageKeeper scan, validation).  ``chaos_crawl`` is the same pipeline
under faults with the crash-safe journal on, so the crawl and journal
write path dominates.  ``serve`` drives the verdict service at four
open-loop rates; the simulation is only set-up there.  ``monitor`` is the
only user of continuous monitoring, its journal and the analytics store.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import io as repro_io
from repro.config import ScaleConfig, ServiceConfig
from repro.core.pipeline import FrappePipeline
from repro.crawler.crawler import make_crawler
from repro.crawler.datasets import DatasetBuilder
from repro.crawler.monitor import AppMonitor, MonitorConfig, MonitorJournal
from repro.crawler.resilience import GAVE_UP
from repro.ecosystem import simulation
from repro.experiments import common, runner
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper
from repro.service import (
    LoadProfile,
    estimate_capacity_rps,
    generate_requests,
    make_service,
)
from repro.service.types import DEADLINE, OVERLOADED, SERVED
from repro.store import ingest as store_ingest
from repro.store import queries as store_queries
from repro.store.db import AnalyticsStore


@dataclass
class Check:
    digest: str
    #: work items offered and those that failed (gave up, shed, degraded)
    attempted: int
    failed: int
    facts: dict = field(default_factory=dict)
    #: internal consistency checks that failed, by description
    errors: list[str] = field(default_factory=list)


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _gave_up(record) -> bool:
    return any(o.status == GAVE_UP for o in record.outcomes.values())


def _transport_facts(stats) -> dict:
    snapshot = stats.snapshot()
    return {
        "requests": int(snapshot["requests"]),
        "faults": int(sum(snapshot["injected"].values())),
        "sim_wait_s": float(snapshot["wait_s"]),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _pipeline_check(result, extra: list[bytes]) -> Check:
    records = list(result.bundle.records.values())
    records += list(result.unlabelled_records.values())
    failed = sum(1 for record in records if _gave_up(record))
    return Check(
        digest=_sha256(*extra),
        attempted=len(records),
        failed=failed,
        facts={"transport": _transport_facts(result.transport_stats)},
    )


class Workload:
    #: default scale; tests pass a smaller one
    scale = 0.02

    def __init__(self, seed: int, scale: float | None, workdir: Path) -> None:
        self.seed = seed
        self.scale = self.scale if scale is None else scale
        self.workdir = Path(workdir)

    def prepare(self) -> None:
        """Untimed preparation."""

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> Check:
        raise NotImplementedError


class Study(Workload):
    """``run_all`` plus ``render()`` of every report; fault-free.

    At scale 0.02 some worlds have only two malicious apps in D-Complete
    and Table 5's cross-validation refuses them; at 0.03 every world
    surveyed had at least eleven.
    """

    scale = 0.03

    def run(self) -> None:
        reports = runner.run_all(scale=self.scale, seed=self.seed)
        self.text = "\n\n".join(report.render() for report in reports)

    def check(self) -> Check:
        result = common.get_result(self.scale, self.seed)
        return _pipeline_check(result, [self.text.encode()])


class ChaosCrawl(Workload):
    """The whole pipeline at fault_rate 0.2 with the crawl journal on."""

    scale = 0.01

    def prepare(self) -> None:
        self.checkpoint = self.workdir / "checkpoint"
        self.config = ScaleConfig(
            scale=self.scale,
            master_seed=self.seed,
            fault_rate=0.2,
            blackouts=2,
            checkpoint_dir=str(self.checkpoint),
        )

    def run(self) -> None:
        self.result = FrappePipeline(self.config).run()

    def check(self) -> Check:
        result = self.result
        export = self.workdir / "d_sample.json"
        repro_io.export_dataset(result, export)
        check = _pipeline_check(result, [
            _canonical(sorted(result.flagged_new)),
            _canonical(result.validation.table8_rows()),
            export.read_bytes(),
        ])
        check.facts["checkpoint_bytes"] = _dir_bytes(self.checkpoint)
        return check


class Serve(Workload):
    """A four-rung open-loop rate ladder against fresh verdict services."""

    scale = 0.02
    #: offered rate as a multiple of the estimated cold-crawl capacity
    RUNGS = (0.5, 1.0, 2.0, 4.0)
    REQUESTS = 5000
    #: a rung is "ok" when its simulated p99 meets the interactive
    #: deadline and at most this share of requests failed
    DEADLINE_S = 60.0
    MAX_FAILED = 0.01

    def prepare(self) -> None:
        result = FrappePipeline(
            ScaleConfig(scale=self.scale, master_seed=self.seed)
        ).run(sweep_unlabelled=False)
        capacity = estimate_capacity_rps(result.world.schedule)
        app_ids = sorted(result.bundle.d_total)
        self.ladder = []
        for factor in self.RUNGS:
            service = make_service(result, ServiceConfig(max_queue_depth=64))
            requests = generate_requests(app_ids, LoadProfile(
                n_requests=self.REQUESTS,
                rate_rps=capacity * factor,
                pool_size=None,
                seed=self.seed,
            ))
            self.ladder.append((factor, service, requests))

    def run(self) -> None:
        self.reports = [
            service.serve(requests) for _, service, requests in self.ladder
        ]

    def check(self) -> Check:
        errors: list[str] = []
        summaries: list[bytes] = []
        offered = failed = answered = shed = 0
        hits = lookups = 0
        waits: list[float] = []
        batches: list[int] = []
        rungs: dict[str, dict] = {}
        for (factor, service, requests), report in zip(
            self.ladder, self.reports
        ):
            # The summary holds counts and percentiles; the snapshot
            # holds every response's verdict, risk score and timing.
            summaries.append(report.summary().encode())
            summaries.append(_canonical(report.snapshot()))
            # Every offered request has exactly one response.
            if Counter(r.app_id for r in report.responses) != Counter(
                r.app_id for r in requests
            ):
                errors.append(
                    f"rung {factor}x: {len(report.responses)} responses "
                    f"for {len(requests)} requests"
                )
            outcomes = report.outcome_counts()
            rung_failed = outcomes.get(OVERLOADED, 0) + outcomes.get(DEADLINE, 0)
            offered += len(requests)
            failed += rung_failed
            answered += outcomes.get(SERVED, 0)
            shed += sum(report.shed.values())
            hits += report.cache_hits_fresh + report.cache_hits_stale
            lookups += (
                report.cache_hits_fresh + report.cache_hits_stale
                + report.cache_misses
            )
            served = [r for r in report.responses if r.outcome == SERVED]
            waits += [r.started_s - r.arrival_s for r in served]
            batches += [r.batch_size for r in served]
            rungs[str(factor)] = {
                "p50": report.latency_percentile(50),
                "p99": report.latency_percentile(99),
                "failed_frac": rung_failed / len(requests),
            }
        ok = [
            factor for factor in self.RUNGS
            if rungs[str(factor)]["p99"] <= self.DEADLINE_S
            and rungs[str(factor)]["failed_frac"] <= self.MAX_FAILED
        ]
        transport = [
            _transport_facts(service.stats) for _, service, _ in self.ladder
        ]
        facts = {
            "answered": answered,
            "shed": shed,
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
            "batch_mean": statistics.fmean(batches) if batches else 0.0,
            "sim_p50_s": rungs["1.0"]["p50"],
            "sim_p99_s": rungs["1.0"]["p99"],
            "max_ok_rate_x": max(ok, default=0.0),
            "transport": {
                key: sum(t[key] for t in transport) for key in transport[0]
            },
        }
        return Check(
            digest=_sha256(*summaries),
            attempted=offered,
            failed=failed,
            facts=facts,
            errors=errors,
        )


class Monitor(Workload):
    """Six monitoring epochs into a journal, then ingest and query."""

    scale = 0.02
    EPOCHS = 6
    #: apps monitored: a seeded sample of D-Sample, half from each label.
    #: Every journal line carries state that grows with the monitored
    #: set, so the cost grows with its square; a fixed size keeps one
    #: world's cost close to another's (D-Sample itself varies by almost
    #: a factor of two across seeds).
    MONITORED = 200

    def prepare(self) -> None:
        config = ScaleConfig(
            scale=self.scale, master_seed=self.seed,
            fault_rate=0.2, blackouts=2,
        )
        self.world = simulation.run_simulation(config)
        report = MyPageKeeper(
            UrlClassifier(self.world.services.blacklist), self.world.post_log
        ).scan()
        bundle = DatasetBuilder(self.world, report).build(crawl=False)
        rng = np.random.default_rng(self.seed)
        self.apps = []
        for group in (bundle.d_sample_malicious, bundle.d_sample_benign):
            pool = sorted(group)
            size = min(len(pool), self.MONITORED // 2)
            chosen = rng.choice(len(pool), size=size, replace=False)
            self.apps += [pool[i] for i in sorted(chosen)]
        self.crawler = make_crawler(self.world)
        self.history = self.workdir / "monitor"

    def run(self) -> None:
        journal = MonitorJournal(self.history, resume=False)
        self.monitor = AppMonitor(
            self.world,
            self.crawler,
            self.apps,
            config=MonitorConfig(
                epochs=self.EPOCHS, forensics=True, lifecycle=True
            ),
            journal=journal,
        )
        try:
            self.report = self.monitor.run()
        finally:
            journal.close()
        self.store = AnalyticsStore(self.workdir / "store.sqlite")
        self.ingested = store_ingest.ingest_monitor_history(
            self.store, self.history, label="monitor"
        )
        self.evolution = store_queries.appnet_evolution(self.store)
        self.timeline = store_queries.campaign_timeline(self.store)

    def check(self) -> Check:
        errors: list[str] = []
        entries = self.monitor.journal.entries
        planned = sum(
            len(e["plan"]) for e in entries if e["app_id"] == "__plan__"
        )
        observations = [e for e in entries if e["app_id"] != "__plan__"]
        degraded = sum(
            1 for e in observations
            if any(
                o["status"] == GAVE_UP
                for o in e["record"]["outcomes"].values()
            )
        )
        if self.ingested.rows != self.report.observations:
            errors.append(
                f"ingested {self.ingested.rows} rows for "
                f"{self.report.observations} observations"
            )
        history = self.monitor.export_history_bytes()
        canonical = self.store.canonical_bytes()
        views = _canonical({
            "evolution": [vars(row) for row in self.evolution],
            "timeline": [vars(row) for row in self.timeline],
        })
        self.store.close()
        journal_bytes = (self.history / MonitorJournal.JOURNAL_NAME).stat().st_size
        db_path = self.workdir / "store.sqlite"
        facts = {
            "observations": self.report.observations,
            "journal_bytes": journal_bytes,
            "db_bytes": db_path.stat().st_size,
            "transport": _transport_facts(self.crawler.stats),
        }
        # Observations the monitor could not make count as failed too.
        failed = degraded + self.report.quarantined + max(
            0, planned - len(observations)
        )
        return Check(
            digest=_sha256(history, canonical, views),
            attempted=planned,
            failed=failed,
            facts=facts,
            errors=errors,
        )


WORKLOADS: dict[str, type[Workload]] = {
    "study": Study,
    "chaos_crawl": ChaosCrawl,
    "serve": Serve,
    "monitor": Monitor,
}
