"""The deterministic multi-worker crawl scheduler.

``crawl_many`` is a sequential per-record loop; at paper scale (111K
apps) the crawl is the longest stage of the pipeline.  This module
partitions the app IDs across N workers and still produces output
**byte-identical to the sequential crawl** — same records, same
transport accounting, same breaker trajectories, same journal — for any
worker count.  ``workers=1`` short-circuits to ``crawl_many`` itself.

Why that is hard
----------------
Almost all of one app's crawl is a pure function of the app: fault
draws hash ``(seed, endpoint, app, call index)``, retry jitter hashes
``(endpoint, app, attempt)``, deadlines are relative to the app's start.
Exactly two pieces of state couple apps to each other:

* the **installer RNG** — an install-URL visit of a colluding app draws
  which sibling's client ID it hands out from a single sequential
  stream, so the draw an app observes depends on how many draws the
  apps before it consumed;
* the **circuit breakers** (and, while one is open, the absolute
  clock) — consecutive transient failures on one app can open an
  endpoint breaker and change the next app's attempts.

The scheduler handles both with *speculate-then-commit*:

1. **Speculate (parallel).**  Each worker crawls its partition one app
   at a time, each app in a fresh sandbox: a private transport clone
   with its own stats clock starting at zero, private per-endpoint
   breakers starting pristine (closed, zero consecutive failures), and
   a deferred-draw installer that records *that* a client-ID rotation
   would be drawn without consuming the shared stream (the drawn value
   is data in the record, never control flow, so it can be patched in
   later).  The sandbox emits the record plus the state *delta* the
   crawl produced.
2. **Commit (sequential, canonical order).**  Apps are committed in
   sorted order against the real crawler state.  A speculation is valid
   exactly when every real breaker is pristine at the app's turn — the
   same state the sandbox assumed — in which case the committed record
   equals the sequential one: the deferred client-ID draw is performed
   now, in canonical order, from the real installer RNG, and the delta
   (clock increments replayed one by one, fault accounting, call
   indexes, vanished set, app-frame breaker end states) is merged.
   All within-app time arithmetic runs in the transport's *app frame*
   (see :class:`~repro.platform.transport.TransportStats.begin_app`),
   which both the sequential loop and every sandbox integrate from
   exactly 0.0 — so no float is ever translated between clock bases
   and equality is bitwise.  If a breaker is *not* pristine (a previous
   app left it
   open, half-open, or partly failed), the speculation is discarded and
   the app is re-crawled inline against the true state — a graceful
   degradation to the sequential crawl that preserves exactness.

The checkpoint journal composes unchanged: committed records are
appended with the real crawler's continuation-state delta, exactly as
the sequential loop would, so kill-anywhere resume still holds.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.crawler.crawler import AppCrawler, CrawlRecord
from repro.crawler.resilience import CircuitBreaker
from repro.obs.observer import get_observer
from repro.platform.install import AppRemovedError, InstallPrompt
from repro.platform.transport import (
    DirectTransport,
    FaultyTransport,
    TransportStats,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.checkpoint import CrawlJournal

__all__ = [
    "CrawlScheduler",
    "Speculation",
    "clamp_width",
    "speculation_to_jsonable",
    "speculation_from_jsonable",
]

logger = logging.getLogger(__name__)


def clamp_width(requested: int, n_apps: int, what: str = "workers") -> int:
    """Clamp a parallel width to the number of apps (and >= 1), loudly.

    Spawning more workers/processes than there are apps would only
    create idle sandboxes (or idle OS processes); the clamp keeps the
    run identical while warning that the requested width was excessive.
    """
    effective = max(1, min(requested, n_apps))
    if effective < requested:
        logger.warning(
            "clamping %s from %d to %d: only %d pending app(s) to crawl",
            what, requested, effective, n_apps,
        )
    return effective


def _pristine(snapshot: dict) -> bool:
    """Is a breaker in the state every sandbox assumes it starts in?"""
    return (
        snapshot["state"] == CircuitBreaker.CLOSED
        and snapshot["consecutive_failures"] == 0
        and not snapshot["probe_in_flight"]
    )


class _SpeculativeInstaller:
    """Installer facade for one sandbox: real registry, deferred RNG.

    Mirrors :meth:`InstallationService.visit_install_url` except that a
    client-ID rotation draw is *recorded instead of performed*: the
    prompt carries a placeholder client (the first live candidate) and
    ``drew`` is set, so the commit phase can redo the visit against the
    real installer — consuming the shared RNG stream in canonical app
    order — and patch the drawn fields into the record.  Apps without a
    live sibling pool take no draw and need no patch.
    """

    def __init__(self, registry, installer) -> None:
        self._registry = registry
        self._installer = installer
        self.drew = False

    def visit_install_url(self, app_id: str, day: int | None = None) -> InstallPrompt:
        app = self._registry.maybe_get(app_id)
        if app is None or app.is_deleted(day):
            raise AppRemovedError(app_id)
        candidates = self._installer.candidate_clients(app, day)
        if candidates:
            self.drew = True
            client = candidates[0]  # placeholder; patched at commit
        else:
            client = app
        return InstallPrompt(
            requested_app_id=app.app_id,
            client_id=client.app_id,
            permissions=client.permissions,
            redirect_uri=client.redirect_uri,
        )


@dataclass
class Speculation:
    """One sandbox crawl: the record plus the state delta it produced."""

    app_id: str
    record: CrawlRecord
    #: sandbox TransportStats snapshot — exact integer/set tallies
    counters: dict[str, Any]
    #: ordered service/wait increments; replayed one by one at commit
    #: so the global clock accumulates bit-identically to a sequential
    #: crawl (float addition is not associative)
    events: list[tuple[str, float]]
    #: endpoint -> breaker snapshot at sandbox end (timestamps are
    #: app-frame, so they transplant verbatim)
    breakers: dict[str, dict]
    #: faulty-transport bookkeeping produced by this app's crawl
    call_index: list[tuple[str, str, int]] = field(default_factory=list)
    vanished: list[str] = field(default_factory=list)
    #: the install visit consumed one client-ID rotation draw
    drew_install: bool = False


def speculation_to_jsonable(speculation: Speculation) -> dict[str, Any]:
    """A lossless, JSON-serialisable image of one :class:`Speculation`.

    This is the wire/journal format of the multi-process supervisor
    (:mod:`repro.crawler.supervisor`): worker processes persist each
    speculation to their per-shard journal as canonical JSON, and the
    parent decodes them back for the commit phase.  Floats survive a
    ``json`` round trip exactly (repr-based encoding), so a decoded
    speculation commits bit-identically to the in-process original.
    """
    from repro.crawler.checkpoint import record_to_jsonable

    return {
        "app_id": speculation.app_id,
        "record": record_to_jsonable(speculation.record),
        "counters": speculation.counters,
        "events": [[kind, seconds] for kind, seconds in speculation.events],
        "breakers": speculation.breakers,
        "call_index": [list(entry) for entry in speculation.call_index],
        "vanished": list(speculation.vanished),
        "drew_install": bool(speculation.drew_install),
    }


def speculation_from_jsonable(data: dict[str, Any]) -> Speculation:
    """The inverse of :func:`speculation_to_jsonable`."""
    from repro.crawler.checkpoint import record_from_jsonable

    return Speculation(
        app_id=data["app_id"],
        record=record_from_jsonable(data["record"]),
        counters=data["counters"],
        events=[(kind, float(seconds)) for kind, seconds in data["events"]],
        breakers=data["breakers"],
        call_index=[
            (endpoint, app_id, int(count))
            for endpoint, app_id, count in data["call_index"]
        ],
        vanished=list(data["vanished"]),
        drew_install=bool(data["drew_install"]),
    )


class CrawlScheduler:
    """Batch-parallel ``crawl_many`` with a sequential-equivalence contract.

    ``workers=1`` delegates to :meth:`AppCrawler.crawl_many` unchanged;
    ``workers>=2`` runs the speculate-then-commit protocol described in
    the module docstring.  Either way the returned records — and every
    observable side effect on the crawler (transport stats, breakers,
    installer RNG position, journal contents) — are byte-identical.
    """

    def __init__(self, crawler: AppCrawler, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._crawler = crawler
        self.workers = workers
        #: commit-phase accounting: how many speculations were reusable
        self.committed_speculative = 0
        self.recrawled_inline = 0

    # -- sandbox construction ----------------------------------------------

    def _sandbox(self) -> tuple[AppCrawler, _SpeculativeInstaller]:
        """A fresh single-app sandbox crawler (private clock/breakers)."""
        world = self._crawler._world
        real = self._crawler.transport
        installer = _SpeculativeInstaller(world.registry, world.installer)
        stats = TransportStats(event_log=[])
        if isinstance(real, FaultyTransport):
            transport: DirectTransport | FaultyTransport = FaultyTransport(
                world.graph_api, installer, real.plan, stats=stats
            )
            # A pending app can already be vanished (it vanished in a
            # journaled run segment that crashed before its append);
            # the sandbox must see the same tombstones.
            transport.seed_vanished(real.vanished_apps())
        else:
            transport = DirectTransport(
                world.graph_api,
                installer,
                stats=stats,
                base_latency_s=real._base_latency_s,
            )
        sandbox = AppCrawler(
            world, transport=transport, retry_policy=self._crawler._policy
        )
        # Fresh breakers, but with the *real* crawler's tuning: the
        # sandbox assumes the real breakers' pristine state, and a
        # pristine breaker is defined by its thresholds too.
        for endpoint, breaker in self._crawler.executor.breakers.items():
            sandbox.executor.breakers[endpoint] = CircuitBreaker(
                failure_threshold=breaker.failure_threshold,
                cooldown_s=breaker.cooldown_s,
            )
        return sandbox, installer

    def speculate(self, app_id: str) -> Speculation:
        """Crawl *app_id* in a fresh sandbox; return its state delta.

        Pure per-app work: consumes none of the real crawler's state,
        so it can run on any thread — or, via the supervisor, in any
        OS process — and commit later in canonical order.
        """
        sandbox, installer = self._sandbox()
        record = sandbox.crawl_app(app_id)
        transport = sandbox.transport
        call_index: list[tuple[str, str, int]] = []
        vanished: list[str] = []
        if isinstance(transport, FaultyTransport):
            call_index = transport.call_index_items()
            vanished = sorted(transport.vanished_apps())
        return Speculation(
            app_id=app_id,
            record=record,
            counters=transport.stats.snapshot(),
            events=list(transport.stats.event_log or []),
            breakers=sandbox.executor.snapshot_breakers(),
            call_index=call_index,
            vanished=vanished,
            drew_install=installer.drew,
        )

    # -- the commit phase ---------------------------------------------------

    def _valid(self, speculation: Speculation) -> bool:
        """Does the real state match what the sandbox assumed?

        The sandbox assumed pristine breakers; everything else it
        depends on is either app-local (fault draws, jitter, call
        indexes, its own vanished tombstone) or handled by the deferred
        installer draw.
        """
        del speculation  # the predicate is the same for every app
        return all(
            _pristine(snapshot)
            for snapshot in self._crawler.executor.snapshot_breakers().values()
        )

    def _commit(self, speculation: Speculation) -> CrawlRecord:
        """Merge a valid speculation into the real crawler state.

        Mirrors exactly what a sequential ``crawl_app`` would have done
        at this point: open a new app frame (rolling the previous app's
        frame, as ``crawl_app`` does on entry), replay the sandbox's
        clock increments one by one, merge the exact tallies, perform
        the deferred installer draw in canonical stream order, and
        transplant the sandbox's end-of-app breaker states (their
        timestamps are app-frame, hence base-independent).
        """
        crawler = self._crawler
        record = speculation.record
        crawler.executor.begin_app()
        if speculation.drew_install:
            # Perform the deferred client-ID rotation draw now, in
            # canonical order, from the shared installer stream.  The
            # sandbox verified the app is present and crawlable at the
            # install day, so this cannot raise.
            prompt = crawler._world.installer.visit_install_url(
                record.app_id, day=crawler._world.schedule.inst_crawl_day
            )
            record.observed_client_id = prompt.client_id
            record.permissions = prompt.permissions
            record.redirect_uri = prompt.redirect_uri
        crawler.stats.apply_events(speculation.events)
        crawler.stats.merge_counters(speculation.counters)
        transport = crawler.transport
        if isinstance(transport, FaultyTransport):
            transport.absorb_call_indexes(speculation.call_index)
            transport.seed_vanished(speculation.vanished)
        for endpoint, snapshot in speculation.breakers.items():
            breaker = crawler.executor.breaker(endpoint)
            if snapshot["opened_at"] == 0.0:
                # The sandbox breaker never opened (an open instant of
                # exactly 0.0 is impossible — a failure costs service
                # time first), so the sequential loop would have left
                # the real breaker's stale timestamp untouched.  It is
                # dead state, but checkpoints snapshot it bit for bit.
                snapshot = dict(snapshot)
                snapshot["opened_at"] = breaker.snapshot()["opened_at"]
            breaker.restore(snapshot)
        return record

    # -- the public API -----------------------------------------------------

    def crawl(
        self,
        app_ids: list[str] | set[str],
        journal: "CrawlJournal | None" = None,
        crash_plan: "object | None" = None,
    ) -> dict[str, CrawlRecord]:
        """Crawl *app_ids*; byte-identical to ``crawl_many`` at any width.

        Crash injection (*crash_plan*) targets the sequential loop's
        journaling windows, so it forces ``workers=1`` semantics.
        """
        if self.workers == 1 or crash_plan is not None:
            return self._crawler.crawl_many(
                app_ids, journal=journal, crash_plan=crash_plan
            )
        records, pending = self._crawler.journal_prologue(app_ids, journal)
        if not pending:
            return records
        width = clamp_width(self.workers, len(pending))
        speculations: dict[str, Speculation] = {}
        lock = threading.Lock()

        def run_partition(shard: list[str]) -> None:
            for app_id in shard:
                speculation = self.speculate(app_id)
                with lock:
                    speculations[app_id] = speculation

        shards = [pending[w::width] for w in range(width)]
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            for future in [pool.submit(run_partition, s) for s in shards]:
                future.result()

        return self.commit_all(
            pending, speculations, journal, records, width=width
        )

    def commit_all(
        self,
        pending: list[str],
        speculations: dict[str, Speculation],
        journal: "CrawlJournal | None",
        records: dict[str, CrawlRecord],
        *,
        width: int,
    ) -> dict[str, CrawlRecord]:
        """Commit *speculations* over *pending* in canonical order.

        The single sequential phase shared by the thread scheduler and
        the multi-process supervisor.  Apps whose speculation is missing
        (a worker died before producing it and every recovery rung was
        exhausted) or invalid (a previous app left a breaker
        non-pristine) are crawled inline against the true state — the
        graceful degradation to the sequential crawl that preserves
        byte-identical output no matter how the speculations were made.
        """
        obs = get_observer()
        for app_id in pending:
            speculation = speculations.get(app_id)
            if speculation is not None and self._valid(speculation):
                record = self._commit(speculation)
                self.committed_speculative += 1
                mode = "speculative"
            else:
                # Either no speculation survived for this app, or a
                # previous app left a breaker non-pristine so the
                # speculation's premise is wrong.  Crawl inline (exact,
                # just not parallel) and let later apps re-validate.
                # The inline crawl also re-records the app's trace
                # root, so — last recording wins — the surviving span
                # is the one whose record was committed, as in a
                # sequential run.
                record = self._crawler.crawl_app(app_id)
                self.recrawled_inline += 1
                mode = "inline"
            if obs.enabled:
                obs.event(
                    "schedule.commit",
                    t=self._crawler.stats.elapsed_s,
                    category="schedule",
                    app_id=app_id,
                    mode=mode,
                    workers=width,
                )
                obs.count("schedule_commits_total", mode=mode)
            if journal is not None:
                journal.append(record, self._crawler)
            records[app_id] = record
        if obs.enabled:
            obs.gauge(
                "schedule_committed_speculative",
                float(self.committed_speculative),
            )
            obs.gauge("schedule_recrawled_inline", float(self.recrawled_inline))
        return records
