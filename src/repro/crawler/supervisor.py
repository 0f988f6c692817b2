"""Fault-tolerant multi-process sharded crawl: the shard supervisor.

At paper scale (111K apps, a nine-month crawl window) the crawl must
run across OS processes for hours — which makes worker crashes, hangs,
and partial shard failures the *normal* case.  PR 2 made a single
process crash-safe (the checkpoint WAL), PR 4 made threads
deterministic (speculate-then-commit); this module makes the death of
an entire worker **process** a recoverable, determinism-preserving
event.

Architecture
------------
A parent :class:`ShardSupervisor` partitions the pending app IDs into
``processes`` shards (``pending[i::N]``, the same partition the thread
scheduler uses) and forks one worker process per shard.  Each worker
runs the *speculate* phase of :class:`~repro.crawler.scheduler
.CrawlScheduler` over its shard — pure per-app sandbox crawls, no
shared state — and appends every finished speculation to a private
per-shard :class:`ShardJournal` (the PR 2 WAL line format:
sha256-per-line checksummed JSONL, fsync per append).  After each app
the worker sends a heartbeat over its result pipe carrying its
simulated-clock progress; the parent multiplexes all pipes with
``multiprocessing.connection.wait``.

Failure taxonomy and the recovery ladder
----------------------------------------
The supervisor distinguishes four ways a worker dies:

* **SIGKILL / signal death** — the pipe hits EOF, ``exitcode < 0``;
* **nonzero exit** — EOF with ``exitcode > 0`` (internal error, chaos);
* **torn journal** — the final shard-journal line fails its checksum
  (the worker died mid-append); the line is quarantined to a
  counter-suffixed ``.corrupt`` sidecar, never silently dropped;
* **heartbeat silence** — the pipe stays open but no message arrives
  within ``heartbeat_timeout_s`` of wall clock (a hung worker); the
  supervisor SIGKILLs it and treats it as a signal death.

Recovery descends a bounded ladder:

1. **Restart with backoff** — respawn the shard's worker (same shard
   journal; it resumes after the last valid entry), at most
   ``max_restarts`` times per shard.
2. **Reassign** — a shard whose restart budget is exhausted donates its
   *remaining* apps to a single reassignment wave of fresh workers
   (only if the main wave produced at least one surviving shard).
3. **Inline fallback** — apps that still have no speculation when both
   rungs are spent are simply absent from the commit phase's
   speculation map, and :meth:`CrawlScheduler.commit_all` crawls them
   inline, sequentially, against the true state.

Why the output is byte-identical anyway
---------------------------------------
A speculation is a pure function of ``(app, world, fault plan)`` — no
worker death can corrupt one that was durably journaled, and a dead
worker's unfinished apps are re-speculated (or inline-crawled)
identically.  The *commit* phase is exactly the thread scheduler's:
sequential, canonical (sorted) order, replaying each sandbox's clock
increments one by one against the real crawler.  Speculations round-
trip through the shard journal losslessly (``json`` floats are
repr-exact), so the committed records, transport stats, breaker
trajectories, and export bytes are identical to the sequential crawl
no matter how many workers died, hung, or were killed — the property
the chaos tests (``tests/test_supervisor.py``) assert bit for bit.

Hang detection uses *wall* clock — the only clock a hung worker cannot
stall — which is safe precisely because recovery never changes output,
only wasted work: a false-positive kill of a slow-but-alive worker
costs a re-speculation, not determinism.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.crawler.checkpoint import _decode_line, _encode_line
from repro.crawler.scheduler import (
    CrawlScheduler,
    clamp_width,
    speculation_from_jsonable,
    speculation_to_jsonable,
)
from repro.obs.observer import get_observer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crawler.checkpoint import CrawlJournal
    from repro.crawler.crawler import AppCrawler, CrawlRecord
    from repro.crawler.scheduler import Speculation

__all__ = [
    "CHAOS_ENV",
    "CHAOS_MODES",
    "KILL",
    "HANG",
    "EXIT",
    "TORN",
    "WorkerChaos",
    "ShardJournal",
    "ShardSupervisor",
]

logger = logging.getLogger(__name__)

#: environment variable carrying a chaos spec (``mode:shard:app[:persistent]``)
#: so pipeline-level runs (CLI, CI) can inject worker faults without code
CHAOS_ENV = "REPRO_SUPERVISOR_CHAOS"

#: die by SIGKILL before speculating the target app
KILL = "kill"
#: stop heartbeating and spin forever (caught by the heartbeat deadline)
HANG = "hang"
#: exit with a nonzero status before speculating the target app
EXIT = "exit"
#: write a torn (prefix-only) journal line for the target app, then die
TORN = "torn"

CHAOS_MODES = (KILL, HANG, EXIT, TORN)

#: chaos shard wildcard: the fault targets every worker
ALL_SHARDS = -1


@dataclass(frozen=True)
class WorkerChaos:
    """Deterministic worker-fault injection for the supervisor.

    Targets the ``app_index``-th *freshly speculated* app of shard
    ``shard`` (``ALL_SHARDS``/-1 hits every worker).  By default a
    fault fires only on a worker's first incarnation, so the respawned
    replacement proceeds cleanly — the common chaos-test shape.  With
    ``persistent=True`` it fires on *every* incarnation, which is how
    tests exhaust the restart budget and drive the reassignment and
    inline-fallback rungs.
    """

    mode: str
    shard: int
    app_index: int = 0
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r}; one of {CHAOS_MODES}"
            )
        if self.app_index < 0:
            raise ValueError(f"app_index must be >= 0, got {self.app_index}")

    @classmethod
    def from_env(cls) -> "WorkerChaos | None":
        """Parse :data:`CHAOS_ENV` (``mode:shard:app[:persistent]``).

        ``shard`` may be ``*`` for every worker.  Returns ``None`` when
        the variable is unset or empty; raises on a malformed spec —
        a chaos run that silently injects nothing would pass CI while
        testing nothing.
        """
        raw = os.environ.get(CHAOS_ENV, "").strip()
        if not raw:
            return None
        parts = raw.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"{CHAOS_ENV}={raw!r}: expected mode:shard:app[:persistent]"
            )
        shard = ALL_SHARDS if parts[1] == "*" else int(parts[1])
        persistent = len(parts) == 4 and parts[3] == "persistent"
        return cls(
            mode=parts[0],
            shard=shard,
            app_index=int(parts[2]),
            persistent=persistent,
        )

    def due(self, shard: int, incarnation: int, app_index: int) -> bool:
        """Should the fault fire at this point of this worker's life?"""
        if self.shard != ALL_SHARDS and self.shard != shard:
            return False
        if incarnation > 0 and not self.persistent:
            return False
        return app_index == self.app_index


class ShardJournal:
    """A worker's append-only speculation WAL, one checksummed line per app.

    Reuses the checkpoint journal's line format (sha256 digest + tab +
    canonical JSON body) so every entry is self-validating.  Opening a
    journal *recovers* it first: any line that fails validation —
    including a torn final line, which for a shard journal is direct
    evidence of a worker death mid-append — is quarantined to a
    counter-suffixed ``.corrupt`` sidecar (never overwritten, never
    silently dropped) and the file is rewritten to exactly the
    surviving lines.  A respawned worker therefore resumes precisely
    after the last *valid* entry.
    """

    def __init__(self, path: str | Path, for_append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: app_id -> speculation jsonable, in append order
        self._payloads: dict[str, dict] = {}
        #: sidecar paths written by this open's recovery (if any)
        self.quarantined: tuple[Path, ...] = ()
        self._recover()
        self._fh = open(self.path, "ab") if for_append else None

    def _recover(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw:
            return
        pieces = [piece for piece in raw.split(b"\n") if piece]
        good: list[bytes] = []
        bad: list[bytes] = []
        for piece in pieces:
            payload = _decode_line(piece)
            if payload is None:
                bad.append(piece)
            else:
                good.append(piece)
                self._payloads[payload["app_id"]] = payload["speculation"]
        if not bad:
            return
        from repro.crawler.checkpoint import next_sidecar_path

        sidecar = next_sidecar_path(self.path)
        with open(sidecar, "wb") as handle:
            for piece in bad:
                handle.write(piece + b"\n")
        self.quarantined = (sidecar,)
        # Rewrite to the surviving lines so the damage is absorbed once.
        from repro.crawler.checkpoint import atomic_write

        atomic_write(self.path, b"".join(piece + b"\n" for piece in good))
        logger.warning(
            "quarantined %d invalid line(s) of shard journal %s to %s "
            "(worker died mid-append); their apps will be re-speculated",
            len(bad), self.path, sidecar,
        )

    def __len__(self) -> int:
        return len(self._payloads)

    def app_ids(self) -> set[str]:
        """Apps whose speculations are durable in this journal."""
        return set(self._payloads)

    def speculations(self) -> dict[str, "Speculation"]:
        """Decode every durable speculation (append order preserved)."""
        return {
            app_id: speculation_from_jsonable(payload)
            for app_id, payload in self._payloads.items()
        }

    def append(self, speculation: "Speculation", tear: bool = False) -> None:
        """Make one speculation durable (written + flushed + fsynced).

        ``tear`` simulates a death in the write window: a prefix of the
        line is written and flushed, exactly the artifact recovery must
        quarantine.  The caller (chaos-mode worker) dies right after.
        """
        if self._fh is None:
            raise RuntimeError("journal opened read-only")
        payload = {
            "app_id": speculation.app_id,
            "speculation": speculation_to_jsonable(speculation),
        }
        line = _encode_line(payload)
        if tear:
            self._fh.write(line[: max(1, 2 * len(line) // 3)])
            self._fh.flush()
            return
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._payloads[speculation.app_id] = payload["speculation"]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _shard_worker(
    crawler: "AppCrawler",
    shard: int,
    app_ids: list[str],
    journal_path: str,
    conn: Any,
    chaos: WorkerChaos | None,
    incarnation: int,
) -> None:
    """Worker entry point: speculate one shard, journal + heartbeat each app.

    Runs in a forked child, so *crawler* is the parent's crawler as of
    the fork — including any state restored from the main checkpoint —
    inherited copy-on-write; nothing the worker does is visible to the
    parent except the shard journal and the pipe.  Resumes by skipping
    apps already durable in the shard journal (the parent recovered it
    before respawning, so every entry present is valid).
    """
    scheduler = CrawlScheduler(crawler, workers=1)
    journal = ShardJournal(journal_path, for_append=True)
    done = journal.app_ids()
    sim_s = 0.0
    fresh = 0
    try:
        for app_id in app_ids:
            if app_id in done:
                continue
            if chaos is not None and chaos.due(shard, incarnation, fresh):
                if chaos.mode == KILL:
                    os.kill(os.getpid(), signal.SIGKILL)
                elif chaos.mode == HANG:
                    while True:  # silence: no heartbeat ever again
                        time.sleep(0.05)
                elif chaos.mode == EXIT:
                    os._exit(3)
                elif chaos.mode == TORN:
                    journal.append(scheduler.speculate(app_id), tear=True)
                    os._exit(4)
            speculation = scheduler.speculate(app_id)
            journal.append(speculation)
            fresh += 1
            counters = speculation.counters
            sim_s += float(counters.get("service_s", 0.0))
            sim_s += float(counters.get("wait_s", 0.0))
            conn.send(
                {
                    "type": "heartbeat",
                    "shard": shard,
                    "incarnation": incarnation,
                    "app_id": app_id,
                    "fresh": fresh,
                    "sim_s": sim_s,
                }
            )
        conn.send({"type": "done", "shard": shard, "fresh": fresh})
    except Exception as err:  # noqa: BLE001 - reported, then die nonzero
        try:
            conn.send(
                {"type": "error", "shard": shard, "message": repr(err)}
            )
        except OSError:  # pragma: no cover - parent already gone
            pass
        journal.close()
        os._exit(1)
    finally:
        journal.close()
        conn.close()


@dataclass
class _Slot:
    """One shard's worker seat: apps, journal, restart budget, liveness."""

    index: int
    apps: list[str]
    journal_path: Path
    restarts_left: int
    incarnation: int = 0
    proc: Any = None
    conn: Any = None
    last_seen: float = 0.0
    done: bool = False
    failed: bool = False
    errors: list[str] = field(default_factory=list)


class ShardSupervisor:
    """Parent of the multi-process crawl: spawn, watch, recover, commit.

    ``crawl()`` is the multi-process analogue of
    :meth:`CrawlScheduler.crawl` with the same contract: output
    byte-identical to the sequential ``crawl_many`` — records, stats,
    breakers, journal, export bytes — at any process count and under
    any worker-death pattern the recovery ladder can absorb (which is
    all of them, because the last rung is the sequential crawl itself).
    """

    def __init__(
        self,
        crawler: "AppCrawler",
        processes: int = 2,
        heartbeat_timeout_s: float = 30.0,
        max_restarts: int = 2,
        restart_backoff_s: float = 0.05,
        chaos: WorkerChaos | None = None,
        shard_dir: str | Path | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {heartbeat_timeout_s}"
            )
        self._crawler = crawler
        self.processes = processes
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.chaos = chaos if chaos is not None else WorkerChaos.from_env()
        self._shard_dir = Path(shard_dir) if shard_dir is not None else None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        #: commit-phase accounting (mirrors CrawlScheduler)
        self.committed_speculative = 0
        self.recrawled_inline = 0
        #: recovery accounting, for tests and the supervisor trace
        self.restarts = 0
        self.reassigned_apps = 0
        self.heartbeat_gaps = 0
        self.worker_deaths = 0
        self._sim_clock = 0.0

    # -- shard journal placement ------------------------------------------

    def shard_directory(self, journal: "CrawlJournal | None") -> Path:
        """Where per-shard journals live (kept when checkpointing).

        With a main checkpoint journal, shard journals go in a
        ``shards/`` subdirectory of it — durable across supervisor
        restarts and uploadable as CI artifacts.  Without one, a
        temporary directory is used and cleaned up with the supervisor.
        """
        if self._shard_dir is not None:
            self._shard_dir.mkdir(parents=True, exist_ok=True)
            return self._shard_dir
        if journal is not None:
            self._shard_dir = journal.directory / "shards"
            self._shard_dir.mkdir(parents=True, exist_ok=True)
            return self._shard_dir
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
        self._shard_dir = Path(self._tmpdir.name)
        return self._shard_dir

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        ctx = multiprocessing.get_context("fork")
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_shard_worker,
            args=(
                self._crawler,
                slot.index,
                slot.apps,
                str(slot.journal_path),
                send_conn,
                self.chaos,
                slot.incarnation,
            ),
            daemon=True,
            name=f"repro-shard-{slot.index}-r{slot.incarnation}",
        )
        proc.start()
        # Close the parent's copy of the send end: the worker's death
        # then surfaces as EOF on recv_conn, with no heartbeat needed.
        send_conn.close()
        slot.proc = proc
        slot.conn = recv_conn
        slot.last_seen = time.monotonic()
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "supervisor.spawn",
                t=self._sim_clock,
                category="supervisor",
                shard=slot.index,
                incarnation=slot.incarnation,
                apps=len(slot.apps),
            )
            obs.count("supervisor_spawns_total")

    def _reap(self, slot: _Slot) -> int | None:
        """Join a finished/killed worker; return its exit code."""
        if slot.proc is None:
            return None
        slot.proc.join(timeout=5.0)
        code = slot.proc.exitcode
        if slot.conn is not None:
            slot.conn.close()
            slot.conn = None
        slot.proc = None
        return code

    def _on_death(self, slot: _Slot, reason: str, exitcode: int | None) -> None:
        """A worker died (kill/exit/hang): recover its journal, climb a rung."""
        self.worker_deaths += 1
        obs = get_observer()
        # Recover the shard journal now: quarantine any torn tail so
        # the respawn (or the final read) resumes from valid entries.
        recovered = ShardJournal(slot.journal_path)
        durable = len(recovered)
        obs_fields = {
            "shard": slot.index,
            "incarnation": slot.incarnation,
            "reason": reason,
            "exitcode": exitcode,
            "durable": durable,
            "quarantined": len(recovered.quarantined),
        }
        logger.warning(
            "shard %d worker died (%s, exitcode=%s): %d/%d apps durable, "
            "%d restart(s) left",
            slot.index, reason, exitcode, durable, len(slot.apps),
            slot.restarts_left,
        )
        if obs.enabled:
            obs.event(
                "supervisor.worker_death",
                t=self._sim_clock,
                category="supervisor",
                **obs_fields,
            )
            obs.count("supervisor_worker_deaths_total", reason=reason)
        if slot.restarts_left > 0:
            backoff = self.restart_backoff_s * (
                2 ** (self.max_restarts - slot.restarts_left)
            )
            if backoff > 0:
                time.sleep(backoff)
            slot.restarts_left -= 1
            slot.incarnation += 1
            self.restarts += 1
            if obs.enabled:
                obs.event(
                    "supervisor.restart",
                    t=self._sim_clock,
                    category="supervisor",
                    shard=slot.index,
                    incarnation=slot.incarnation,
                )
                obs.count("supervisor_restarts_total")
            self._spawn(slot)
        else:
            slot.failed = True
            logger.error(
                "shard %d restart budget exhausted; its remaining apps "
                "will be reassigned or crawled inline", slot.index,
            )

    def _on_message(self, slot: _Slot, message: dict) -> None:
        kind = message.get("type")
        if kind == "heartbeat":
            self._sim_clock = max(self._sim_clock, float(message["sim_s"]))
            obs = get_observer()
            if obs.enabled:
                obs.count("supervisor_heartbeats_total")
        elif kind == "done":
            slot.done = True
            self._reap(slot)
        elif kind == "error":
            slot.errors.append(str(message.get("message", "")))
            logger.warning(
                "shard %d worker error: %s", slot.index, message.get("message")
            )

    def _run_wave(self, slots: list[_Slot]) -> None:
        """Spawn *slots* and babysit them until each is done or failed."""
        for slot in slots:
            self._spawn(slot)
        poll_s = min(0.05, self.heartbeat_timeout_s / 4)
        while True:
            running = [s for s in slots if not s.done and not s.failed]
            if not running:
                return
            conn_map = {s.conn: s for s in running if s.conn is not None}
            if not conn_map:  # pragma: no cover - defensive
                return
            ready = connection_wait(list(conn_map), timeout=poll_s)
            now = time.monotonic()
            for conn in ready:
                slot = conn_map[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    exitcode = self._reap(slot)
                    if not slot.done:
                        reason = (
                            "signal" if exitcode is not None and exitcode < 0
                            else "exit"
                        )
                        self._on_death(slot, reason, exitcode)
                    continue
                slot.last_seen = now
                self._on_message(slot, message)
            for slot in running:
                if slot.done or slot.failed or slot.proc is None:
                    continue
                if now - slot.last_seen > self.heartbeat_timeout_s:
                    # Hung (or starving) worker: wall-clock silence past
                    # the deadline.  Kill it; determinism is unaffected
                    # because recovery resumes from the shard journal.
                    self.heartbeat_gaps += 1
                    obs = get_observer()
                    if obs.enabled:
                        obs.event(
                            "supervisor.heartbeat_gap",
                            t=self._sim_clock,
                            category="supervisor",
                            shard=slot.index,
                            silence_s=now - slot.last_seen,
                        )
                        obs.count("supervisor_heartbeat_gaps_total")
                    if slot.proc.is_alive():
                        slot.proc.kill()
                    exitcode = self._reap(slot)
                    self._on_death(slot, "hang", exitcode)

    # -- the public API -----------------------------------------------------

    def crawl(
        self,
        app_ids: list[str] | set[str],
        journal: "CrawlJournal | None" = None,
    ) -> "dict[str, CrawlRecord]":
        """Crawl *app_ids* across processes; byte-identical to sequential."""
        if "fork" not in multiprocessing.get_all_start_methods():
            # Non-forking platform: same contract, threads instead of
            # processes (the supervisor's recovery ladder is moot when
            # no worker can be killed by the OS independently).
            logger.warning(
                "fork start method unavailable; falling back to the "
                "in-process thread scheduler at width %d", self.processes,
            )
            return CrawlScheduler(self._crawler, workers=self.processes).crawl(
                app_ids, journal=journal
            )
        records, pending = self._crawler.journal_prologue(app_ids, journal)
        if not pending:
            return records
        width = clamp_width(self.processes, len(pending), what="processes")
        if width == 1:
            # One process is the sequential loop itself; forking would
            # only add a copy.  (Chaos targets are meaningless here.)
            for app_id in pending:
                record = self._crawler.crawl_app(app_id)
                if journal is not None:
                    journal.append(record, self._crawler)
                records[app_id] = record
            return records

        shard_dir = self.shard_directory(journal)
        slots = [
            _Slot(
                index=i,
                apps=pending[i::width],
                journal_path=shard_dir / f"shard{i}.jsonl",
                restarts_left=self.max_restarts,
            )
            for i in range(width)
        ]
        try:
            self._run_wave(slots)

            # Rung 2: reassign the remaining apps of exhausted shards to
            # a fresh wave — but only when the main wave proved workers
            # can survive here at all (otherwise go straight to rung 3).
            failed = [s for s in slots if s.failed]
            survivors = len(slots) - len(failed)
            orphans: list[str] = []
            for slot in failed:
                durable = ShardJournal(slot.journal_path).app_ids()
                orphans.extend(a for a in slot.apps if a not in durable)
            if orphans and survivors > 0:
                self.reassigned_apps += len(orphans)
                obs = get_observer()
                if obs.enabled:
                    obs.event(
                        "supervisor.reassign",
                        t=self._sim_clock,
                        category="supervisor",
                        apps=len(orphans),
                        lanes=min(survivors, len(orphans)),
                    )
                    obs.count(
                        "supervisor_reassigned_apps_total",
                        delta=len(orphans),
                    )
                lanes = min(survivors, len(orphans))
                rescue = [
                    _Slot(
                        index=width + k,
                        apps=orphans[k::lanes],
                        journal_path=shard_dir / f"reassign{k}.jsonl",
                        restarts_left=self.max_restarts,
                    )
                    for k in range(lanes)
                ]
                self._run_wave(rescue)
                slots = slots + rescue

            # Gather every durable speculation (recovering each journal
            # once more is idempotent) and commit in canonical order.
            # Rung 3 is implicit: apps with no surviving speculation are
            # crawled inline by commit_all.
            speculations: dict[str, Speculation] = {}
            for slot in slots:
                shard_journal = ShardJournal(slot.journal_path)
                speculations.update(shard_journal.speculations())
            scheduler = CrawlScheduler(self._crawler, workers=1)
            result = scheduler.commit_all(
                pending, speculations, journal, records, width=width
            )
            self.committed_speculative = scheduler.committed_speculative
            self.recrawled_inline = scheduler.recrawled_inline
            obs = get_observer()
            if obs.enabled:
                obs.gauge("supervisor_restarts", float(self.restarts))
                obs.gauge(
                    "supervisor_reassigned_apps", float(self.reassigned_apps)
                )
                obs.gauge(
                    "supervisor_inline_fallback",
                    float(self.recrawled_inline),
                )
            return result
        finally:
            for slot in slots:
                if slot.proc is not None and slot.proc.is_alive():
                    slot.proc.kill()
                self._reap(slot)
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
                self._tmpdir = None
