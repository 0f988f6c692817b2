"""Crash-safe crawl persistence: write-ahead journal, snapshots, resume.

The paper's dataset is the product of a nine-month continuously running
crawl — a process that inevitably died and restarted many times.  PR 1
made the crawler survive the *network* failing; this module makes it
survive the *process* failing:

* :func:`atomic_write` — the shared all-or-nothing file write (tmp file
  + fsync + ``os.replace``) every persistent artifact goes through,
* :class:`CrawlJournal` — an append-only JSONL write-ahead log.  Each
  completed :class:`~repro.crawler.crawler.CrawlRecord` is one
  self-delimiting, per-line-checksummed entry carrying the full record
  *and* the delta of the transport/executor state since the previous
  line (:meth:`AppCrawler.delta_state
  <repro.crawler.crawler.AppCrawler.delta_state>`): the call counters
  and vanished apps that changed, the small scalars whole.  Folding the
  lines in order rebuilds the state needed to continue the crawl
  deterministically, so a line costs the same at the ten-thousandth app
  as at the first.  Once the journal has outgrown its last snapshot it
  compacts into a single checksummed snapshot file holding the full
  state,
* :class:`CrashPlan` / :exc:`SimulatedCrash` — seeded crash injection
  at configurable points inside the crawl loop, including *between*
  journal write and flush (the torn-write window).

Durability contract
-------------------
An app is **durable** once ``CrawlJournal.append`` returns: its journal
line has been written, flushed, and ``fsync``\\ ed, so a process kill or
OS crash after that point cannot lose it (subject to the device
honouring fsync).  A crash *before* that point loses at most the app
being crawled; :meth:`AppCrawler.crawl_many
<repro.crawler.crawler.AppCrawler.crawl_many>` re-crawls it on resume
from journaled state, making the resumed run byte-identical to an
uninterrupted one.

Corruption policy
-----------------
A torn *final* journal line is the expected crash artifact and is
silently truncated.  A checksum-mismatched *interior* line is moved to
a ``.corrupt`` sidecar with a warning and its app is re-crawled — never
a crash, never silent acceptance.
"""

from __future__ import annotations

import json
import hashlib
import logging
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.crawler.crawler import COLLECTIONS, AppCrawler, CrawlRecord
from repro.crawler.resilience import CrawlOutcome
from repro.obs.observer import get_observer
from repro.rng import derive_seed

__all__ = [
    "atomic_write",
    "next_sidecar_path",
    "SimulatedCrash",
    "CrashPlan",
    "CrawlJournal",
    "BEFORE_APP",
    "AFTER_CRAWL",
    "MID_APPEND",
    "AFTER_APPEND",
    "CRASH_POINTS",
    "record_to_jsonable",
    "record_from_jsonable",
]

logger = logging.getLogger(__name__)


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Write *data* to *path* all-or-nothing.

    The data goes to a temporary file in the same directory, is flushed
    and ``fsync``\\ ed, and only then renamed over *path* with
    ``os.replace`` — so readers (and crash recovery) see either the old
    complete file or the new complete file, never a torn mixture.  The
    directory entry is fsynced best-effort afterwards.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:  # directory fsync makes the rename itself durable (best-effort)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return path


def next_sidecar_path(path: str | Path) -> Path:
    """The first unused quarantine sidecar name for *path*.

    ``X.corrupt``, then ``X.corrupt.1``, ``X.corrupt.2``, … — each
    quarantine event gets its own sidecar, so interrupting and resuming
    a crawl repeatedly can never overwrite (or silently interleave
    with) the evidence of an earlier corruption.
    """
    path = Path(path)
    candidate = path.with_name(path.name + ".corrupt")
    counter = 0
    while candidate.exists():
        counter += 1
        candidate = path.with_name(f"{path.name}.corrupt.{counter}")
    return candidate


# -- crash injection --------------------------------------------------------


class SimulatedCrash(BaseException):
    """The process 'dies' here: an injected crash inside the crawl loop.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    no ordinary ``except Exception`` recovery path can accidentally
    swallow a simulated process death — the whole point is that nothing
    between the crash point and the journal gets a chance to clean up.
    """


#: crash before the app's crawl starts (nothing observed yet)
BEFORE_APP = "before_app"
#: crash after the crawl, before anything reaches the journal
AFTER_CRAWL = "after_crawl"
#: crash between journal write and flush — leaves a torn final line
MID_APPEND = "mid_append"
#: crash right after the record became durable
AFTER_APPEND = "after_append"

CRASH_POINTS = (BEFORE_APP, AFTER_CRAWL, MID_APPEND, AFTER_APPEND)


@dataclass
class CrashPlan:
    """Raise :exc:`SimulatedCrash` at one configurable crawl-loop point.

    ``app_index`` counts the apps *freshly crawled by this process* (the
    resume loop skips replayed apps), so a plan targets "the k-th app
    this incarnation works on".  A plan fires at most once; after the
    crash is raised, ``fired`` stays true and the plan is inert.
    """

    app_index: int
    point: str = MID_APPEND
    fired: bool = field(default=False, init=False)
    _started: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; one of {CRASH_POINTS}"
            )
        if self.app_index < 0:
            raise ValueError(f"app_index must be >= 0, got {self.app_index}")

    @classmethod
    def random(cls, seed: int, n_apps: int) -> "CrashPlan":
        """A seeded plan crashing at a random (app, point) pair."""
        rng = np.random.default_rng(derive_seed(seed, "crash-plan"))
        index = int(rng.integers(0, max(1, n_apps)))
        point = CRASH_POINTS[int(rng.integers(0, len(CRASH_POINTS)))]
        return cls(app_index=index, point=point)

    def advance(self) -> None:
        """Move to the next app slot (called once per freshly crawled app)."""
        self._started += 1

    def due(self, point: str) -> bool:
        """Would the plan crash at *point* of the current app?"""
        return (
            not self.fired
            and point == self.point
            and self._started - 1 == self.app_index
        )

    def check(self, point: str) -> None:
        """Crash here if the plan says so."""
        if self.due(point):
            self.fired = True
            raise SimulatedCrash(
                f"injected crash at {point!r} of app #{self.app_index}"
            )


# -- record (de)serialisation ----------------------------------------------
#
# Unlike the dataset export (repro.io), the journal must be *lossless*:
# resume replays these records into feature extraction, so profile posts
# are kept in full, not reduced to a count.


def record_to_jsonable(record: CrawlRecord) -> dict[str, Any]:
    """A lossless, JSON-serialisable image of one crawl record."""
    return {
        "app_id": record.app_id,
        "summary_ok": bool(record.summary_ok),
        "name": record.name,
        "description": record.description,
        "company": record.company,
        "category": record.category,
        "mau_observations": [int(v) for v in record.mau_observations],
        "feed_ok": bool(record.feed_ok),
        "profile_posts": [
            {
                "message": str(post["message"]),
                "link": post["link"],
                "created_time": int(post["created_time"]),
                "from": int(post["from"]),
            }
            for post in record.profile_posts
        ],
        "inst_ok": bool(record.inst_ok),
        "permissions": list(record.permissions),
        "observed_client_id": record.observed_client_id,
        "redirect_uri": record.redirect_uri,
        "outcomes": {
            collection: {
                "status": outcome.status,
                "attempts": int(outcome.attempts),
                "faults": list(outcome.faults),
                "elapsed_s": float(outcome.elapsed_s),
            }
            for collection, outcome in record.outcomes.items()
        },
    }


def record_from_jsonable(data: dict[str, Any]) -> CrawlRecord:
    """The inverse of :func:`record_to_jsonable`.

    Outcomes are rebuilt in crawl order (summary, feed, install): the
    journal's canonical encoding sorts object keys, but a replayed
    record must be indistinguishable from a freshly crawled one — down
    to dict iteration order, which the dataset export serialises.
    """
    stored = data.get("outcomes", {})
    ordered = [c for c in COLLECTIONS if c in stored]
    ordered += [c for c in stored if c not in COLLECTIONS]
    return CrawlRecord(
        app_id=data["app_id"],
        summary_ok=bool(data["summary_ok"]),
        name=data.get("name"),
        description=data.get("description", ""),
        company=data.get("company", ""),
        category=data.get("category", ""),
        mau_observations=[int(v) for v in data.get("mau_observations", [])],
        feed_ok=bool(data["feed_ok"]),
        profile_posts=[dict(post) for post in data.get("profile_posts", [])],
        inst_ok=bool(data["inst_ok"]),
        permissions=tuple(data.get("permissions", ())),
        observed_client_id=data.get("observed_client_id"),
        redirect_uri=data.get("redirect_uri"),
        outcomes={
            collection: CrawlOutcome(
                collection=collection,
                status=stored[collection]["status"],
                attempts=int(stored[collection]["attempts"]),
                faults=list(stored[collection]["faults"]),
                elapsed_s=float(stored[collection]["elapsed_s"]),
            )
            for collection in ordered
        },
    )


# -- line / snapshot encoding ----------------------------------------------

#: 2: lines carry a state ``delta``; 1: lines carried the full ``state``
#: (still loadable: folding a full state replaces the state)
_LINE_VERSION = 2

#: ``{"app_id":"…"`` — how every canonical line body starts (sorted keys)
_APP_ID_PREFIX = re.compile(rb'^\{"app_id":("(?:[^"\\]|\\.)*")')


def _canonical(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _encode_line(payload: dict) -> bytes:
    body = _canonical(payload)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return digest + b"\t" + body + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """Parse one journal line; ``None`` if torn or checksum-mismatched."""
    try:
        digest, body = line.split(b"\t", 1)
    except ValueError:
        return None
    if len(digest) != 64:
        return None
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or "app_id" not in payload:
        return None
    return payload


def _claimed_app(line: bytes) -> str:
    """Best-effort name of the app a quarantined journal line was for.

    The whole body if it still parses; otherwise the canonical
    ``{"app_id":"…"`` prefix every line body starts with — a flipped
    byte further along leaves the app still named.
    """
    try:
        _, body = line.split(b"\t", 1)
    except ValueError:
        return "<unidentifiable>"
    try:
        return str(json.loads(body)["app_id"])
    except (ValueError, KeyError, TypeError):  # corrupt by definition
        pass
    match = _APP_ID_PREFIX.match(body)
    if match is not None:
        try:
            return str(json.loads(match.group(1)))
        except ValueError:
            pass
    return "<unidentifiable>"


class _StateFold:
    """The crawler state a journal's lines fold to.

    The growing parts of the state — the ``(endpoint, app)`` call
    counters and the two vanished-app sets — live in mutable containers,
    so folding a line's delta costs as much as the delta; the
    :meth:`AppCrawler.snapshot_state
    <repro.crawler.crawler.AppCrawler.snapshot_state>` dict is built
    only on demand (resume, compaction).  Everything else in a line's
    state is a small scalar, and the latest line's value wins.
    """

    def __init__(self) -> None:
        #: the latest state with the growing parts taken out
        self.scalars: dict | None = None
        self.calls: dict[tuple[str, str], int] = {}
        self.vanished: set[str] = set()
        self.stats_vanished: set[str] = set()
        #: does the transport keep fault bookkeeping at all?
        self.faulty = False

    def fold(self, delta: dict, replace: bool = False) -> None:
        """Apply one line's state; ``replace`` for a full state (v1 lines)."""
        if replace:
            self.calls.clear()
            self.vanished.clear()
            self.stats_vanished.clear()
        transport = dict(delta["transport"])
        stats = dict(transport["stats"])
        self.stats_vanished.update(stats.pop("vanished", ()))
        transport["stats"] = stats
        self.faulty = "call_index" in transport
        self.vanished.update(transport.pop("vanished", ()))
        for endpoint, app_id, count in transport.pop("call_index", ()):
            self.calls[(endpoint, app_id)] = count
        self.scalars = {**delta, "transport": transport}

    def forget(self, app_ids: set[str]) -> None:
        """Drop the fault bookkeeping of *app_ids* (re-crawled from zero)."""
        self.calls = {
            key: count for key, count in self.calls.items()
            if key[1] not in app_ids
        }
        self.vanished -= app_ids

    def state(self) -> dict | None:
        if self.scalars is None:
            return None
        transport = dict(self.scalars["transport"])
        transport["stats"] = {
            **transport["stats"], "vanished": sorted(self.stats_vanished)
        }
        if self.faulty:
            transport["vanished"] = sorted(self.vanished)
            transport["call_index"] = [
                [endpoint, app_id, count]
                for (endpoint, app_id), count in sorted(self.calls.items())
            ]
        return {**self.scalars, "transport": transport}


class CrawlJournal:
    """Write-ahead log + snapshot making a crawl kill-anywhere resumable.

    One directory holds everything:

    ``journal.jsonl``
        One checksummed line per durable app: the full crawl record plus
        the crawler state *delta* since the previous line — the
        transport clock, installer RNG and breaker states whole, the
        fault-plan call counters and vanished apps only where they
        changed.  Loading folds the deltas in order onto the snapshot's
        state; :attr:`state` is then exactly what
        :meth:`AppCrawler.snapshot_state
        <repro.crawler.crawler.AppCrawler.snapshot_state>` returned
        after the last durable app.  Version-1 lines, which carried the
        full state, still load: folding a full state replaces the state.
    ``snapshot.json``
        Compaction of the journal into one checksummed file with the
        records and the full state, written atomically; the journal
        restarts empty afterwards.  It fires once ``snapshot_every``
        appends have passed *and* the journal has outgrown the last
        snapshot, so snapshots are rewritten at geometrically spaced
        sizes and total compaction work stays linear in the crawl.
    ``meta.json``
        The configuration fingerprint the journal was written under;
        resuming with a different configuration is refused loudly.
    ``journal.jsonl.corrupt`` / ``snapshot.json.corrupt``
        Quarantine sidecars for checksum-mismatched entries; repeated
        quarantines get counter-suffixed names (``….corrupt.1``, …) so
        no event overwrites another's evidence.

    ``append()`` returning *is* the durability point: line written,
    flushed, fsynced.  See the module docstring for the full contract.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"
    META_NAME = "meta.json"

    def __init__(
        self,
        directory: str | Path,
        snapshot_every: int = 64,
        resume: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        #: app_id -> jsonable record, in durability order
        self._records: dict[str, dict] = {}
        self._fold = _StateFold()
        self._since_compact = 0
        #: journal bytes since the last compaction, and that snapshot's size
        self._journal_bytes = 0
        self._snapshot_bytes = 0
        #: apps whose journal lines were quarantined at open (best-effort
        #: identification: a corrupt line may not name its app at all)
        self.quarantined: tuple[str, ...] = ()
        #: was a torn final line truncated at open?
        self.truncated_torn_line = False
        if not resume and self._has_data():
            raise FileExistsError(
                f"checkpoint directory {self.directory} already holds crawl "
                "data; pass resume=True (CLI: --resume) to continue it, or "
                "point --checkpoint at a fresh directory"
            )
        self._sweep_tmp_files()
        self._load()
        self._fh = open(self.journal_path, "ab")

    # -- paths ------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def meta_path(self) -> Path:
        return self.directory / self.META_NAME

    def _has_data(self) -> bool:
        return any(
            p.exists() and p.stat().st_size > 0
            for p in (self.journal_path, self.snapshot_path)
        )

    def _sweep_tmp_files(self) -> None:
        """Remove half-written ``*.tmp`` leftovers of interrupted writes."""
        for tmp in self.directory.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - racy cleanup
                pass

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        self._load_snapshot()
        self._load_journal()

    def _load_snapshot(self) -> None:
        path = self.snapshot_path
        if not path.exists():
            return
        raw = path.read_bytes()
        try:
            doc = json.loads(raw.decode("utf-8"))
            payload = doc["payload"]
            if hashlib.sha256(_canonical(payload)).hexdigest() != doc["sha256"]:
                raise ValueError("snapshot checksum mismatch")
            records = {e["app_id"]: e for e in payload["records"]}
            state = payload["state"]
        except (KeyError, TypeError, ValueError, UnicodeDecodeError) as err:
            corrupt = next_sidecar_path(path)
            os.replace(path, corrupt)
            logger.warning(
                "quarantined corrupt snapshot %s -> %s (%s); its apps will "
                "be re-crawled", path, corrupt, err,
            )
            return
        self._records.update(records)
        self._fold.fold(state, replace=True)
        self._snapshot_bytes = len(raw)

    def _load_journal(self) -> None:
        path = self.journal_path
        if not path.exists():
            return
        raw = path.read_bytes()
        if not raw:
            return
        pieces = raw.split(b"\n")
        tail = pieces.pop()  # b"" when the file ends with a newline
        torn = bool(tail)
        good: list[tuple[bytes, dict]] = []
        bad: list[bytes] = []
        for index, piece in enumerate(pieces):
            payload = _decode_line(piece)
            if payload is None:
                if index == len(pieces) - 1:
                    # A corrupt *final* line is the torn-write artifact
                    # of a crash mid-append: truncate it silently.
                    torn = True
                else:
                    bad.append(piece)
                continue
            good.append((piece, payload))
        for _, payload in good:
            self._records[payload["app_id"]] = payload["record"]
            if "state" in payload:  # a version-1 line: the full state
                self._fold.fold(payload["state"], replace=True)
            else:
                self._fold.fold(payload["delta"])
        self._since_compact = len(good)
        self._journal_bytes = sum(len(piece) + 1 for piece, _ in good)
        if bad:
            self._quarantine_lines(bad)
        if bad or torn:
            # Rewrite the journal to exactly the surviving lines so the
            # damage is handled once, not re-discovered on every open.
            atomic_write(path, b"".join(piece + b"\n" for piece, _ in good))
            self.truncated_torn_line = torn

    def _quarantine_lines(self, lines: list[bytes]) -> None:
        # A fresh counter-suffixed sidecar per quarantine event: resuming
        # twice must leave both corruption artifacts intact, never
        # overwrite or interleave them.
        corrupt_path = next_sidecar_path(self.journal_path)
        with open(corrupt_path, "wb") as sidecar:
            for line in lines:
                sidecar.write(line + b"\n")
        claimed = [_claimed_app(line) for line in lines]
        self.quarantined = tuple(claimed)
        # A delta line carries only its own app's fault bookkeeping, so
        # skipping it already drops that; a version-1 line's successors
        # still carry it in their full states.  Drop it either way, so
        # the re-crawl starts from call index 0, like any fresh crawl.
        known = {c for c in claimed if c != "<unidentifiable>"}
        if known:
            self._fold.forget(known)
        logger.warning(
            "quarantined %d corrupt journal line(s) in %s to sidecar "
            "%s (apps: %s); they will be re-crawled",
            len(lines), self.journal_path, corrupt_path, ", ".join(claimed),
        )

    # -- replay API --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._records

    @property
    def records(self) -> dict[str, CrawlRecord]:
        """Durable records, decoded fresh (callers may mutate them)."""
        return {
            app_id: record_from_jsonable(data)
            for app_id, data in self._records.items()
        }

    @property
    def state(self) -> dict | None:
        """The crawler state after the last durable app (``None`` if empty).

        Built fresh from the folded lines on every access.
        """
        return self._fold.state()

    # -- configuration fingerprint ----------------------------------------

    def validate_fingerprint(self, fingerprint: dict) -> None:
        """Refuse to mix crawls from different configurations.

        The first crawl stamps ``meta.json`` with its fingerprint (seed,
        scale, fault plan, retry policy); later opens must match it, or
        resuming would silently splice records from incompatible runs.
        """
        stored = None
        if self.meta_path.exists():
            try:
                stored = json.loads(
                    self.meta_path.read_text(encoding="utf-8")
                ).get("fingerprint")
            except (ValueError, UnicodeDecodeError):
                logger.warning(
                    "checkpoint meta %s is corrupt; rewriting it from the "
                    "current configuration", self.meta_path,
                )
        if stored is not None:
            if stored != fingerprint:
                raise ValueError(
                    f"checkpoint at {self.directory} was written under a "
                    f"different configuration.\n  stored:  {stored}\n"
                    f"  current: {fingerprint}\nResume with the original "
                    "settings, or start a fresh --checkpoint directory."
                )
            return
        atomic_write(
            self.meta_path,
            json.dumps(
                {"format_version": 1, "fingerprint": fingerprint},
                indent=1,
                sort_keys=True,
            ),
        )

    # -- writing -----------------------------------------------------------

    def append(
        self, record: CrawlRecord, crawler: AppCrawler, tear: bool = False
    ) -> None:
        """Make *record* durable; *crawler*'s state delta rides along.

        The line carries :meth:`AppCrawler.delta_state
        <repro.crawler.crawler.AppCrawler.delta_state>`, and the crawler
        is marked synced only once the line is durable, so a failed
        write loses no delta.  The crawler must have been synced to this
        journal first (:meth:`AppCrawler.journal_prologue
        <repro.crawler.crawler.AppCrawler.journal_prologue>`).

        When this returns, the line is on disk (written + flushed +
        fsynced) — the app counts as done across any crash.  ``tear``
        simulates a crash in the write/flush window: a prefix of the
        line is written and :exc:`SimulatedCrash` raised, producing
        exactly the torn-final-line artifact resume must absorb.
        """
        if self._fh is None:
            raise RuntimeError("journal is closed")
        delta = crawler.delta_state()
        payload = {
            "v": _LINE_VERSION,
            "app_id": record.app_id,
            "record": record_to_jsonable(record),
            "delta": delta,
        }
        line = _encode_line(payload)
        if tear:
            self._fh.write(line[: max(1, 2 * len(line) // 3)])
            self._fh.flush()
            raise SimulatedCrash(
                f"injected crash mid-append of {record.app_id} "
                "(torn journal line)"
            )
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        crawler.mark_synced()
        self._records[record.app_id] = payload["record"]
        self._fold.fold(delta)
        self._since_compact += 1
        self._journal_bytes += len(line)
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "journal.append",
                t=self._journal_clock(delta),
                category="checkpoint",
                app_id=record.app_id,
                line_bytes=len(line),
            )
            obs.count("journal_appends_total")
            obs.observe(
                "journal_line_bytes",
                float(len(line)),
                edges=(1024.0, 4096.0, 16384.0, 65536.0, 262144.0),
            )
        if (
            self._since_compact >= self.snapshot_every
            and self._journal_bytes > self._snapshot_bytes
        ):
            self.compact()

    def compact(self) -> None:
        """Fold journal + previous snapshot into one atomic snapshot file.

        Crash-safe at every step: the snapshot is written via
        :func:`atomic_write` first, and only then is the journal
        truncated.  A crash between the two leaves duplicate entries,
        which the loader resolves: journal lines win, identically, and
        re-folding a delta onto the state it already produced is a
        no-op.
        """
        state = self._fold.state()
        if state is None:
            return
        payload = {
            "format_version": 1,
            "records": list(self._records.values()),
            "state": state,
            "count": len(self._records),
        }
        doc = {
            "sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
            "payload": payload,
        }
        data = json.dumps(doc)
        atomic_write(self.snapshot_path, data)
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.journal_path, "wb")  # truncate: snapshot owns it
        self._since_compact = 0
        self._journal_bytes = 0
        self._snapshot_bytes = len(data)  # ASCII: json.dumps escapes the rest
        obs = get_observer()
        if obs.enabled:
            obs.event(
                "journal.compact",
                t=self._journal_clock(state),
                category="checkpoint",
                records=len(self._records),
            )
            obs.count("journal_compactions_total")

    @staticmethod
    def _journal_clock(state: dict | None) -> float:
        """The global simulated clock carried by a journaled crawler state.

        The journal has no clock of its own; timestamps for its trace
        events come from the transport accounting in the state that
        rides along with every append.
        """
        stats = (state or {}).get("transport", {}).get("stats", {})
        return float(stats.get("service_s", 0.0)) + float(stats.get("wait_s", 0.0))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CrawlJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
