"""Span tracer for the benchmark's traced runs.

The tracer wraps public entry points of each layer from outside the
program: it replaces the attribute where the caller looks the name up
(a module global or a class attribute), records one span per call
(name, layer, start, end, parent) plus call counts, and puts every
original object back when the traced region ends.  Spans stay in memory
and are written out once, at the end of the pass.

A layer's self time is the duration of its spans minus the part covered
by their direct children, so the self times of all layers plus the
unattributed remainder of each region add up to the region's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: False when a span of the same name was already open (its time is
    #: then counted once, by the outermost span)
    top: bool = True


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``module:attr`` or ``module:Class.method``."""

    path: str
    #: span name; None records a call count only (for hot leaf calls)
    span: str | None
    layer: str = ""
    #: count key incremented on every call
    count: str | None = None
    #: ``hook(tracer, args, result)`` run after the call returns
    on_result: Callable[["Tracer", tuple, Any], None] | None = None


def _count_posts(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["ecosystem.posts"] += len(result.post_log)


def _count_scanned(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["mypagekeeper.posts"] += result.posts_scanned


def _count_ingested(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["store.rows"] += result.rows


#: Every wrapped entry point, grouped by layer (module).  Names imported
#: with ``from x import f`` are patched in the importing module, where
#: the caller looks them up.
TARGETS: tuple[Target, ...] = (
    # ecosystem
    Target("repro.core.pipeline:run_simulation", "ecosystem.simulate",
           "ecosystem", on_result=_count_posts),
    Target("repro.ecosystem.simulation:run_simulation", "ecosystem.simulate",
           "ecosystem", on_result=_count_posts),
    Target("repro.ecosystem.benign:BenignPopulation.build",
           "ecosystem.benign_build", "ecosystem"),
    Target("repro.ecosystem.simulation:_emit_all_posts",
           "ecosystem.emit_posts", "ecosystem"),
    # mypagekeeper
    Target("repro.mypagekeeper.monitor:MyPageKeeper.scan",
           "mypagekeeper.scan", "mypagekeeper", on_result=_count_scanned),
    # core.validation / text
    Target("repro.core.validation:FlagValidator.validate", "core.validate",
           "validation"),
    Target("repro.core.validation:is_typosquat", "text.typosquat", "text"),
    Target("repro.text.typosquat:name_similarity", None,
           count="text.name_similarity_calls"),
    # crawler / platform.transport / crawler.resilience
    Target("repro.crawler.crawler:AppCrawler.crawl_many", "crawler.crawl",
           "crawler"),
    Target("repro.crawler.crawler:AppCrawler.crawl_app", "crawler.crawl",
           "crawler", count="crawler.apps"),
    # crawler.checkpoint
    Target("repro.crawler.checkpoint:CrawlJournal.append",
           "checkpoint.append", "checkpoint", count="checkpoint.appends"),
    Target("repro.crawler.checkpoint:CrawlJournal.compact",
           "checkpoint.compact", "checkpoint"),
    # the crawler state every journal line carries (crawl and monitor WAL)
    Target("repro.crawler.crawler:AppCrawler.snapshot_state",
           "checkpoint.state", "checkpoint"),
    # core.features / core.frappe / ml
    Target("repro.core.features:FeatureExtractor.matrix", "core.features",
           "core"),
    Target("repro.core.frappe:FrappeClassifier.fit", "core.fit", "core"),
    Target("repro.core.frappe:FrappeCascade.fit", "core.fit", "core"),
    Target("repro.core.frappe:FrappeClassifier.predict", "core.predict",
           "core"),
    Target("repro.core.frappe:FrappeCascade.predict", "core.predict", "core"),
    Target("repro.core.frappe:FrappeCascade.score_record", "core.score",
           "core", count="core.score_calls"),
    Target("repro.core.frappe:FrappeCascade.score_batch", "core.score",
           "core", count="core.score_calls"),
    # service
    Target("repro.service.service:VerdictService.serve", "service.serve",
           "service"),
    # crawler.monitor / crawler.recrawl
    Target("repro.crawler.monitor:AppMonitor.run", "monitor.run", "monitor"),
    Target("repro.crawler.monitor:MonitorJournal.append_observation",
           "monitor.append", "monitor"),
    Target("repro.crawler.monitor:MonitorJournal.append_plan",
           "monitor.append", "monitor"),
    # store
    Target("repro.store.ingest:ingest_monitor_history", "store.ingest",
           "store", on_result=_count_ingested),
    Target("repro.store.queries:appnet_evolution", "store.query", "store"),
    Target("repro.store.queries:campaign_timeline", "store.query", "store"),
    # collusion / experiments / analysis
    Target("repro.collusion.appnets:CollusionAnalyzer.discover",
           "collusion.discover", "collusion"),
    Target("repro.experiments.runner:run_all", "experiments.run",
           "experiments"),
    Target("repro.analysis.report:ExperimentReport.render",
           "experiments.render", "experiments"),
)

#: layers whose self time is reported, plus the unattributed remainder
LAYERS = (
    "ecosystem", "mypagekeeper", "validation", "text", "crawler",
    "checkpoint", "core", "service", "monitor", "store", "collusion",
    "experiments", "unattributed",
)


def resolve(path: str) -> tuple[Any, str]:
    """``module:attr`` / ``module:Class.attr`` -> (owner, attribute)."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory spans and counts, recorded by wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open_names: Counter[str] = Counter()
        #: (owner, attribute, original raw attribute) per installed wrapper
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        span = Span(
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            top=self._open_names[name] == 0,
        )
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open_names[name] += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open_names[span.name] -= 1

    @contextmanager
    def span(self, name: str, layer: str = "unattributed"):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    # -- patching ----------------------------------------------------------

    def _wrapper(self, original: Callable, target: Target) -> Callable:
        tracer = self

        if target.span is None:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.counts[target.count] += 1
                return original(*args, **kwargs)
            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if target.count is not None:
                tracer.counts[target.count] += 1
            index = tracer.open(target.span, target.layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.on_result is not None:
                target.on_result(tracer, args, result)
            return result
        return traced

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            owner, attr = resolve(target.path)
            raw = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(raw):
                raise TypeError(f"{target.path} is not a plain function")
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrapper(raw, target))

    def remove(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets: tuple[Target, ...] = TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.remove()

    # -- derived views -----------------------------------------------------

    def inclusive_s(self, name: str) -> float:
        """Time inside spans called *name*, nested repeats counted once."""
        return sum(
            (span.end - span.start
             for span in self.spans
             if span.name == name and span.top),
            0.0,
        )

    def self_s(self, root: str) -> dict[str, float]:
        """Per-layer self time inside the span *root* and its descendants.

        Self time is a span's duration minus its direct children's, so
        the layers' self times add up to *root*'s duration.
        """
        inside = [False] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            parent = span.parent
            inside[index] = span.name == root or (
                parent >= 0 and inside[parent]
            )
            if parent >= 0:
                child_time[parent] += span.end - span.start
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, covered, counted in zip(self.spans, child_time, inside):
            if counted:
                totals[span.layer] += span.end - span.start - covered
        return totals

    def under(self, name: str, ancestor: str) -> int:
        """Spans called *name* with an ancestor span called *ancestor*."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent >= 0:
                if self.spans[parent].name == ancestor:
                    total += 1
                    break
                parent = self.spans[parent].parent
        return total

    def dump(self, path) -> None:
        """Write every span and count as JSON (once, at the end)."""
        payload = {
            "spans": [
                {
                    "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent,
                }
                for s in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
