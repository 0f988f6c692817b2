"""Differential test: the lean retry path equals its reference oracle.

``ResilientExecutor.call`` skips the breaker protocol while a breaker is
closed and derives the jitter key lazily; ``ReferenceExecutor`` (in
``tests/reference_resilience.py``) runs the straightforward path it
replaced.  Each example crawls a handful of apps twice over one private
world, through a fresh faulty transport each time, once per executor,
and requires the same value from every ``call``, the same crawl records
(outcome fields included), the same transport accounting, the same
breaker snapshots and, when traced, the same trace and metrics.

The generated cases reach every branch of the breaker protocol: fault
rates up to 0.5, blackout windows inside the crawl's simulated span,
breakers restored open (cooling down or due for a probe) or half-open
(probe free or in flight), small failure thresholds and cooldowns, and
deadlines from the batch crawler's per-app budget to the service's
absolute ``deadline_at`` with a bulkhead, strict or lenient.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ScaleConfig
from repro.crawler.checkpoint import record_to_jsonable
from repro.crawler.crawler import AppCrawler
from repro.crawler.resilience import CircuitBreaker, RetryPolicy
from repro.ecosystem.simulation import run_simulation
from repro.obs import TracingObserver, observation
from repro.platform.transport import (
    FaultPlan,
    FaultyTransport,
    draw_blackout_windows,
)
from repro.service.bulkhead import Bulkhead

from tests.reference_resilience import ReferenceExecutor

ENDPOINTS = ("feed", "install", "summary")


@pytest.fixture(scope="module")
def world():
    """A private world: crawls consume its installer RNG (restored per run)."""
    return run_simulation(ScaleConfig(scale=0.01, master_seed=31337))


@pytest.fixture(scope="module")
def app_ids(world):
    """Live apps, removed apps and apps with sibling client-ID pools."""
    apps = sorted(world.registry.all_apps(), key=lambda app: app.app_id)
    removed = [app.app_id for app in apps if app.is_deleted()]
    pooled = [app.app_id for app in apps if app.client_id_pool]
    live = [app.app_id for app in apps if not app.is_deleted()]
    return sorted(set(removed[:4] + pooled[:4] + live[:16]))


breaker_states = st.fixed_dictionaries(
    {
        "state": st.sampled_from(
            [CircuitBreaker.CLOSED, CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN]
        ),
        "consecutive_failures": st.integers(0, 4),
        # Negative: opened in an earlier app frame, cooldown maybe over.
        "opened_at": st.floats(-400.0, 0.0),
        "probe_in_flight": st.booleans(),
    }
)


@st.composite
def scenarios(draw):
    return {
        "fault_rate": draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])),
        "plan_seed": draw(st.integers(0, 2**16)),
        # The crawl of a few apps spans minutes of simulated time, so
        # windows are drawn over a short horizon to overlap it.
        "blackouts": draw(st.integers(0, 3)),
        "max_attempts": draw(st.integers(1, 5)),
        "base_delay_s": draw(st.sampled_from([0.5, 2.0, 10.0])),
        "max_delay_s": draw(st.sampled_from([5.0, 60.0])),
        "per_app_deadline_s": draw(st.sampled_from([1.0, 20.0, 120.0, 1800.0])),
        "failure_threshold": draw(st.integers(1, 5)),
        "cooldown_s": draw(st.sampled_from([0.0, 5.0, 45.0, 180.0])),
        "breakers": draw(
            st.dictionaries(st.sampled_from(ENDPOINTS), breaker_states)
        ),
        # None: the batch crawler's per-app budget; else the service's
        # absolute deadline this many seconds after the crawl starts.
        "service_budget_s": draw(
            st.one_of(st.none(), st.sampled_from([0.0, 3.0, 15.0, 60.0, 600.0]))
        ),
        "strict_deadline": draw(st.booleans()),
        "bulkhead": draw(st.booleans()),
        "apps": draw(st.integers(1, 8)),
        "first_app": draw(st.integers(0, 15)),
        "traced": draw(st.booleans()),
    }


def crawl(world, app_ids, case, reference: bool):
    """Crawl per *case* through a fresh transport; everything observable."""
    plan = FaultPlan(
        fault_rate=case["fault_rate"],
        seed=case["plan_seed"],
        blackout_windows=draw_blackout_windows(
            case["plan_seed"],
            case["blackouts"],
            horizon_s=600.0,
            duration_range=(5.0, 150.0),
        ),
    )
    crawler = AppCrawler(
        world,
        transport=FaultyTransport(world.graph_api, world.installer, plan),
        retry_policy=RetryPolicy(
            max_attempts=case["max_attempts"],
            base_delay_s=case["base_delay_s"],
            max_delay_s=case["max_delay_s"],
            per_app_deadline_s=case["per_app_deadline_s"],
        ),
    )
    executor = crawler.executor
    if reference:
        executor.__class__ = ReferenceExecutor
    returned = []
    call = executor.call

    def recording_call(*args, **kwargs):
        returned.append(call(*args, **kwargs))
        return returned[-1]

    executor.call = recording_call
    for endpoint in ENDPOINTS:
        breaker = CircuitBreaker(case["failure_threshold"], case["cooldown_s"])
        if endpoint in case["breakers"]:
            breaker.restore(case["breakers"][endpoint])
        executor.breakers[endpoint] = breaker
    bulkhead = None
    if case["bulkhead"]:
        bulkhead = Bulkhead({"summary": 0.5, "feed": 0.3}, executor)
    apps = app_ids[case["first_app"]:][: case["apps"]]
    observer = TracingObserver() if case["traced"] else None
    records = []
    with observation(observer):
        for app_id in apps:
            deadline_at = None
            if case["service_budget_s"] is not None:
                deadline_at = crawler.stats.elapsed_s + case["service_budget_s"]
            record = crawler.crawl_app(
                app_id,
                deadline_at=deadline_at,
                bulkhead=bulkhead,
                strict_deadline=case["strict_deadline"],
            )
            records.append(record_to_jsonable(record))
    observed = {
        "returned": returned,
        "records": records,
        "stats": crawler.stats.snapshot(),
        "breakers": executor.snapshot_breakers(),
        "transport": crawler.transport.snapshot_state(),
    }
    if observer is not None:
        observed["trace"] = observer.tracer.to_jsonl()
        observed["metrics"] = observer.metrics.to_jsonl()
    return observed


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=scenarios())
def test_lean_call_matches_the_reference_path(world, app_ids, case):
    installer = world.installer
    rng_state = installer.rng_state()
    try:
        reference = crawl(world, app_ids, case, reference=True)
        installer.restore_rng_state(rng_state)
        lean = crawl(world, app_ids, case, reference=False)
    finally:
        installer.restore_rng_state(rng_state)
    assert lean == reference

