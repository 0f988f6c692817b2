"""Golden digests of whole crawls, fault-free and faulted.

The per-request crawl path (retry executor, circuit breakers, transport
accounting, Graph API facade) is tuned for speed, and every such change
must leave what a crawl observes and what it costs exactly as it was.
This test crawls every app of a fresh world at ``TEST_SCALE`` and pins
the sha256 of each record's lossless journal image
(:func:`record_to_jsonable`) and of the crawler's continuation state
(:meth:`AppCrawler.snapshot_state`: transport clock and counters,
fault-plan call indexes, vanished apps, installer RNG and the breaker
snapshots).  The clock floats are hashed through ``json.dumps``, which
writes them round-trip exact, so reordering one float accumulation
moves the hash.  The digests were recorded before the lean request
path existed; a change that is *meant* to alter crawls must update
them by hand.  Nothing hashed depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import ScaleConfig
from repro.crawler.checkpoint import record_to_jsonable
from repro.crawler.crawler import make_crawler
from repro.ecosystem.simulation import run_simulation

from tests.conftest import TEST_SCALE, TEST_SEED

#: ``(seed, fault_rate, blackouts)`` -> (records digest, state digest).
#: ``fault_rate=0`` wires the ``DirectTransport``; the faulted case a
#: ``FaultyTransport`` whose two blackouts open the summary breaker.
GOLDEN = {
    (TEST_SEED, 0.0, 0): (
        "1c01103de322883e41dfdf2ba8e746a5445ce4f6e1a212bf48ae7e3ec78e9b84",
        "a0b5402a625ce628411bab6c258d995c891e7147bd016f3e7911adbd4ca011ea",
    ),
    (TEST_SEED, 0.2, 2): (
        "a3c6a9a59ad14ab618f7f86765ba362cc7e49f3edf5973bc782d1bf764f1ed80",
        "9360c8354e8bcc651efa04a392acc1420c9857763cac4dbfa2245486541f586b",
    ),
    (2012, 0.0, 0): (
        "94a5ccf55f099aa15a4fdf92f7de11fa8d8eef0428da2c8c02c670bcccf06e27",
        "820ac661f1517dec6c322f85ae53e9f7befdbee12a893b8da71734f3d8f7b34b",
    ),
    (2012, 0.2, 2): (
        "fd111409625802e8dfa2b4fb51cb704b237f4951ca219f9beb8467ac7122512d",
        "9b3755f682a275bd5b75881e645e8e8d67768c9da3beb03e089d69e5d626fb92",
    ),
}


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "seed, fault_rate, blackouts",
    sorted(GOLDEN),
    ids=lambda value: str(value),
)
def test_whole_crawl_matches_golden_digests(
    seed: int, fault_rate: float, blackouts: int
) -> None:
    config = ScaleConfig(
        scale=TEST_SCALE,
        master_seed=seed,
        fault_rate=fault_rate,
        blackouts=blackouts,
    )
    world = run_simulation(config)
    crawler = make_crawler(world)
    records = crawler.crawl_many([app.app_id for app in world.registry.all_apps()])
    state = crawler.snapshot_state()
    if fault_rate:
        # The case must exercise what it claims to: faults, both
        # blackouts and a breaker that opened and closed again.
        assert state["transport"]["stats"]["injected"]["blackout"] > 0
        assert state["breakers"]["summary"]["opened_at"] > 0.0
    digests = (
        _sha256([record_to_jsonable(records[app_id]) for app_id in sorted(records)]),
        _sha256(state),
    )
    assert digests == GOLDEN[(seed, fault_rate, blackouts)]
