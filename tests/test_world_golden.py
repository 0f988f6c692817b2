"""Golden digests of whole simulated worlds.

Simulation fast paths (batched draws, positional post appends) must
leave every generated byte as it was.  This test hashes a canonical
dump of a world (every field of every wall post in the log, every
app's registry fields and profile feed, and the blacklist) and pins it
for two seeds.  A change that shifts one draw on one stream moves the
hash.  The digests were recorded before those fast paths existed; a
change that is *meant* to alter worlds must update them by hand.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import ScaleConfig
from repro.ecosystem.names import NameFactory
from repro.ecosystem.simulation import SimulatedWorld, run_simulation
from repro.mypagekeeper.classifier import UrlClassifier
from repro.mypagekeeper.monitor import MyPageKeeper
from repro.platform.apps import FacebookApp
from repro.platform.posts import Post

from tests.conftest import TEST_SCALE, TEST_SEED

GOLDEN = {
    TEST_SEED: "07b2b91fbe113859653054854368a3393ab126da1285db376fa9b97989ea3326",
    2012: "70256396cf639cf3596b2d129e97b9520347f811d0d817eb11cb3038085c8363",
}

#: ``NameFactory.benign_names(3000)``: past the 900-pair name space, so
#: the exhausted-space fallback runs; the stream's next ``random()``
#: is hashed too, pinning how many draws the names consumed.
GOLDEN_NAMES = {
    7: "7964851344d7f258cf3e97e7808f45254f4522f06970bfda99043ab0f299dab0",
    2012: "42c0c969b206bd975a8ce9c9239c749d7794ccbb272a84976ae9fe2f91bf3b02",
}

#: MyPageKeeper's scan of the shared world, whole log and up to day 150.
GOLDEN_SCAN = {
    None: "ebf2b40d36b61fcf723e4055ba607645f02f5fe96a4619bd6e073dac3fa1aeb4",
    150: "838b2d9769760373027493343aad053b789af7dde8aace007077e67980f89d0e",
}

_POST_FIELDS = tuple(f.name for f in dataclasses.fields(Post))
_APP_FIELDS = tuple(
    f.name for f in dataclasses.fields(FacebookApp) if f.name != "profile_feed"
)


def _post_line(post: Post) -> str:
    return repr(tuple(getattr(post, name) for name in _POST_FIELDS))


def world_dump(world: SimulatedWorld):
    """Canonical lines of *world*: post log, registry, blacklist."""
    yield f"posts {len(world.post_log)}"
    for post in world.post_log:
        yield _post_line(post)
    apps = world.registry.all_apps()
    yield f"apps {len(apps)}"
    for app in apps:
        yield repr(tuple(getattr(app, name) for name in _APP_FIELDS))
        yield f"feed {len(app.profile_feed)}"
        for post in app.profile_feed:
            yield _post_line(post)
    blacklist = world.services.blacklist
    yield f"blacklist {sorted(blacklist._urls.items())!r}"
    yield f"domains {sorted(blacklist._domains.items())!r}"


def world_digest(world: SimulatedWorld) -> str:
    digest = hashlib.sha256()
    for line in world_dump(world):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_shared_world_matches_golden_digest(world: SimulatedWorld) -> None:
    assert world_digest(world) == GOLDEN[TEST_SEED]


@pytest.mark.parametrize("seed", [2012])
def test_fresh_world_matches_golden_digest(seed: int) -> None:
    world = run_simulation(ScaleConfig(scale=TEST_SCALE, master_seed=seed))
    assert world_digest(world) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_NAMES))
def test_exhausted_benign_name_space_matches_golden_digest(seed: int) -> None:
    factory = NameFactory(np.random.default_rng(seed))
    names = factory.benign_names(3000, 0.02)
    next_draw = float(factory._rng.random())
    dump = repr((names, next_draw)).encode("utf-8")
    assert hashlib.sha256(dump).hexdigest() == GOLDEN_NAMES[seed]


@pytest.mark.parametrize("day", [None, 150])
def test_scan_of_shared_world_matches_golden_digest(
    world: SimulatedWorld, day: int | None
) -> None:
    report = MyPageKeeper(
        UrlClassifier(world.services.blacklist), world.post_log
    ).scan(day)
    counts = sorted(
        report.app_post_counts.items(),
        key=lambda item: (item[0] is not None, item[0] or ""),
    )
    dump = repr(
        (
            report.posts_scanned,
            sorted(report.flagged_urls),
            sorted(report.flagged_post_ids),
            counts,
        )
    ).encode("utf-8")
    assert hashlib.sha256(dump).hexdigest() == GOLDEN_SCAN[day]
