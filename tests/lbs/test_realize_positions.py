"""realize_positions: the one jitter draw and region clamp behind every
obfuscated interface build and the parallel executor's pre-draw.

Parallel runs are bit-identical to sequential ones only while both
sides rank with the same positions, so this pins the function itself:
it reproduces the dict-path reference clamped to the region, never
leaves the region, is repeatable, and is what an interface ranks with.
"""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.lbs import (
    LbsTuple,
    LnrLbsInterface,
    LrLbsInterface,
    ObfuscationModel,
    SpatialDatabase,
)
from repro.lbs.interface import realize_positions

BOX = Rect(0.0, 0.0, 100.0, 100.0)


def make_db(n=80, seed=0):
    rng = np.random.default_rng(seed)
    # Shuffled tids: rows are not in tid order, so the positional stream
    # must be scattered back to row order.
    tids = rng.permutation(np.arange(1000, 1000 + n))
    return SpatialDatabase(
        [LbsTuple(int(t), Point(rng.random() * 100, rng.random() * 100), {})
         for t in tids],
        BOX,
    )


@pytest.mark.parametrize("model", [
    ObfuscationModel(sigma=3.0, seed=1),
    ObfuscationModel(sigma=3.0, seed=1, clip=4.0),
    ObfuscationModel(sigma=3.0, seed=1, per_tid=True),
], ids=["positional", "clipped", "per-tid"])
def test_matches_clamped_dict_reference(model):
    db = make_db()
    eff = realize_positions(db, model)
    ref = model.effective_locations(db.tuples())
    assert eff.shape == (len(db), 2)
    for tid, (x, y) in zip(db.tid_list(), eff.tolist()):
        assert Point(x, y) == db.region.clamp(ref[tid])


def test_positions_stay_inside_region():
    # sigma half the box: many jitters leave it, and the clamp pins
    # them to the walls.
    db = make_db()
    eff = realize_positions(db, ObfuscationModel(sigma=50.0, seed=2))
    assert np.all((eff[:, 0] >= BOX.x0) & (eff[:, 0] <= BOX.x1))
    assert np.all((eff[:, 1] >= BOX.y0) & (eff[:, 1] <= BOX.y1))
    on_wall = (np.isin(eff[:, 0], [BOX.x0, BOX.x1])
               | np.isin(eff[:, 1], [BOX.y0, BOX.y1]))
    assert on_wall.any()


def test_repeatable_and_database_untouched():
    db = make_db()
    before = db.coords.copy()
    model = ObfuscationModel(sigma=5.0, seed=3)
    first = realize_positions(db, model)
    second = realize_positions(db, model)
    assert np.array_equal(first, second)
    first[:] = -1.0  # each call hands out its own array
    assert np.array_equal(realize_positions(db, model), second)
    assert np.array_equal(db.coords, before)


@pytest.mark.parametrize("cls", [LrLbsInterface, LnrLbsInterface])
def test_interface_ranks_with_realized_positions(cls):
    db = make_db()
    model = ObfuscationModel(sigma=4.0, seed=5, clip=6.0)
    eff = realize_positions(db, model)
    api = cls(db, k=4, obfuscation=model)
    for tid, (x, y) in zip(db.tid_list(), eff.tolist()):
        assert api.effective_location(tid) == Point(x, y)
    # Same answers as an interface handed the array explicitly.
    ref_api = cls(db, k=4, obfuscation=model, effective_coords=eff)
    rng = np.random.default_rng(6)
    for qx, qy in rng.random((15, 2)) * 100:
        q = Point(float(qx), float(qy))
        assert api.query(q) == ref_api.query(q)
