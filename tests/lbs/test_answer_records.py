"""Answer records and the projection stage's attrs memo.

``ReturnedTuple`` and ``QueryAnswer`` are frozen slotted dataclasses that
the projection stage builds through their slot setters: they must still
compare, print, pickle and copy as the declared dataclasses do, and
refuse assignment.  The stage keeps a per-instance ``tid -> attrs`` memo:
every answer entry still gets its own dict, equal to what the database
gathers for that tid, and scalar and batch answers stay equal across the
capabilities that change what a projection sees.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.geometry import Point
from repro.lbs import (
    LnrLbsInterface,
    LrLbsInterface,
    ObfuscationModel,
    QueryEngineConfig,
)
from repro.lbs.pipeline import QueryAnswer, ReturnedTuple

#: Close enough that k=5 answers share most of their tuples.
NEAR = [Point(40.0, 40.0), Point(40.5, 40.2), Point(41.0, 39.7)]
SPREAD = [Point(10.0 + 7.5 * i, 90.0 - 6.0 * i) for i in range(12)]


def _answer(db, family):
    return family(db, k=5).query(NEAR[0])


class TestRecords:
    @pytest.mark.parametrize("family", [LrLbsInterface, LnrLbsInterface])
    def test_assignment_raises(self, small_db, family):
        answer = _answer(small_db, family)
        entry = answer.results[0]
        for record, names in ((entry, ReturnedTuple), (answer, QueryAnswer)):
            for f in dataclasses.fields(names):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, f.name)
            # A slotted record has nowhere to store another name.  CPython
            # 3.11 raises TypeError here, not FrozenInstanceError: the
            # generated __setattr__ refers to the class before slots.
            with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
                record.other = 1
            assert not hasattr(record, "other")
        assert answer == _answer(small_db, family)

    def test_fields_are_unchanged(self):
        fields = [(f.name, f.default) for f in dataclasses.fields(ReturnedTuple)]
        assert fields == [
            ("rank", dataclasses.MISSING),
            ("tid", dataclasses.MISSING),
            ("attrs", dataclasses.MISSING),
            ("location", None),
            ("distance", None),
        ]
        assert [f.name for f in dataclasses.fields(QueryAnswer)] == ["query", "results"]

    @pytest.mark.parametrize("family", [LrLbsInterface, LnrLbsInterface])
    def test_equal_and_repr_to_the_declared_constructor(self, small_db, family):
        answer = _answer(small_db, family)
        rebuilt = QueryAnswer(answer.query, tuple(
            ReturnedTuple(r.rank, r.tid, dict(r.attrs), r.location, r.distance)
            for r in answer.results
        ))
        assert answer == rebuilt
        assert repr(answer) == repr(rebuilt)
        assert answer != QueryAnswer(answer.query, rebuilt.results[1:])

    def test_repr_format(self):
        assert repr(ReturnedTuple(1, 7, {"a": 1})) == (
            "ReturnedTuple(rank=1, tid=7, attrs={'a': 1}, location=None, distance=None)"
        )

    @pytest.mark.parametrize("family", [LrLbsInterface, LnrLbsInterface])
    def test_pickle_and_copy_round_trip(self, small_db, family):
        answer = _answer(small_db, family)
        for clone in (
            pickle.loads(pickle.dumps(answer)),
            copy.copy(answer),
            copy.deepcopy(answer),
        ):
            assert clone == answer
            assert type(clone.results[0]) is ReturnedTuple
        deep = copy.deepcopy(answer)
        assert deep.results[0].attrs is not answer.results[0].attrs


def _shared_tid(a, b):
    common = set(a.tids()) & set(b.tids())
    assert common, "the NEAR points must share a tuple"
    tid = min(common)
    return (
        next(r for r in a.results if r.tid == tid),
        next(r for r in b.results if r.tid == tid),
    )


class TestAttrsMemo:
    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    def test_entries_for_one_tid_get_distinct_dicts(self, small_db, batch):
        api = LnrLbsInterface(small_db, k=5)
        if batch:
            a, b = api.query_batch(NEAR[:2])
        else:
            a, b = api.query(NEAR[0]), api.query(NEAR[1])
        ra, rb = _shared_tid(a, b)
        assert ra.attrs == rb.attrs
        assert ra.attrs is not rb.attrs

    def test_mutating_an_entry_touches_nothing_else(self, small_db):
        api = LnrLbsInterface(small_db, k=5)
        a, b = api.query(NEAR[0]), api.query(NEAR[1])
        ra, rb = _shared_tid(a, b)
        want = dict(rb.attrs)
        ra.attrs["category"] = "mutated"
        ra.attrs["extra"] = 1
        assert rb.attrs == want
        (rc,) = [r for r in api.query(NEAR[2]).results if r.tid == ra.tid]
        assert rc.attrs == want
        (fresh,) = api.pipeline.projection._attrs_of([ra.tid])
        assert fresh == want

    def test_batch_gathers_only_misses_once_deduplicated(self, small_db):
        api = LnrLbsInterface(small_db, k=5, engine=QueryEngineConfig(cache_size=0))
        projection = api.pipeline.projection
        calls = []
        gather = small_db.gather_attrs

        class Spy:
            def __getattr__(self, name):
                return getattr(small_db, name)

            def gather_attrs(self, tids, names=None):
                calls.append(list(tids))
                return gather(tids, names)

        projection.database = Spy()
        first = api.query_batch(NEAR)
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted({t for a in first for t in a.tids()})
        assert api.query_batch(NEAR) == first
        api.query(NEAR[1])
        assert len(calls) == 1

    def test_unknown_tid_raises_key_error(self, small_db):
        api = LnrLbsInterface(small_db, k=5)
        with pytest.raises(KeyError):
            api.pipeline.projection.report(NEAR[0], [(0.0, 10**9)])


def _matches_database(api, answers):
    db, names = api.database, api.visible_attrs
    for answer in answers:
        for r in answer.results:
            (want,) = db.gather_attrs([r.tid], names)
            assert list(r.attrs.items()) == list(want.items())


def _build(db, family, capability):
    kwargs = {}
    if capability == "visible_attrs":
        kwargs["visible_attrs"] = ("value", "category")
    elif capability == "obfuscation":
        kwargs["obfuscation"] = ObfuscationModel(sigma=2.0, seed=5)
    api = family(db, k=5, **kwargs)
    if capability == "filtered":
        api = api.filtered(lambda t: t.attrs["category"] == "restaurant")
    return api


CAPABILITIES = ["plain", "visible_attrs", "filtered", "obfuscation"]


@pytest.mark.parametrize("capability", CAPABILITIES)
@pytest.mark.parametrize("family", [LrLbsInterface, LnrLbsInterface])
def test_scalar_and_batch_answers_stay_equal(small_db, family, capability):
    looped = _build(small_db, family, capability)
    batched = _build(small_db, family, capability)
    want = [looped.query(p) for p in SPREAD + NEAR]
    assert batched.query_batch(SPREAD) + batched.query_batch(NEAR) == want
    _matches_database(looped, want)


@pytest.mark.parametrize("capability", CAPABILITIES)
@pytest.mark.parametrize("family", [LrLbsInterface, LnrLbsInterface])
def test_restored_interface_answers_like_the_original(small_db, family, capability):
    api = _build(small_db, family, capability)
    for p in SPREAD:
        api.query(p)
    restored = _build(small_db, family, capability)
    restored.restore_engine_state(api.engine_state())
    assert list(restored._cache.entries()) == list(api._cache.entries())
    assert [restored.query(p) for p in NEAR] == [api.query(p) for p in NEAR]
    assert restored.query_batch(SPREAD) == [api.query(p) for p in SPREAD]
    _matches_database(restored, [restored.query(p) for p in SPREAD + NEAR])
