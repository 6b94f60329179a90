"""EstimationSpec: validation, serialization, and the fluent builder."""

import json

import pytest

from repro.api import (
    AggregateSpec,
    EstimationSpec,
    InterfaceSpec,
    ObfuscationModel,
    RankingSpec,
    Session,
)
from repro.core import AttrEquals, LnrAggConfig, LrAggConfig, NnoConfig, QueryEngineConfig
from repro.datasets import is_brand, is_category
from repro.lbs import LnrLbsInterface, ProminenceRanking


class TestAggregateSpec:
    def test_defaults(self):
        agg = AggregateSpec()
        assert agg.kind == "count" and agg.where is None

    def test_sum_needs_attr(self):
        with pytest.raises(ValueError):
            AggregateSpec("sum")

    def test_pass_through_needs_where(self):
        with pytest.raises(ValueError):
            AggregateSpec("count", pass_through=True)

    def test_lambda_condition_runs_but_does_not_serialize(self):
        agg = AggregateSpec("count", where=lambda attrs, loc: True)
        with pytest.raises(ValueError, match="AttrEquals"):
            agg.to_dict()


class TestAttrEquals:
    def test_dual_calling_conventions(self):
        cond = AttrEquals("category", "school")
        assert cond({"category": "school"}, None)
        assert not cond({"category": "cafe"}, None)

    def test_predicate_factories(self, small_db):
        # is_category/is_brand are usable as tuple predicates...
        n = small_db.ground_truth_count(is_category("school"))
        assert n > 0
        # ...and serialize.
        assert is_brand("starbucks").to_dict()["attr"] == "brand"
        rebuilt = AttrEquals.from_dict(is_category("school").to_dict())
        assert rebuilt == is_category("school")


class TestEstimationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimationSpec(method="xyz")
        with pytest.raises(ValueError):
            EstimationSpec(sampler="grid")
        with pytest.raises(ValueError):
            EstimationSpec(batch_size=0)
        with pytest.raises(ValueError):
            EstimationSpec(k=0)

    def test_config_must_match_method(self):
        with pytest.raises(ValueError):
            EstimationSpec(method="lr", config=LnrAggConfig())
        EstimationSpec(method="lnr", config=LnrAggConfig())  # ok
        EstimationSpec(method="nno", config=NnoConfig())  # ok

    def test_json_round_trip(self):
        spec = EstimationSpec(
            method="lnr",
            k=7,
            aggregate=AggregateSpec("avg", "rating", is_category("restaurant")),
            sampler="census",
            engine=QueryEngineConfig(index_backend="grid", cache_size=128),
            config=LnrAggConfig(h=2, edge_error=1e-2),
            seed=99,
            batch_size=16,
        )
        text = spec.to_json()
        json.loads(text)  # valid JSON
        assert EstimationSpec.from_json(text) == spec

    def test_minimal_round_trip(self):
        spec = EstimationSpec()
        assert EstimationSpec.from_dict(spec.to_dict()) == spec

    def test_saved_engine_with_removed_auto_sharded_min(self):
        # Documents written before the field was removed carry it: a
        # null loads as today's engine, a set value is refused.
        spec = EstimationSpec(engine=QueryEngineConfig(index_backend="grid"))
        old = spec.to_dict()
        old["engine"]["auto_sharded_min"] = None
        assert EstimationSpec.from_dict(old) == spec
        old["engine"]["auto_sharded_min"] = 500_000
        with pytest.raises(ValueError, match="auto_sharded_min.*sharded"):
            EstimationSpec.from_dict(old)

    def test_interface_round_trip(self):
        spec = EstimationSpec(
            method="lnr",
            k=8,
            interface=InterfaceSpec(
                kind="lnr", k=8, max_radius=9.0,
                visible_attrs=("gender",),
                obfuscation=ObfuscationModel(sigma=1.0, seed=2),
                ranking=RankingSpec.prominence("rating"),
            ),
        )
        assert EstimationSpec.from_json(spec.to_json()) == spec

    def test_interface_kind_must_match_method(self):
        with pytest.raises(ValueError, match="interface"):
            EstimationSpec(method="lr", interface=InterfaceSpec(kind="lnr"))
        # NNO reads locations, so it runs against an LR interface.
        with pytest.raises(ValueError, match="interface"):
            EstimationSpec(method="nno", interface=InterfaceSpec(kind="lnr"))

    def test_interface_k_must_match_spec_k(self):
        with pytest.raises(ValueError, match="k="):
            EstimationSpec(method="lr", k=5, interface=InterfaceSpec(kind="lr", k=3))

    def test_interface_spec_defaults_to_plain_service(self):
        spec = EstimationSpec(method="lnr", k=7)
        derived = spec.interface_spec()
        assert derived.kind == "lnr" and derived.k == 7
        assert derived.obfuscation is None and derived.max_radius is None


class TestSessionBuilder:
    def test_fluent_chain_is_immutable(self, small_db):
        base = Session(small_db).lr(k=5)
        a = base.count(is_category("school"))
        b = base.sum("value")
        assert a.spec.aggregate.kind == "count"
        assert b.spec.aggregate.kind == "sum"
        assert base.spec.aggregate.kind == "count"  # default untouched

    def test_builder_produces_expected_spec(self, small_db):
        spec = (
            Session(small_db)
            .lnr(k=4, config=LnrAggConfig(h=2))
            .avg("value", is_category("school"))
            .seed(7)
            .batch(8)
            .spec
        )
        assert spec == EstimationSpec(
            method="lnr", k=4, config=LnrAggConfig(h=2),
            aggregate=AggregateSpec("avg", "value", is_category("school")),
            seed=7, batch_size=8,
        )

    def test_nno_and_engine(self, small_db):
        spec = (
            Session(small_db)
            .nno(k=3, config=NnoConfig(area_probes=12))
            .engine(QueryEngineConfig(index_backend="brute"))
            .spec
        )
        assert spec.method == "nno"
        assert spec.engine.index_backend == "brute"

    def test_bad_world_rejected(self):
        with pytest.raises(TypeError):
            Session(object())

    def test_census_without_grid_fails_at_build(self, small_db):
        session = Session(small_db).lr().census_weighted().count()
        with pytest.raises(ValueError, match="census"):
            session.build()

    def test_build_constructs_matching_driver(self, small_db):
        from repro.core import LnrLbsAgg, LrAggConfig, LrLbsAgg

        est = Session(small_db).lr(k=3, config=LrAggConfig(h=1)).count().build()
        assert isinstance(est, LrLbsAgg) and est.interface.k == 3
        est = Session(small_db).lnr(k=4).count().build()
        assert isinstance(est, LnrLbsAgg)

    def test_service_derives_kind_and_k(self, small_db):
        spec = (
            Session(small_db)
            .lnr(k=6)
            .service(obfuscation=ObfuscationModel(sigma=1.0), visible_attrs=["gender"])
            .spec
        )
        assert spec.interface.kind == "lnr" and spec.interface.k == 6
        assert spec.interface.visible_attrs == ("gender",)

    def test_service_tracks_later_method_changes(self, small_db):
        session = (
            Session(small_db).lr(k=3)
            .service(ranking=RankingSpec.prominence("value"))
            .lnr(k=5)
        )
        iface = session.spec.interface
        assert iface.kind == "lnr" and iface.k == 5
        assert iface.ranking.policy == "prominence"

    def test_service_rejects_spec_plus_kwargs(self, small_db):
        with pytest.raises(ValueError, match="not both"):
            Session(small_db).lr().service(InterfaceSpec(), max_radius=5.0)

    def test_build_constructs_capability_interface(self, small_db):
        est = (
            Session(small_db)
            .lnr(k=4)
            .service(
                obfuscation=ObfuscationModel(sigma=2.0, seed=1),
                ranking=RankingSpec.prominence("value"),
            )
            .count()
            .build()
        )
        assert isinstance(est.interface, LnrLbsInterface)
        assert isinstance(est.interface.ranking, ProminenceRanking)
        assert est.interface.obfuscation is not None

    def test_pass_through_builds_filtered_view(self, small_db):
        est = (
            Session(small_db).lr(k=3)
            .count(is_category("school"), pass_through=True)
            .build()
        )
        # The filtered view's database holds only matching tuples.
        assert len(est.interface.database) == small_db.ground_truth_count(
            is_category("school")
        )
        assert est.query.condition is None  # unconditioned over the view
