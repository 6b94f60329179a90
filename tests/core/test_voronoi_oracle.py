"""The Theorem-1 cell oracle must reproduce ground-truth cells exactly."""

import math

import numpy as np
import pytest

from repro.core import ObservationHistory, TopHCellOracle
from repro.core.bounds import MonteCarloFinish
from repro.core.config import LrAggConfig
from repro.geometry import ConvexPolygon, Rect, polygon_disk_area, true_topk_cell, true_voronoi_cell
from repro.lbs import LrLbsInterface, QueryBudget, BudgetExhausted
from repro.sampling import UniformSampler


def make_oracle(db, box, config=None, k=5, seed=0, max_radius=None):
    api = LrLbsInterface(db, k=k, max_radius=max_radius)
    hist = ObservationHistory(api, enabled=(config or LrAggConfig()).use_history)
    sampler = UniformSampler(box)
    oracle = TopHCellOracle(
        hist, sampler, config or LrAggConfig(use_mc_bounds=False), np.random.default_rng(seed)
    )
    return api, hist, oracle


class TestExactTop1:
    def test_matches_ground_truth(self, small_db, box):
        api, hist, oracle = make_oracle(small_db, box)
        locs = small_db.locations()
        for tid in list(locs)[:15]:
            out = oracle.compute(tid, locs[tid], h=1, init_radius=8.0)
            others = [p for i, p in locs.items() if i != tid]
            truth = true_voronoi_cell(locs[tid], others, box)
            assert out.exact
            assert out.measure * box.area == pytest.approx(truth.area(), rel=1e-6)

    def test_all_config_variants_exact(self, small_db, box):
        locs = small_db.locations()
        for name, config in LrAggConfig.ladder().items():
            api, hist, oracle = make_oracle(small_db, box, config)
            tid = 7
            out = oracle.compute(tid, locs[tid], h=1, init_radius=8.0)
            others = [p for i, p in locs.items() if i != tid]
            truth = true_voronoi_cell(locs[tid], others, box)
            if out.exact:
                assert out.measure * box.area == pytest.approx(truth.area(), rel=1e-6), name

    def test_history_reduces_cost(self, small_db, box):
        locs = small_db.locations()
        # Without history: every cell starts cold.
        api1, _h1, oracle1 = make_oracle(
            small_db, box, LrAggConfig(use_history=False, use_mc_bounds=False)
        )
        for tid in list(locs)[:8]:
            oracle1.compute(tid, locs[tid], h=1, init_radius=8.0)
        cold = api1.queries_used
        # With history: later cells reuse earlier discoveries.
        api2, _h2, oracle2 = make_oracle(
            small_db, box, LrAggConfig(use_history=True, use_mc_bounds=False)
        )
        for tid in list(locs)[:8]:
            oracle2.compute(tid, locs[tid], h=1, init_radius=8.0)
        warm = api2.queries_used
        assert warm < cold

    def test_h_exceeding_k_rejected(self, small_db, box):
        api, hist, oracle = make_oracle(small_db, box, k=3)
        t = small_db.get(0)
        with pytest.raises(ValueError):
            oracle.compute(0, t.location, h=4)


class TestExactTopH:
    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_ground_truth(self, small_db, box, h):
        api, hist, oracle = make_oracle(small_db, box)
        locs = small_db.locations()
        for tid in list(locs)[:6]:
            out = oracle.compute(tid, locs[tid], h=h, init_radius=8.0)
            others = [p for i, p in locs.items() if i != tid]
            truth = true_topk_cell(locs[tid], others, h, box)
            assert out.exact
            assert out.measure * box.area == pytest.approx(truth.area(), rel=1e-6)


class TestCoverageIdentity:
    """Every point of the region lies in exactly h top-h cells, so the
    exact top-h cell measures (fractions of the region) of all tuples
    sum to h: the identity Eq. 2's unbiasedness rests on for exact
    cells."""

    @pytest.mark.parametrize("world", ["tiny_db", "small_db"])
    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_top_h_measures_sum_to_h(self, request, box, world, h):
        db = request.getfixturevalue(world)
        api, hist, oracle = make_oracle(db, box, LrAggConfig(use_mc_bounds=False), k=5)
        measures = []
        for tid, loc in db.locations().items():
            out = oracle.compute(tid, loc, h=h)
            assert out.exact, tid
            measures.append(out.measure)
        assert abs(math.fsum(measures) - h) <= 1e-12


class TestMonteCarloFinish:
    def test_mc_unbiased_statistically(self, small_db, box):
        """Average MC inv-prob over repeats ≈ exact 1/p."""
        locs = small_db.locations()
        tid = 4
        others = [p for i, p in locs.items() if i != tid]
        truth_area = true_voronoi_cell(locs[tid], others, box).area()
        true_inv = box.area / truth_area

        estimates = []
        for seed in range(40):
            api, hist, oracle = make_oracle(
                small_db, box,
                LrAggConfig(use_mc_bounds=True, mc_tightness=0.5), seed=seed,
            )
            out = oracle.compute(tid, locs[tid], h=1, init_radius=8.0)
            estimates.append(out.inv_prob)
        mean = float(np.mean(estimates))
        # Loose tolerance: geometric trials are noisy at this sample size.
        assert mean == pytest.approx(true_inv, rel=0.35)

    # The two tuples whose doubled bounding box fits their cell most
    # tightly (p' = 0.42 and 0.35): the most trials land in the cell, so
    # the fewest seeds tell a biased estimate from an unbiased one.
    @pytest.mark.parametrize("tid", [13, 46])
    def test_mc_unbiased_over_a_loose_bound(self, small_db, box, tid):
        """The §3.2.4 finish run over an upper bound V' strictly looser
        than the cell V: the box twice V's bounding box in each dimension.
        The trial count r is geometric with success probability
        p' = F(V)/F(V'), so the mean of r/F(V') over n seeds is 1/F(V)
        with standard deviation sqrt(1 - p') / (p' F(V') sqrt(n))."""
        locs = small_db.locations()
        others = [p for i, p in locs.items() if i != tid]
        cell = true_voronoi_cell(locs[tid], others, box)
        bb = cell.bounding_rect()
        cx, cy, w, h = (bb.x0 + bb.x1) / 2, (bb.y0 + bb.y1) / 2, bb.width, bb.height
        upper = [ConvexPolygon.from_rect(Rect(cx - w, cy - h, cx + w, cy + h))]
        sampler = UniformSampler(box)
        api = LrLbsInterface(small_db, k=1)
        outs = [
            MonteCarloFinish(
                ObservationHistory(api), sampler, tid, locs[tid], 1, upper,
                np.random.default_rng(seed),
            ).run()
            for seed in range(150)
        ]
        f_cell = sampler.measure_polygon(cell)
        f_upper = outs[0].upper_measure
        p = f_cell / f_upper
        assert p < 1.0 and max(out.trials for out in outs) > 1
        sd = math.sqrt(1.0 - p) / (p * f_upper * math.sqrt(len(outs)))
        z = (float(np.mean([out.inv_prob for out in outs])) - 1.0 / f_cell) / sd
        assert abs(z) <= 3.0, z


class TestMaxRadius:
    def test_cell_clipped_by_service_disk(self, small_db, box):
        locs = small_db.locations()
        tid = 2
        radius = 3.0
        api, hist, oracle = make_oracle(small_db, box, max_radius=radius)
        out = oracle.compute(tid, locs[tid], h=1, init_radius=4.0)
        others = [p for i, p in locs.items() if i != tid]
        truth = true_voronoi_cell(locs[tid], others, box)
        clipped = polygon_disk_area(truth.vertices, locs[tid], radius)
        # Inscribed 256-gon approximation: within 0.1 % of the exact clip.
        assert out.measure * box.area == pytest.approx(clipped, rel=1e-3)


class TestBudget:
    def test_budget_exhaustion_propagates(self, small_db, box):
        api = LrLbsInterface(small_db, k=3, budget=QueryBudget(5))
        hist = ObservationHistory(api)
        oracle = TopHCellOracle(
            hist, UniformSampler(box), LrAggConfig(), np.random.default_rng(0)
        )
        with pytest.raises(BudgetExhausted):
            for tid in range(10):
                tt = small_db.get(tid)
                oracle.compute(tid, tt.location, h=1, init_radius=2.0)
