"""Lower-bound soundness (§3.2.4) and adaptive-h selection (§3.2.3)."""

import numpy as np

from repro.core import AdaptiveHSelector, LowerBoundTester, ObservationHistory, TopHCellOracle
from repro.core.config import LrAggConfig
from repro.geometry import Point
from repro.index import BruteForceIndex
from repro.lbs import LrLbsInterface
from repro.sampling import UniformSampler


class TestLowerBoundSoundness:
    def test_never_claims_outside_point(self, small_db, box):
        """certainly_inside must imply true top-h membership — always."""
        api = LrLbsInterface(small_db, k=4)
        hist = ObservationHistory(api)
        rng = np.random.default_rng(0)
        # Seed history with real answers.
        for _ in range(60):
            hist.query(box.sample(rng))
        index = BruteForceIndex(
            [(t.location.x, t.location.y, t.tid) for t in small_db]
        )
        for h in (1, 2):
            for tid in list(small_db.locations())[:10]:
                t_loc = small_db.get(tid).location
                tester = LowerBoundTester(hist, tid, t_loc, h)
                claims = 0
                for _ in range(120):
                    x = box.sample(rng)
                    if tester.certainly_inside(x):
                        claims += 1
                        topk = [i for _, i in index.knn(x.x, x.y, h)]
                        assert tid in topk, (tid, h, x)
        # (claims may be zero for sparsely-covered tuples: soundness only)

    def test_trivial_inside_at_tuple(self, small_db, box):
        api = LrLbsInterface(small_db, k=4)
        hist = ObservationHistory(api)
        t = small_db.get(0)
        tester = LowerBoundTester(hist, 0, t.location, 1)
        assert tester.certainly_inside(t.location)

    def test_claims_do_happen_with_rich_history(self, small_db, box):
        """With dense coverage the lower bound should fire sometimes
        (otherwise the optimization is dead code)."""
        api = LrLbsInterface(small_db, k=4)
        hist = ObservationHistory(api)
        rng = np.random.default_rng(1)
        for _ in range(300):
            hist.query(box.sample(rng))
        fired = 0
        for tid in list(small_db.locations())[:20]:
            t_loc = small_db.get(tid).location
            tester = LowerBoundTester(hist, tid, t_loc, 1)
            for _ in range(40):
                # Points near the tuple are most likely certifiable.
                x = Point(
                    t_loc.x + rng.normal(0, 1.0), t_loc.y + rng.normal(0, 1.0)
                )
                if box.contains(x) and tester.certainly_inside(x):
                    fired += 1
        assert fired > 0


class TestAdaptiveH:
    def _selector(self, db, box, k=5, lambda0=None):
        api = LrLbsInterface(db, k=k)
        config = LrAggConfig(adaptive_h=True, lambda0=lambda0)
        hist = ObservationHistory(api)
        oracle = TopHCellOracle(hist, UniformSampler(box), config, np.random.default_rng(0))
        return api, hist, AdaptiveHSelector(oracle, k, config)

    def test_lambdas_monotone_in_h(self, small_db, box):
        api, hist, selector = self._selector(small_db, box)
        rng = np.random.default_rng(0)
        for _ in range(30):
            hist.query(box.sample(rng))
        t = small_db.get(5)
        lambdas = selector.history_lambdas(t.location)
        values = [lambdas[h] for h in sorted(lambdas)]
        # Exactly, with no slack: the top-1 exit of choose() rests on it.
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_h_one_without_observations(self, small_db, box):
        api, hist, selector = self._selector(small_db, box)
        assert selector.choose(small_db.get(0).location) == 1

    def test_huge_lambda0_picks_max_h(self, small_db, box):
        api, hist, selector = self._selector(small_db, box, lambda0=1e9)
        rng = np.random.default_rng(0)
        for _ in range(10):
            hist.query(box.sample(rng))
        assert selector.choose(small_db.get(0).location) == 5

    def test_tiny_lambda0_picks_one(self, small_db, box):
        api, hist, selector = self._selector(small_db, box, lambda0=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(10):
            hist.query(box.sample(rng))
        assert selector.choose(small_db.get(0).location) == 1

    def test_adaptive_off_returns_config_h(self, small_db, box):
        api = LrLbsInterface(small_db, k=5)
        config = LrAggConfig(h=3, adaptive_h=False)
        hist = ObservationHistory(api)
        oracle = TopHCellOracle(hist, UniformSampler(box), config, np.random.default_rng(0))
        selector = AdaptiveHSelector(oracle, 5, config)
        assert selector.choose(small_db.get(0).location) == 3
