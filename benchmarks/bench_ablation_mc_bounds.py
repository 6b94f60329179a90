"""Extra ablation — the §3.2.4 Monte-Carlo finish on/off.

Not a paper figure on its own (it is the last rung of Fig. 20), but
DESIGN.md calls it out as a load-bearing design choice: the MC finish
must preserve the estimate while trimming refinement queries when the
bound is already tight.
"""

import numpy as np
from _bench_utils import run_once

from repro.core import AggregateQuery, LrLbsAgg, MaxSamples
from repro.core.config import LrAggConfig
from repro.lbs import LrLbsInterface
from repro.sampling import UniformSampler


def test_mc_bounds_ablation(benchmark, bench_world):
    query = AggregateQuery.count()
    truth = len(bench_world.db)
    sampler = UniformSampler(bench_world.region)

    def run_variant(use_mc: bool, seed: int):
        api = LrLbsInterface(bench_world.db, k=3)
        agg = LrLbsAgg(
            api, sampler, query,
            LrAggConfig(use_mc_bounds=use_mc, mc_tightness=0.25), seed=seed,
        )
        return agg.run(MaxSamples(60))

    def compute():
        on = [run_variant(True, s) for s in range(3)]
        off = [run_variant(False, s) for s in range(3)]
        return on, off

    on, off = run_once(benchmark, compute)
    est_on = float(np.mean([r.estimate for r in on]))
    est_off = float(np.mean([r.estimate for r in off]))
    print(f"MC on : est={est_on:.1f}  queries={[r.queries for r in on]}")
    print(f"MC off: est={est_off:.1f}  queries={[r.queries for r in off]}")
    # Both remain unbiased estimators of the same truth.
    assert abs(est_on - truth) / truth < 0.5
    assert abs(est_off - truth) / truth < 0.5
