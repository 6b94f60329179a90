"""The adaptive-h top-1 exit (§3.2.3) must pick the h the full λ rule picks.

``AdaptiveHSelector.choose`` settles h = 1 from a level-0 history region
when the top-1 cell alone measures more than λ0; every other case reads
``history_lambdas``.  These tests hold it to the full rule, spelled out
below from ``history_lambdas`` as the reference.
"""

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core import (
    AdaptiveHSelector, AggregateQuery, LrLbsAgg, MaxSamples, ObservationHistory, TopHCellOracle,
)
from repro.core.config import LrAggConfig
from repro.lbs import LrLbsInterface
from repro.sampling import UniformSampler


def full_rule(lambdas: dict, lambda0: float) -> int:
    """The largest h in [2, k] with λ_h ≤ λ0, else 1."""
    best = 1
    for h in range(2, len(lambdas) + 1):
        if lambdas[h] <= lambda0:
            best = h
    return best


def top1_measure(selector, t_loc, upto=None) -> float:
    region = selector.oracle.history_region(t_loc, 1, upto)
    return sum(selector.oracle.sampler.measure_polygon(p) for p in region.pieces.values())


def adaptive_agg(db, box, k, seed):
    return LrLbsAgg(
        LrLbsInterface(db, k=k), UniformSampler(box), AggregateQuery.count(),
        LrAggConfig(adaptive_h=True), seed=seed,
    )


def spy_on(agg) -> list:
    """Log every λ-rule ``choose`` call of ``agg``, at call time, as a dict:
    its ``h``, whether it read ``history_lambdas`` (``full``), the
    measures of its level-0 builds (``top1``), and the reference
    ``lambdas`` and ``lambda0``."""
    selector, oracle = agg.selector, agg.oracle
    choose, lambdas = selector.choose, selector.history_lambdas
    history_region = oracle.history_region
    measure = oracle.sampler.measure_polygon
    log, call = [], {}

    def spy_lambdas(t_loc, upto=None):
        call["full"] = True
        return lambdas(t_loc, upto)

    def spy_region(t_loc, h, upto=None):
        region = history_region(t_loc, h, upto)
        if h == 1:
            call["top1"].append(sum(measure(p) for p in region.pieces.values()))
        return region

    def spy_choose(t_loc, upto=None):
        call.update(full=False, top1=[])
        h = choose(t_loc, upto)
        lambda0 = selector._lambda0()
        if lambda0 is not None:
            log.append(dict(call, h=h, lambdas=lambdas(t_loc, upto), lambda0=lambda0))
        return h

    selector.choose = spy_choose
    selector.history_lambdas = spy_lambdas
    oracle.history_region = spy_region
    return log


def selector_on(history, box, k, lambda0):
    config = LrAggConfig(adaptive_h=True, lambda0=lambda0)
    oracle = TopHCellOracle(history, UniformSampler(box), config, np.random.default_rng(0))
    return AdaptiveHSelector(oracle, k, config)


class TestTop1Exit:
    @pytest.mark.parametrize("k", [3, 5])
    def test_choose_matches_full_rule(self, small_db, box, k):
        paths = Counter()
        for seed in (0, 1):
            agg = adaptive_agg(small_db, box, k, seed)
            log = spy_on(agg)
            agg.run(MaxSamples(20))
            for call in log:
                assert call["h"] == full_rule(call["lambdas"], call["lambda0"]), call
                if call["full"]:
                    paths["full"] += 1
                else:
                    paths["top1"] += 1
                    # The exit's level-0 measure is the full build's λ_1.
                    assert call["top1"] == [call["lambdas"][1]]
        assert paths["top1"] > 0 and paths["full"] > 0, paths

    # λ0 below the top-1 cell, where only the guard keeps the exit out,
    # and between the top-1 cell and the base.
    @pytest.mark.parametrize("between", ["zero_and_top1", "top1_and_base"])
    def test_guard_with_fewer_than_k_ranked_sites(self, small_db, box, between):
        """With k - 1 ranked sites the level-(k-1) build is the whole base
        as one piece violating every constraint, so λ_1 = 0 although the
        top-1 cell is smaller than the base."""
        k = 3
        t = small_db.get(0).location
        history = ObservationHistory(LrLbsInterface(small_db, k=k))
        history.query(t)  # t itself and its k - 1 nearest neighbours
        probe = selector_on(history, box, k, lambda0=None)
        lambdas = probe.history_lambdas(t)
        m0 = top1_measure(probe, t)
        assert lambdas[1] == lambdas[k - 1] == 0.0 < m0 < lambdas[k]
        lambda0 = m0 / 2.0 if between == "zero_and_top1" else (m0 + lambdas[k]) / 2.0
        assert full_rule(lambdas, lambda0) == 2
        assert selector_on(history, box, k, lambda0).choose(t) == 2

    def test_later_rows_do_not_move_the_choice(self, small_db, box):
        """h may read the history's first ``upto`` rows only (Eq. 2's
        unbiasedness): sites recorded later must not change it."""
        k = 3
        t = small_db.get(0).location
        past = ObservationHistory(LrLbsInterface(small_db, k=k))
        past.query(t)
        upto = len(past.locations)
        later = ObservationHistory(LrLbsInterface(small_db, k=k))
        later.query(t)
        rng = np.random.default_rng(0)
        for _ in range(40):
            later.query(box.sample(rng))
        assert len(later.locations) > upto
        # λ0 below the top-1 cell over every row: an exit that read the
        # later rows would take it, past its guard.
        lambda0 = top1_measure(selector_on(later, box, k, None), t) / 2.0
        h_past = selector_on(past, box, k, lambda0).choose(t, upto)
        on_later = selector_on(later, box, k, lambda0)
        assert h_past == on_later.choose(t, upto)
        assert h_past == full_rule(on_later.history_lambdas(t, upto), lambda0)

    def test_counts_match_history_lambdas_calls(self, small_db, box):
        agg = adaptive_agg(small_db, box, 5, seed=0)
        log = spy_on(agg)
        with obs.collecting() as reg:
            agg.run(MaxSamples(20))
        counted = Counter()
        for key, value in reg.series("adaptive_h_choices_total").items():
            labels = dict(key)
            counted[labels["path"], int(labels["h"])] = value
        expected = Counter(("full" if call["full"] else "top1", call["h"]) for call in log)
        assert counted == expected
        assert expected["top1", 1] > 0

    def test_estimate_same_with_registry_on_or_paused(self, small_db, box):
        with obs.collecting() as reg:
            on = adaptive_agg(small_db, box, 3, seed=4).run(MaxSamples(20))
        with obs.paused():
            off = adaptive_agg(small_db, box, 3, seed=4).run(MaxSamples(20))
        assert reg.series("adaptive_h_choices_total")
        assert (on.estimate, on.queries, on.samples) == (off.estimate, off.queries, off.samples)
