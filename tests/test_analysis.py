"""Bound formulas and the balls-into-bins Monte Carlo machinery."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from shardsim.analysis import (
    ROUNDS_PER_MILLION_YEARS,
    IteratedBinsResult,
    analytic_failure_bound,
    bound_table,
    chernoff_tail_bounds,
    log10_failure_bound,
    log10_million_year_bound,
    mc_iterated_lazy,
    mc_static_failure_rate,
    million_year_bound,
    wilson_interval,
)

from binslib import CONTROL_SEEDS, takeover_edge

LOG10_E = math.log10(math.e)


# -- analytic bounds ----------------------------------------------------------


def test_tail_bounds_formula():
    for n, m in ((6000, 4), (400, 4), (150_000_000, 10_000)):
        blue_tail, red_tail = chernoff_tail_bounds(n, m)
        assert blue_tail == pytest.approx(math.exp(-n / (96 * m)), rel=1e-12)
        assert red_tail == pytest.approx(math.exp(-n / (144 * m)), rel=1e-12)


def test_failure_bound_formula():
    for n, m in ((6000, 4), (2000, 4), (7_000_000, 700)):
        expected = 2 * m * math.exp(-n / (144 * m))
        assert analytic_failure_bound(n, m) == pytest.approx(expected, rel=1e-12)


def test_failure_bound_small_case_value():
    # 8 * exp(-6000/576), roughly 2.4e-4.
    bound = analytic_failure_bound(6000, 4)
    assert bound == pytest.approx(8 * math.exp(-6000 / 576), rel=1e-12)
    assert 2.3e-4 < bound < 2.45e-4


def test_single_shard_bound_formula():
    for n in (100, 6000):
        assert analytic_failure_bound(n, 1) == pytest.approx(
            2 * math.exp(-n / 144), rel=1e-12
        )


def test_log10_bound_matches_log_space_recomputation():
    for n, m in ((150_000_000, 10_000), (7_000_000, 700), (6000, 4)):
        expected = math.log10(2 * m) - (n / (144 * m)) * LOG10_E
        got = log10_failure_bound(n, m)
        assert abs(got - expected) / abs(expected) < 1e-6


def test_headline_rows():
    # Large deployment rows: per-round bounds below 1e-40 and 1e-27, and
    # million-year union bounds below 1e-15 for both.
    assert log10_failure_bound(15_000 * 10_000, 10_000) < -40
    assert log10_failure_bound(10_000 * 700, 700) < -27
    assert log10_million_year_bound(15_000 * 10_000, 10_000) < -15
    assert log10_million_year_bound(10_000 * 700, 700) < -15


def test_million_year_bound_values():
    assert million_year_bound(0.0) == 0.0
    assert million_year_bound(1e-40) == pytest.approx(5.26e-29, rel=1e-9)
    assert million_year_bound(1e-40) < 1e-15
    assert million_year_bound(1e-27) == pytest.approx(5.26e-16, rel=1e-9)
    assert million_year_bound(1e-27) < 1e-15
    assert ROUNDS_PER_MILLION_YEARS == pytest.approx(5.26e11)


def test_million_year_bound_rejects_non_probability():
    with pytest.raises(ValueError):
        million_year_bound(-0.1)
    with pytest.raises(ValueError):
        million_year_bound(1.5)


@pytest.mark.parametrize("n, m", [(400, 4), (1000, 8), (6000, 4)])
def test_bound_table_million_year_forms_agree(n, m):
    # A per-round bound above 1 is clamped to 1 in both forms.
    (row,) = bound_table([(n, m)])
    assert 10 ** row["log10_million_year"] == pytest.approx(row["million_year_bound"], rel=1e-9)


def test_bound_table_rows():
    rows = bound_table([(150_000_000, 10_000), (6000, 4)])
    assert [((r["n"], r["m"])) for r in rows] == [(150_000_000, 10_000), (6000, 4)]
    for row in rows:
        assert row["log10_per_round"] == pytest.approx(
            log10_failure_bound(row["n"], row["m"]), rel=1e-12
        )
        assert row["log10_million_year"] == pytest.approx(
            row["log10_per_round"] + math.log10(ROUNDS_PER_MILLION_YEARS), rel=1e-9
        )
    # The small row is also representable linearly.
    assert rows[1]["per_round_bound"] == pytest.approx(
        analytic_failure_bound(6000, 4), rel=1e-12
    )


# -- Wilson interval ----------------------------------------------------------


def test_wilson_interval_against_direct_formula():
    z = 1.96
    for successes, trials in ((0, 100), (3, 1000), (500, 1000), (999, 1000)):
        low, high = wilson_interval(successes, trials)
        p = successes / trials
        denom = 1 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        half = (z / denom) * math.sqrt(
            p * (1 - p) / trials + z * z / (4 * trials * trials)
        )
        assert low == pytest.approx(max(0.0, center - half), abs=1e-12)
        assert high == pytest.approx(min(1.0, center + half), abs=1e-12)
        assert 0.0 <= low <= high <= 1.0


def test_wilson_interval_zero_successes():
    low, high = wilson_interval(0, 10**6)
    assert low == 0.0
    assert 0 < high < 1e-5


def test_wilson_requires_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# -- static Monte Carlo -------------------------------------------------------


def test_static_single_bin_never_fails():
    res = mc_static_failure_rate(400, 1, trials=2000, seed=1)
    assert res.failures == 0
    assert res.mean_red_ratio == pytest.approx(0.25)


def test_static_small_n_fails_sometimes_but_below_bound():
    res = mc_static_failure_rate(400, 4, trials=20_000, seed=2)
    assert res.failures > 0
    assert res.wilson_high <= res.analytic_bound
    assert res.rate < res.analytic_bound


def test_static_mean_red_ratio_near_quarter():
    res = mc_static_failure_rate(6000, 4, trials=5000, seed=3)
    # Dispersion of the per-bin ratio mean, measured from the trial count.
    assert abs(res.mean_red_ratio - 0.25) < 0.005


def test_static_rejects_bad_fraction():
    with pytest.raises(ValueError):
        mc_static_failure_rate(100, 2, red_fraction=1.0)


@pytest.mark.parametrize("row", [(0, 4), (6000, 0)])
def test_bound_table_rejects_nonpositive_rows(row):
    with pytest.raises(ValueError):
        bound_table([row])


def test_static_memory_does_not_grow_with_m():
    # A batch caps (trial, bin) cells, not trials: 4000 trials of 1000 bins
    # peaked at 187.5 MiB when only trials were capped.
    tracemalloc.start()
    try:
        mc_static_failure_rate(6000, 1000, trials=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, peak


def test_static_reproducible():
    a = mc_static_failure_rate(400, 4, trials=5000, seed=7)
    b = mc_static_failure_rate(400, 4, trials=5000, seed=7)
    assert a == b


# -- iterated Monte Carlo -----------------------------------------------------


def test_iterated_rejects_bad_config():
    with pytest.raises(ValueError):
        mc_iterated_lazy(100, 2, 5, 10, strategy="bogus")
    with pytest.raises(ValueError):
        mc_iterated_lazy(100, 2, 5, 10, strategy="adaptive-greedy")
    with pytest.raises(ValueError):
        mc_iterated_lazy(100, 2, 0, 10)
    with pytest.raises(ValueError):
        mc_iterated_lazy(0, 2, 5, 10)
    with pytest.raises(ValueError):
        mc_iterated_lazy(100, 0, 5, 10)
    # A takeover shorter than the lease is valid input: the futility claim
    # does not cover it, but the process is well defined.
    res = mc_iterated_lazy(100, 2, 5, 10, strategy="adaptive-greedy", t_takeover=3)
    assert res.attacks_completed > 0


_ADAPTIVE = dict(strategy="adaptive-greedy", t_takeover=5)


@pytest.mark.parametrize(
    "bad",
    [
        dict(_ADAPTIVE, attack_size=0),
        dict(_ADAPTIVE, attack_size=-3),
        # Zero divides in the attack_size default, and a takeover below 1
        # launches attacks that never land.
        dict(_ADAPTIVE, t_takeover=0, attack_size=2),
        dict(_ADAPTIVE, t_takeover=-2),
        dict(_ADAPTIVE, red_fraction=-0.1),
        dict(_ADAPTIVE, red_fraction=1.0),
        # Keys only the adaptive strategies read.
        dict(strategy="static", t_takeover=5),
        dict(strategy="static", attack_size=3),
        dict(strategy="none", t_takeover=5),
        dict(strategy="none", attack_size=3),
    ],
    ids=[
        "attack_size=0", "attack_size=-3", "t_takeover=0", "t_takeover=-2",
        "red_fraction=-0.1", "red_fraction=1",
        "static-t_takeover", "static-attack_size", "none-t_takeover", "none-attack_size",
    ],
)
def test_iterated_rejects_bad_attack_size_and_fraction(bad):
    with pytest.raises(ValueError):
        mc_iterated_lazy(100, 2, 5, 10, **bad)


@pytest.mark.parametrize("path", [dict(strategy="static"), _ADAPTIVE], ids=["batched", "adaptive"])
def test_iterated_rejects_negative_stats_every(path):
    # Unchecked, a negative step counts no round on the batched path and
    # every third round on the adaptive one.
    with pytest.raises(ValueError, match="stats_every"):
        mc_iterated_lazy(200, 4, 5, 10, stats_every=-3, **path)


def test_iterated_none_strategy_has_no_reds():
    res = mc_iterated_lazy(500, 4, 5, 200, strategy="none", seed=1)
    assert res.failures == 0
    assert res.capacity == 0


def test_iterated_static_small_run():
    res = mc_iterated_lazy(
        2000, 4, 10, 2000, strategy="static", seed=4, stats_every=50
    )
    assert res.attacks_launched == 0
    assert 0.2 < res.mean_red_ratio < 0.3
    assert res.failures == len(res.failure_rounds)
    assert all(1 <= r <= 2000 for r in res.failure_rounds)


def test_iterated_capture_rounds():
    res = mc_iterated_lazy(
        1000, 4, 5, 100, strategy="static", seed=5, capture_rounds=(1, 50, 100)
    )
    assert set(res.captures) == {1, 50, 100}
    for bins in res.captures.values():
        assert bins.shape == (1000,)
        assert bins.min() >= 0 and bins.max() < 4
    assert not np.array_equal(res.captures[1], res.captures[100])


def test_iterated_lease_one_reshuffles_everyone():
    # With t_lease = 1 consecutive captures are fresh uniform throws:
    # nothing persists, so the overlap matches independent assignments.
    res = mc_iterated_lazy(
        20_000, 4, 1, 3, strategy="static", seed=6, capture_rounds=(2, 3)
    )
    same = (res.captures[2] == res.captures[3]).mean()
    assert abs(same - 0.25) < 0.02


def test_iterated_lease_staggers_reshuffles():
    # With t_lease = 5 exactly one slot group moves per round.
    res = mc_iterated_lazy(
        20_000, 4, 5, 3, strategy="static", seed=7, capture_rounds=(2, 3)
    )
    same = (res.captures[2] == res.captures[3]).mean()
    # Four fifths of the balls hold still; movers keep their bin 1/4 of
    # the time: expected overlap 0.8 + 0.2/4 = 0.85.
    assert abs(same - 0.85) < 0.02


def test_iterated_static_distribution_matches_round_one():
    # Bin counts far into the run come from the same distribution as the
    # initial throw.
    res = mc_iterated_lazy(
        10_000, 4, 5, 500, strategy="static", seed=8, capture_rounds=(1, 500)
    )
    first = np.bincount(res.captures[1], minlength=4)
    later = np.bincount(res.captures[500], minlength=4)
    table = np.stack([first, later])
    chi2, pvalue, _, _ = scipy.stats.chi2_contingency(table)
    assert pvalue > 0.01, table


def test_iterated_adaptive_respects_capacity():
    res = mc_iterated_lazy(
        800,
        4,
        5,
        400,
        strategy="adaptive-greedy",
        t_takeover=5,
        seed=9,
    )
    assert res.capacity == 200
    assert res.peak_capacity_used == res.capacity
    assert res.attacks_launched >= res.attacks_completed > 0


def test_iterated_adaptive_random_runs():
    res = mc_iterated_lazy(
        800,
        4,
        5,
        200,
        strategy="adaptive-random",
        t_takeover=8,
        seed=10,
    )
    assert res.peak_capacity_used == res.capacity
    assert res.attacks_completed > 0


@pytest.mark.parametrize("seed", CONTROL_SEEDS)
@pytest.mark.parametrize(
    ("t_takeover", "edge"), [(9, True), (10, False)], ids=["below-lease", "at-lease"]
)
def test_takeover_control_edge_below_lease_only(t_takeover, edge, seed):
    # Criterion 10's control. One lease step below the lease, greedy lands
    # some attacks before their targets re-draw, and beats random. At the
    # lease every target and release re-draws between launch and landing,
    # so targeting buys nothing.
    greedy, random, pvalue = takeover_edge(t_takeover, seed)
    assert (pvalue <= 0.01) if edge else (pvalue > 0.05), (greedy, random, pvalue)


def test_iterated_reproducible():
    kwargs = dict(strategy="adaptive-greedy", t_takeover=6, seed=11)
    a = mc_iterated_lazy(600, 4, 3, 300, **kwargs)
    b = mc_iterated_lazy(600, 4, 3, 300, **kwargs)
    assert a.failure_rounds == b.failure_rounds
    assert a.attacks_launched == b.attacks_launched
    assert a.mean_red_ratio == b.mean_red_ratio

