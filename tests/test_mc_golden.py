"""Golden outputs of the iterated Monte Carlo, and the RNG property it relies on.

``mc_iterated_lazy`` must replay the same random stream however it is
organised internally, so every output below is pinned bit for bit, and the
batched static path and the adaptive path's lease-cycle draws are each
compared with a round-by-round reference: failure rounds, captured
assignments, ``mean_red_ratio``, the attack counters and peak capacity use.
Regenerate the data file only when the process itself is meant to change;
the script prints each config that moved against the committed file (an
added or dropped config counts as moved) and how many stayed the same:

    PYTHONPATH=src python tests/test_mc_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shardsim import analysis
from shardsim.adversary import AdversaryState, plan_attack
from shardsim.analysis import mc_iterated_lazy
from shardsim.crypto import stream

GOLDEN = Path(__file__).parent / "data" / "mc_iterated_golden.json"

# Small configs over all four strategies; each sets capture_rounds and
# stats_every. They cover m = 3, 4, 7 and 8, a one-round lease, leases
# longer than n (rounds with no movers), a non-default red fraction, runs
# with thousands of failing rounds, and greedy attacks larger than the free
# balls of the hottest or coldest bin.
CONFIGS = [
    dict(n=300, m=3, t_lease=4, rounds=400, strategy="none", seed=3,
         capture_rounds=(1, 2, 57, 400), stats_every=7),
    dict(n=400, m=8, t_lease=10, rounds=3000, strategy="static", seed=1,
         capture_rounds=(1, 5, 1234), stats_every=13),
    dict(n=200, m=4, t_lease=1, rounds=1500, strategy="static", seed=2,
         capture_rounds=(3, 1500), stats_every=1),
    dict(n=350, m=7, t_lease=3, rounds=2000, strategy="static", seed=4,
         red_fraction=0.3, capture_rounds=(2, 999), stats_every=10),
    dict(n=30, m=3, t_lease=50, rounds=500, strategy="static", seed=5,
         capture_rounds=(1, 49, 50, 51, 500), stats_every=3),
    dict(n=400, m=4, t_lease=5, rounds=1500, strategy="adaptive-greedy",
         t_takeover=5, seed=6, capture_rounds=(1, 6, 1500), stats_every=11),
    dict(n=300, m=3, t_lease=3, rounds=1000, strategy="adaptive-greedy",
         t_takeover=6, attack_size=7, seed=7, capture_rounds=(10,), stats_every=4),
    dict(n=500, m=8, t_lease=10, rounds=1500, strategy="adaptive-greedy",
         t_takeover=10, seed=8, capture_rounds=(700,), stats_every=9),
    dict(n=60, m=4, t_lease=2, rounds=600, strategy="adaptive-greedy",
         t_takeover=3, attack_size=12, seed=11, capture_rounds=(4, 600),
         stats_every=1),
    dict(n=400, m=4, t_lease=5, rounds=1000, strategy="adaptive-random",
         t_takeover=7, seed=9, capture_rounds=(1, 333), stats_every=5),
    dict(n=240, m=8, t_lease=2, rounds=800, strategy="adaptive-random",
         t_takeover=4, attack_size=40, seed=10, capture_rounds=(800,),
         stats_every=2),
]


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def record(kwargs: dict) -> dict:
    """The outputs of one run, in a JSON-comparable form."""
    res = mc_iterated_lazy(**kwargs)
    rounds = np.asarray(res.failure_rounds, dtype="<i8")
    captures = [
        str(r).encode() + np.asarray(res.captures[r], dtype="<i8").tobytes()
        for r in sorted(res.captures)
    ]
    return {
        "failures": res.failures,
        "first_failure_rounds": res.failure_rounds[:10],
        "failure_rounds_sha256": _digest([rounds.tobytes()]),
        "captures": sorted(res.captures),
        "captures_sha256": _digest(captures),
        "mean_red_ratio": res.mean_red_ratio.hex(),
        "attacks_launched": res.attacks_launched,
        "attacks_completed": res.attacks_completed,
        "capacity": res.capacity,
        "peak_capacity_used": res.peak_capacity_used,
    }


def _key(kwargs: dict) -> str:
    return json.dumps(kwargs, sort_keys=True)


@pytest.mark.parametrize("kwargs", CONFIGS, ids=lambda c: f"{c['strategy']}-m{c['m']}-s{c['seed']}")
def test_iterated_outputs_match_golden(kwargs):
    expected = json.loads(GOLDEN.read_text())[_key(kwargs)]
    assert record(kwargs) == expected


def _first_throw(n, m, t_lease, seed, n_red):
    """The stream, red mask, slot groups and round-1 bins, drawn in order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    red = np.zeros(n, dtype=bool)
    if n_red:
        red[rng.choice(n, size=n_red, replace=False)] = True
    slots = rng.integers(0, t_lease, n)
    groups = [np.flatnonzero(slots == s) for s in range(t_lease)]
    return rng, red, groups, rng.integers(0, m, n)


def _round_by_round(n, m, t_lease, rounds, strategy, seed, red_fraction,
                    capture_rounds, stats_every):
    """Reference: the static process one round and one draw call at a time."""
    n_red = 0 if strategy == "none" else int(red_fraction * n)
    rng, red, groups, bins = _first_throw(n, m, t_lease, seed, n_red)
    failures, captures, ratio_sum, ratio_count = [], {}, 0.0, 0
    for r in range(1, rounds + 1):
        movers = groups[r % t_lease]
        if r > 1 and movers.size:
            bins[movers] = rng.integers(0, m, movers.size)
        reds = np.bincount(bins[red], minlength=m)
        totals = np.bincount(bins, minlength=m)
        if ((3 * reds >= totals) & (reds > 0)).any():
            failures.append(r)
        if r in capture_rounds:
            captures[r] = bins.copy()
        if stats_every and r % stats_every == 0:
            occupied = totals > 0
            ratio_sum += float((reds[occupied] / totals[occupied]).sum())
            ratio_count += int(occupied.sum())
    return failures, captures, ratio_sum / ratio_count if ratio_count else 0.0


def _adaptive_round_by_round(n, m, t_lease, rounds, strategy, seed, red_fraction,
                             t_takeover, attack_size, capture_rounds, stats_every):
    """Reference: the adaptive process with one re-draw call per round.

    After the re-draw, each round lands due attacks, recounts the bins,
    checks failure once on the state it ends with, plans and launches, then
    captures and takes stats, in ``mc_iterated_lazy``'s order.
    """
    n_red = int(red_fraction * n)
    rng, red, groups, bins = _first_throw(n, m, t_lease, seed, n_red)
    if attack_size is None:
        attack_size = max(1, n_red // (2 * t_takeover))
    state = AdversaryState(red, bins, m, t_takeover)
    failures, captures, ratio_sum, ratio_count = [], {}, 0.0, 0

    for r in range(1, rounds + 1):
        movers = groups[r % t_lease]
        if r > 1 and movers.size:
            bins[movers] = rng.integers(0, m, movers.size)
        state.complete_due(r)
        state.recount()
        reds, totals = np.array(state.red_counts), np.array(state.totals)
        if ((3 * reds >= totals) & (reds > 0)).any():
            failures.append(r)
        plan = plan_attack(strategy, state, attack_size, rng)
        if plan is not None:
            state.launch(*plan, r)
        if r in capture_rounds:
            captures[r] = bins.copy()
        if stats_every and r % stats_every == 0:
            reds, totals = np.array(state.red_counts), np.array(state.totals)
            occupied = totals > 0
            ratio_sum += float((reds[occupied] / totals[occupied]).sum())
            ratio_count += int(occupied.sum())
    mean_ratio = ratio_sum / ratio_count if ratio_count else 0.0
    return failures, captures, mean_ratio, state.launched, state.completed


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(1, 9),
    t_lease=st.integers(1, 12),
    t_takeover=st.integers(1, 18),
    rounds=st.integers(1, 120),
    strategy=st.sampled_from(["adaptive-greedy", "adaptive-random"]),
    seed=st.integers(0, 2**16),
    red_fraction=st.sampled_from([0.0, 0.25, 0.4]),
    attack_size=st.one_of(st.none(), st.integers(1, 20)),
    capture_rounds=st.sets(st.integers(0, 125), max_size=5),
    stats_every=st.integers(0, 6),
)
def test_adaptive_cycles_match_round_by_round(**kwargs):
    # Leases longer than n leave slot groups empty, most runs end part-way
    # through a lease cycle, and attacks land below, at and above the lease.
    res = mc_iterated_lazy(**kwargs)
    failures, captures, mean_ratio, launched, completed = _adaptive_round_by_round(**kwargs)
    assert res.failure_rounds == failures
    assert sorted(res.captures) == sorted(captures)
    for r, bins in captures.items():
        assert np.array_equal(res.captures[r], bins)
    assert res.mean_red_ratio == mean_ratio
    assert (res.attacks_launched, res.attacks_completed) == (launched, completed)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(1, 9),
    t_lease=st.integers(1, 12),
    rounds=st.integers(1, 120),
    strategy=st.sampled_from(["none", "static"]),
    seed=st.integers(0, 2**16),
    red_fraction=st.sampled_from([0.0, 0.25, 0.4]),
    capture_rounds=st.sets(st.integers(0, 125), max_size=5),
    stats_every=st.integers(0, 6),
    block_draws=st.integers(1, 200),
)
def test_static_batches_match_round_by_round(block_draws, **kwargs):
    # Small blocks make most runs span many blocks, with blocks longer and
    # shorter than one lease and splits at every capture round.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK_DRAWS", block_draws)
        res = mc_iterated_lazy(**kwargs)
    failures, captures, mean_ratio = _round_by_round(**kwargs)
    assert res.failure_rounds == failures
    assert sorted(res.captures) == sorted(captures)
    for r, bins in captures.items():
        assert np.array_equal(res.captures[r], bins)
    assert res.mean_red_ratio == mean_ratio


@pytest.mark.parametrize("m", [3, 4, 7, 8])
def test_bounded_draws_concatenate(m):
    # One integers(0, m, total) call yields exactly the values of a
    # sequence of calls whose sizes sum to total, so a block of rounds can
    # draw all its re-throws at once without moving the stream.
    sizes = [1, 7, 0, 13, 200, 3, 1001, 5, 64, 2]
    chunked, batched = stream(m, "iterated"), stream(m, "iterated")
    parts = [chunked.integers(0, m, size) for size in sizes]
    whole = batched.integers(0, m, sum(sizes))
    assert whole.dtype == parts[0].dtype == np.int64
    assert np.array_equal(np.concatenate(parts), whole)
    # Both generators are left in the same state.
    assert chunked.integers(0, 2**62, 4).tolist() == batched.integers(0, 2**62, 4).tolist()


if __name__ == "__main__":
    data = {_key(kwargs): record(kwargs) for kwargs in CONFIGS}
    before = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    keys = sorted({*data, *before})
    moved = [key for key in keys if data.get(key) != before.get(key)]
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} configs to {GOLDEN}")
    for key in moved:
        print(f"moved: {key}")
    print(f"{len(moved)} configs moved, {len(keys) - len(moved)} unchanged")
