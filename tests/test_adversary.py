"""The red-set rule, and attack bookkeeping: a budget of seeded reds,
one-for-one trades, exact completion."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shardsim.adversary import AdversaryState, AttackError, draw_red, plan_attack
from shardsim.analysis import mc_iterated_lazy
from shardsim.crypto import stream
from shardsim.simulation import RunConfig, Simulation


def _state(n=20, t_takeover=3, reds=(0, 1, 2, 3, 4), bins=None, m=1):
    red = np.zeros(n, dtype=bool)
    red[list(reds)] = True
    return AdversaryState(red, np.zeros(n, dtype=int) if bins is None else bins, m, t_takeover)


@pytest.mark.parametrize(
    ("n", "fraction", "reds"),
    [(100, 0.29, 28), (400, 0.25, 100), (7, 0.5, 3), (40, 0.99, 39), (3, 0.3, 0), (9, 0.0, 0)],
)
def test_draw_red_takes_the_truncated_share(n, fraction, reds):
    # int(0.29 * 100) is 28: the share truncates, in floating point.
    red = draw_red(stream(5, "adversary"), n, fraction)
    assert red.dtype == bool and red.shape == (n,)
    assert int(red.sum()) == reds


def test_draw_red_of_no_reds_draws_nothing():
    rng = stream(3, "iterated")
    assert not draw_red(rng, 9, 0.1).any()
    assert rng.random(4).tolist() == stream(3, "iterated").random(4).tolist()


@pytest.mark.parametrize(("n", "fraction"), [(40, 0.25), (100, 0.29), (7, 0.3), (12, 0.0)])
def test_protocol_and_bins_seed_as_many_reds(n, fraction):
    # The simulator's Byzantine set and the bins' budget follow one rule.
    sim = Simulation(RunConfig(n=n, byzantine_fraction=fraction, rounds=0))
    bins = mc_iterated_lazy(n, 2, 1, 1, red_fraction=fraction)
    assert len(sim.red) == bins.capacity == int(fraction * n)


def _pending(state):
    return ~state.red & ~state.free_blue, state.red & ~state.free_red


def test_launch_and_complete_swap_colors():
    state = _state()
    assert state.launch(np.array([5, 6]), np.array([0, 1]), round=2) is None
    # Targets stay blue and releases red until completion; neither is free.
    assert not state.red[[5, 6]].any() and not state.free_blue[[5, 6]].any()
    assert state.red[[0, 1]].all() and not state.free_red[[0, 1]].any()
    assert int(state.red.sum()) == 5
    targeted, released = _pending(state)
    assert np.flatnonzero(targeted).tolist() == [5, 6]
    assert np.flatnonzero(released).tolist() == [0, 1]

    # Launched at round 2 with t_takeover 3: nothing lands at round 4, all at 5.
    for r in (3, 4):
        red = state.red.copy()
        assert state.complete_due(r) is None
        assert np.array_equal(state.red, red)
        now_targeted, now_released = _pending(state)
        assert np.array_equal(now_targeted, targeted)
        assert np.array_equal(now_released, released)
        assert state.completed == 0
    assert state.complete_due(5) is None
    assert state.red[[5, 6]].all()
    assert not state.red[[0, 1]].any()
    # With no attack in flight, every ball is free.
    assert not any(mask.any() for mask in _pending(state))
    assert np.array_equal(state.free_blue, ~state.red)
    assert np.array_equal(state.free_red, state.red)
    assert state.completed == 1
    state.complete_due(5)  # a landed attack lands once
    assert state.completed == 1


@pytest.mark.parametrize("t_takeover", [0, -2])
def test_takeover_below_one_rejected(t_takeover):
    # Such an attack would be due at a round already passed and never land.
    with pytest.raises(ValueError, match="t_takeover"):
        _state(t_takeover=t_takeover)


def test_red_population_conserved_by_completion():
    state = _state()
    before = int(state.red.sum())
    state.launch(np.array([7, 8, 9]), np.array([2, 3, 4]), round=1)
    assert int(state.red.sum()) == before
    state.complete_due(4)
    assert int(state.red.sum()) == before


def test_mismatched_sizes_rejected():
    state = _state()
    with pytest.raises(AttackError):
        state.launch(np.array([5, 6]), np.array([0]), round=1)
    with pytest.raises(AttackError):
        state.launch(np.array([], dtype=int), np.array([], dtype=int), round=1)


def test_target_must_be_blue_and_free():
    state = _state()
    with pytest.raises(AttackError):
        state.launch(np.array([0]), np.array([1]), round=1)  # red target
    state.launch(np.array([5]), np.array([0]), round=1)
    with pytest.raises(AttackError):
        state.launch(np.array([5]), np.array([1]), round=1)  # already attacked


def test_release_must_be_active_controlled():
    state = _state()
    with pytest.raises(AttackError):
        state.launch(np.array([5]), np.array([6]), round=1)  # blue release
    state.launch(np.array([5]), np.array([0]), round=1)
    with pytest.raises(AttackError):
        state.launch(np.array([6]), np.array([0]), round=1)  # already released


def _snapshot(state):
    """Every field of ``state`` keyed by name, pending attacks as lists."""
    snap = {f.name: copy.deepcopy(getattr(state, f.name)) for f in dataclasses.fields(state)}
    snap["_due"] = {
        r: [(t.tolist(), s.tolist()) for t, s in attacks] for r, attacks in state._due.items()
    }
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k] for k in a
    )


def test_repeated_targets_or_releases_rejected():
    # Naming a ball twice would trade two releases for one target and
    # break the one-for-one count.
    state = _state()
    before = _snapshot(state)
    with pytest.raises(AttackError):
        state.launch(np.array([5, 5]), np.array([0, 1]), round=1)
    with pytest.raises(AttackError):
        state.launch(np.array([5, 6]), np.array([0, 0]), round=1)
    with pytest.raises(AttackError):
        state.launch(np.array([-1, 19]), np.array([0, 1]), round=1)  # ball 19 twice
    assert _same(_snapshot(state), before)
    state.launch(np.array([5, 6]), np.array([0, 1]), round=1)
    state.complete_due(4)
    assert int(state.red.sum()) == 5


def test_plan_attack_greedy_targets_hottest_bin():
    # Red ratios: bin 0 = 2/8 (coldest, holds two reds to retire),
    # bin 1 = 5/8 (hottest, three free blues), bin 2 = 2/4.
    bins = np.array([0] * 8 + [1] * 8 + [2] * 4)
    state = _state(reds=(0, 1, 8, 9, 10, 11, 12, 16, 17), bins=bins, m=3)
    rng = np.random.default_rng(0)
    plan = plan_attack("adaptive-greedy", state, 2, rng)
    assert plan is not None
    targets, releases = plan
    assert len(targets) == len(releases) == 2
    assert set(bins[targets]) == {1}          # blue balls in the hot bin
    assert set(bins[releases]) == {0}         # reds from the cold bin
    state.launch(targets, releases, round=1)  # plan is actually launchable


def test_plan_attack_random_is_launchable():
    state = _state()
    rng = np.random.default_rng(1)
    plan = plan_attack("adaptive-random", state, 3, rng)
    targets, releases = plan
    assert len(targets) == 3
    assert not state.red[targets].any()
    assert state.red[releases].all()
    state.launch(targets, releases, round=1)


def test_plan_attack_none_when_nothing_to_trade():
    rng = np.random.default_rng(2)
    no_reds = _state(n=10, reds=())
    assert plan_attack("adaptive-greedy", no_reds, 4, rng) is None
    all_red = _state(n=3, reds=range(3))
    assert plan_attack("adaptive-greedy", all_red, 4, rng) is None


@pytest.mark.parametrize("strategy", ["adaptive-greedy", "adaptive-random"])
@pytest.mark.parametrize(("n", "reds", "size"), [(20, (0, 1), 4), (6, (0, 1, 2, 3, 4), 4)])
def test_plan_attack_trades_as_many_as_the_scarcer_side(strategy, n, reds, size):
    state = _state(n=n, reds=reds)
    targets, releases = plan_attack(strategy, state, size, np.random.default_rng(4))
    assert targets.size == releases.size == min(size, n - len(reds), len(reds))
    state.launch(targets, releases, round=1)


def test_plan_attack_unknown_strategy():
    state = _state()
    rng = np.random.default_rng(3)
    with pytest.raises(AttackError):
        plan_attack("static", state, 2, rng)
    # The strategy is checked before the free balls are.
    with pytest.raises(AttackError, match="no attack planner"):
        plan_attack("static", _state(n=10, reds=()), 2, rng)


class _Model:
    """Each ball's status, kept apart from the state under test: seeded or
    landed (red), targeted, released, driven by the launches the test makes
    and the completions that fall due."""

    def __init__(self, n, t_takeover):
        self.t_takeover = t_takeover
        self.red = np.zeros(n, dtype=bool)
        self.targeted = np.zeros(n, dtype=bool)
        self.released = np.zeros(n, dtype=bool)
        self.due = {}

    def allows(self, targets, releases):
        """One-for-one, each ball once by its index, free blue targets, free red releases."""
        free_blue, free_red = self.free()
        balls = targets.tolist() + releases.tolist()
        return (
            0 < targets.size == releases.size
            and min(balls) >= 0
            and len(set(balls)) == len(balls)
            and free_blue[targets].all()
            and free_red[releases].all()
        )

    def launch(self, targets, releases, r):
        self.targeted[targets] = True
        self.released[releases] = True
        self.due.setdefault(r + self.t_takeover, []).append((targets, releases))

    def complete(self, r):
        for targets, releases in self.due.pop(r, []):
            self.targeted[targets] = False
            self.red[targets] = True
            self.released[releases] = False
            self.red[releases] = False

    def free(self):
        return ~self.red & ~self.targeted, self.red & ~self.released


def _check_against_model(state, model, bins, m):
    free_blue, free_red = model.free()
    assert np.array_equal(state.red, model.red)
    assert np.array_equal(state.free_blue, free_blue)
    assert np.array_equal(state.free_red, free_red)
    assert state.red_counts == np.bincount(bins[model.red], minlength=m).tolist()
    assert state.totals == np.bincount(bins, minlength=m).tolist()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_maintained_state_matches_recomputation(data):
    """Random launches (valid, planned and rejected), completions and moves
    leave the colors, free masks and per-bin counts (taken after each
    round's landings) equal to those of a model that tracks each ball's
    status."""
    n = data.draw(st.integers(2, 24), label="n")
    m = data.draw(st.integers(1, 5), label="m")
    n_red = data.draw(st.integers(0, n), label="n_red")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    t_takeover = data.draw(st.integers(1, 4), label="t_takeover")
    model = _Model(n, t_takeover)
    bins = rng.integers(0, m, n)
    seeded = rng.choice(n, size=n_red, replace=False)
    model.red[seeded] = True
    state = AdversaryState(model.red.copy(), bins, m, t_takeover)
    _check_against_model(state, model, bins, m)

    ball = st.integers(0, n - 1)
    for r in range(1, data.draw(st.integers(1, 10), label="rounds") + 1):
        movers = data.draw(st.lists(ball, unique=True, max_size=n), label="movers")
        if movers:
            bins[movers] = rng.integers(0, m, len(movers))
        state.complete_due(r)
        state.recount()
        model.complete(r)
        _check_against_model(state, model, bins, m)
        for _ in range(data.draw(st.integers(0, 3), label="launches")):
            kind = data.draw(st.sampled_from(["greedy", "random", "free", "any"]))
            if kind in ("greedy", "random"):
                size = data.draw(st.integers(1, 4), label="attack size")
                plan = plan_attack(f"adaptive-{kind}", state, size, rng)
                if plan is None:
                    continue
                targets, releases = plan
            else:
                # Free balls, each also by its negative alias, so that lists
                # may repeat a ball under two spellings.
                free_blue, free_red = model.free()
                blues = [b - s for b in np.flatnonzero(free_blue) for s in (0, n)]
                reds = [b - s for b in np.flatnonzero(free_red) for s in (0, n)]
                if kind == "any" or not blues or not reds:
                    blues = reds = list(range(-n, n))
                # "free" draws equal sizes; "any" may mismatch them.
                size = data.draw(st.integers(0, 4), label="size")
                other = size if kind == "free" else data.draw(st.integers(0, 4))
                targets = np.array(
                    data.draw(st.lists(st.sampled_from(blues), min_size=size, max_size=size)),
                    dtype=int,
                )
                releases = np.array(
                    data.draw(st.lists(st.sampled_from(reds), min_size=other, max_size=other)),
                    dtype=int,
                )
            before = _snapshot(state)
            allowed = model.allows(targets, releases)
            try:
                state.launch(targets, releases, r)
            except AttackError:
                assert not allowed
                assert _same(_snapshot(state), before)
            else:
                assert allowed
                model.launch(targets, releases, r)
                assert state.launched == before["launched"] + 1
            _check_against_model(state, model, bins, m)
    for r in range(r + 1, r + 6):
        state.complete_due(r)
        state.recount()
        model.complete(r)
    _check_against_model(state, model, bins, m)
    assert state.completed == state.launched
    assert not model.targeted.any() and not model.released.any()
