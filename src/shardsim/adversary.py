"""Adaptive-corruption bookkeeping for the balls-into-bins analyses.

Balls are nodes: blue is honest, red is adversary-controlled. ``draw_red``
seeds the reds, and the simulator's Byzantine set, by one rule; the
adversary's budget is the number of reds it is seeded with. To start an
attack it must retire control of as many balls as it targets; the
retired balls keep their color until the attack lands. An attack takes
exactly ``t_takeover >= 1`` rounds, cannot be aborted, and on completion the
targets turn red while the retired balls turn blue. ``launch`` trades
one-for-one, so the red count never leaves the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def draw_red(rng: np.random.Generator, n: int, fraction: float) -> np.ndarray:
    """The red-set rule: ``int(fraction * n)`` distinct balls, uniform; none draws nothing."""
    red = np.zeros(n, dtype=bool)
    if n_red := int(fraction * n):
        red[rng.choice(n, size=n_red, replace=False)] = True
    return red


class AttackError(Exception):
    """Attack plan violates the adversary's constraints."""


@dataclass
class AdversaryState:
    """Ball colors and attacks, with the free masks kept current.

    ``red`` is the seeded red mask and ``bins`` an assignment of balls to
    [0, m); the state updates ``red`` in place. ``free_blue`` (blue, not
    under attack) and ``free_red`` (red, not released) change only on
    ``launch`` and ``complete_due``: a blue ball that is not free is under
    attack, and a red ball that is not free is released. A pending attack is
    its (targets, releases) pair, filed under the round it lands.
    ``red_counts`` and ``totals`` hold the per-bin counts as ints; only
    ``recount``, called once bins and colors have moved for a round, writes
    them.
    """

    red: np.ndarray
    bins: np.ndarray
    m: int
    t_takeover: int
    free_blue: np.ndarray = field(init=False)
    free_red: np.ndarray = field(init=False)
    red_counts: list[int] = field(init=False)
    totals: list[int] = field(init=False)
    launched: int = field(init=False, default=0)
    completed: int = field(init=False, default=0)
    _due: dict[int, list[tuple]] = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.t_takeover < 1:
            raise ValueError("t_takeover must be at least 1")
        self.free_blue = ~self.red
        self.free_red = self.red.copy()
        self.recount()

    def recount(self) -> None:
        """Count the balls and the red balls in each bin; reds go in cells m..2m-1."""
        m = self.m
        cells = np.bincount(self.bins + m * self.red, minlength=2 * m).tolist()
        self.red_counts = cells[m:]
        self.totals = [b + r for b, r in zip(cells[:m], self.red_counts)]

    def launch(self, targets: np.ndarray, releases: np.ndarray, round: int) -> None:
        k = targets.size
        if k == 0 or k != releases.size:
            raise AttackError("attacks trade control one-for-one, sizes must match")
        if not self.free_blue[targets].all():
            raise AttackError("targets must be blue and not already under attack")
        if not self.free_red[releases].all():
            raise AttackError("releases must be controlled red balls")
        # Blue targets and red releases are disjoint, so one set finds repeats;
        # a negative index would alias a ball the set sees as distinct.
        balls = targets.tolist() + releases.tolist()
        if len(set(balls)) != 2 * k or min(balls) < 0:
            raise AttackError("an attack names each target and release once, by index")
        self.free_blue[targets] = False
        self.free_red[releases] = False
        self._due.setdefault(round + self.t_takeover, []).append((targets, releases))
        self.launched += 1

    def complete_due(self, round: int) -> None:
        """Land every attack whose takeover window ends at ``round``."""
        for targets, releases in self._due.pop(round, ()):
            self.red[targets] = True
            self.free_red[targets] = True
            self.red[releases] = False
            self.free_blue[releases] = True
            self.completed += 1


def _first_free(free: np.ndarray, in_bin: np.ndarray, k: int) -> np.ndarray:
    """The k lowest free indices, those with ``in_bin`` set first."""
    picked = (free & in_bin).nonzero()[0][:k]
    if picked.size < k:
        spare = (free & ~in_bin).nonzero()[0][: k - picked.size]
        picked = np.concatenate([picked, spare])
    return picked


def plan_attack(
    strategy: str,
    state: AdversaryState,
    attack_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Pick targets and releases for one attack, or None if nothing sensible.

    ``adaptive-greedy`` concentrates: it attacks blue balls in the bin that
    is already closest to failing and retires reds from the bin furthest
    from it. ``adaptive-random`` picks both sides uniformly. Both observe
    the full public state; greedy reads the per-bin counts ``state`` keeps.
    """
    if strategy == "adaptive-random":
        blues, reds = np.flatnonzero(state.free_blue), np.flatnonzero(state.free_red)
        if not (k := min(attack_size, blues.size, reds.size)):
            return None
        return rng.choice(blues, size=k, replace=False), rng.choice(reds, size=k, replace=False)
    if strategy != "adaptive-greedy":
        raise AttackError(f"no attack planner for strategy {strategy!r}")

    ratio = [r / t if t else 0.0 for r, t in zip(state.red_counts, state.totals)]
    hot = ratio.index(max(ratio))
    cold = ratio.index(min(ratio))
    targets = _first_free(state.free_blue, state.bins == hot, attack_size)
    releases = _first_free(state.free_red, state.bins == cold, attack_size)
    if not (k := min(targets.size, releases.size)):
        return None
    return targets[:k], releases[:k]
