"""Adaptive-corruption bookkeeping for the balls-into-bins analyses.

Balls are nodes: blue is honest, red is adversary-controlled. The
adversary's budget is the number of reds it is seeded with. To start an
attack it must retire control of as many balls as it targets; the
retired balls keep their color until the attack lands. An attack takes
exactly ``t_takeover`` rounds, cannot be aborted, and on completion the
targets turn red while the retired balls turn blue. ``launch`` trades
one-for-one, so the red count never leaves the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class AttackError(Exception):
    """Attack plan violates the adversary's constraints."""


@dataclass(frozen=True)
class Attack:
    targets: np.ndarray
    releases: np.ndarray
    started: int
    completes: int


@dataclass
class AdversaryState:
    """Ball colors and attacks, with the free masks and their sizes kept current.

    ``red`` is the seeded red mask and ``bins`` an assignment of balls to
    [0, m); the state updates ``red`` in place. ``free_blue`` (blue, not
    under attack) and ``free_red`` (red, not released) change only on
    ``launch`` and ``complete_due``: a blue ball that is not free is under
    attack, and a red ball that is not free is released. ``red_counts``
    and ``totals`` hold the per-bin counts as ints; the caller calls
    ``recount`` after re-drawing bins in place.
    """

    red: np.ndarray
    bins: np.ndarray
    m: int
    t_takeover: int
    free_blue: np.ndarray = field(init=False)
    free_red: np.ndarray = field(init=False)
    n_free_blue: int = field(init=False)
    n_free_red: int = field(init=False)
    red_counts: list[int] = field(init=False)
    totals: list[int] = field(init=False)
    _shift: np.ndarray = field(init=False, repr=False)
    launched: int = field(init=False, default=0)
    completed: int = field(init=False, default=0)
    _due: dict[int, list[Attack]] = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.free_blue = ~self.red
        self.free_red = self.red.copy()
        self.n_free_red = int(np.count_nonzero(self.red))
        self.n_free_blue = self.red.size - self.n_free_red
        self._shift = self.red * self.m  # red balls count in cells m..2m-1
        self.recount()

    def recount(self) -> None:
        """Re-count every bin after ``bins`` moved."""
        m = self.m
        cells = np.bincount(self.bins + self._shift, minlength=2 * m).tolist()
        self.red_counts = cells[m:]
        self.totals = [b + r for b, r in zip(cells[:m], self.red_counts)]

    def launch(self, targets: np.ndarray, releases: np.ndarray, round: int) -> Attack:
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
        self.n_free_blue -= k
        self.n_free_red -= k
        attack = Attack(targets, releases, round, round + self.t_takeover)
        self._due.setdefault(attack.completes, []).append(attack)
        self.launched += 1
        return attack

    def complete_due(self, round: int) -> list[Attack]:
        """Land every attack whose takeover window ends at ``round``."""
        done = self._due.pop(round, None)
        if not done:
            return []
        for attack in done:
            targets, releases = attack.targets, attack.releases
            self.red[targets] = True
            self.free_red[targets] = True
            self.red[releases] = False
            self.free_blue[releases] = True
            k = targets.size
            self.n_free_blue += k
            self.n_free_red += k
            self.completed += 1
            # The bins did not move: only the swapped balls' bins change color.
            self._shift[targets] = self.m
            self._shift[releases] = 0
            for b in self.bins[targets].tolist():
                self.red_counts[b] += 1
            for b in self.bins[releases].tolist():
                self.red_counts[b] -= 1
        return done


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
    k = min(attack_size, state.n_free_blue, state.n_free_red)
    if k == 0:
        return None
    if strategy == "adaptive-random":
        targets = rng.choice(np.flatnonzero(state.free_blue), size=k, replace=False)
        releases = rng.choice(np.flatnonzero(state.free_red), size=k, replace=False)
        return targets, releases
    if strategy != "adaptive-greedy":
        raise AttackError(f"no attack planner for strategy {strategy!r}")

    ratio = [r / t if t else 0.0 for r, t in zip(state.red_counts, state.totals)]
    hot = ratio.index(max(ratio))
    cold = ratio.index(min(ratio))
    targets = _first_free(state.free_blue, state.bins == hot, k)
    releases = _first_free(state.free_red, state.bins == cold, k)
    return targets, releases
