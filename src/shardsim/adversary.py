"""Adaptive-corruption bookkeeping for the balls-into-bins analyses.

Balls are nodes: blue is honest, red is adversary-controlled. The
adversary may hold at most ``capacity`` balls, counting both what it
controls and what it is currently attacking. To start an attack it must
therefore retire control of as many balls as it targets; the retired
balls stop counting against capacity immediately but keep their color
until the attack lands. An attack takes exactly ``t_takeover`` rounds,
cannot be aborted, and on completion the targets turn red while the
retired balls turn blue. Trades are one-for-one, so usage is the red
count, and capacity is checked when the reds are seeded.
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

    ``free_blue`` (blue, not under attack) and ``free_red`` (red, not
    released) change only on ``seed_red``, ``launch`` and ``complete_due``:
    a blue ball that is not free is under attack, and a red ball that is
    not free is released. Usage, ``capacity_used()``, is the red count.
    Once ``track`` attaches an assignment of balls to bins, ``red_counts``
    and ``totals`` hold its per-bin counts as ints; the caller calls
    ``recount`` after re-drawing bins in place.
    """

    n: int
    capacity: int
    t_takeover: int
    red: np.ndarray = field(init=False)
    free_blue: np.ndarray = field(init=False)
    free_red: np.ndarray = field(init=False)
    n_free_blue: int = field(init=False)
    n_free_red: int = field(init=False, default=0)
    bins: np.ndarray | None = field(init=False, default=None)
    m: int = field(init=False, default=0)
    red_counts: list[int] = field(init=False, default_factory=list)
    totals: list[int] = field(init=False, default_factory=list)
    _shift: np.ndarray | None = field(init=False, default=None, repr=False)
    launched: int = field(init=False, default=0)
    completed: int = field(init=False, default=0)
    _due: dict[int, list[Attack]] = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.red = np.zeros(self.n, dtype=bool)
        self.free_blue = np.ones(self.n, dtype=bool)
        self.free_red = np.zeros(self.n, dtype=bool)
        self.n_free_blue = self.n

    def seed_red(self, indices: np.ndarray) -> None:
        """Turn ``indices`` red before any attack; the red count must fit ``capacity``."""
        if self._due:
            raise AttackError("reds may only be seeded while no attack is in flight")
        red = self.red.copy()
        red[indices] = True
        used = int(np.count_nonzero(red))
        if used > self.capacity:
            raise AttackError(f"capacity exceeded: {used} > {self.capacity}")
        self.red = red
        self.free_blue = ~red
        self.free_red = red.copy()
        self.n_free_blue = self.n - used
        self.n_free_red = used
        if self.bins is not None:
            self.track(self.bins, self.m)

    def capacity_used(self) -> int:
        return int(np.count_nonzero(self.red))

    def track(self, bins: np.ndarray, m: int) -> None:
        """Keep per-bin counts of ``bins``, an assignment of balls to [0, m)."""
        self.bins = bins
        self.m = m
        self._shift = self.red * m  # red balls count in cells m..2m-1
        self.recount()

    def recount(self) -> None:
        """Re-count every bin after the tracked assignment moved."""
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
            if self.bins is not None:
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
    the full public state; greedy reads the bins ``state`` tracks.
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
    if state.bins is None:
        raise AttackError("greedy planning reads the bins the state tracks")

    ratio = [r / t if t else 0.0 for r, t in zip(state.red_counts, state.totals)]
    hot = ratio.index(max(ratio))
    cold = ratio.index(min(ratio))
    targets = _first_free(state.free_blue, state.bins == hot, k)
    releases = _first_free(state.free_red, state.bins == cold, k)
    return targets, releases
