"""Failure-probability analysis: analytic tail bounds and Monte Carlo.

A shard fails when at least a third of its committee is adversarial. With
a quarter of all nodes red and committees drawn uniformly, a shard of
expected size n/m fails only if its red count runs a quarter high or its
blue count a sixth low; two Chernoff tails give

    Pr[some shard fails in a round] <= 2 m exp(-n / 144 m)

and a union bound over 5.26e11 rounds (one round a minute for a million
years) turns the per-round figure into a durability statement.

The Monte Carlo side replays the committee draw as balls into bins: a
one-shot static experiment for measuring the per-round rate against the
bound, and an iterated process with staggered re-draws (each ball carries
a fixed re-throw slot modulo t_lease) for the leased-membership dynamics,
including adaptive adversaries that take over targeted balls after a
fixed delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .adversary import AdversaryState, plan_attack
from .membership import committee_fails

# One round a minute for a million years.
ROUNDS_PER_MILLION_YEARS = 5.26e11

_STATIC_STREAM = 10
_ITERATED_STREAM = 11

STRATEGIES = ("none", "static", "adaptive-greedy", "adaptive-random")

# Trials per batch of the static experiment, to bound memory.
_STATIC_CHUNK = 200_000


def chernoff_tail_bounds(n: int, m: int) -> tuple[float, float]:
    """(blue-count low tail, red-count high tail) for one shard.

    Blue balls: mean 3n/4m, deviation 1/6 below, bound exp(-n/96m).
    Red balls: mean n/4m, deviation 1/4 above, bound exp(-n/144m).
    """
    return math.exp(-n / (96 * m)), math.exp(-n / (144 * m))


def analytic_failure_bound(n: int, m: int) -> float:
    """Per-round bound 2 m exp(-n/144m) on any shard reaching a red third."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return 2 * m * math.exp(-n / (144 * m))


def log10_failure_bound(n: int, m: int) -> float:
    """log10 of the per-round bound, computed in log space for tiny values."""
    return (math.log(2 * m) - n / (144 * m)) / math.log(10)


def million_year_bound(per_round_bound: float) -> float:
    """Union bound over a million years of one-minute rounds."""
    if not 0.0 <= per_round_bound <= 1.0:
        raise ValueError("per-round bound must lie in [0, 1]")
    return per_round_bound * ROUNDS_PER_MILLION_YEARS


def log10_million_year_bound(n: int, m: int) -> float:
    return log10_failure_bound(n, m) + math.log10(ROUNDS_PER_MILLION_YEARS)


def bound_table(rows: Iterable[tuple[int, int]]) -> list[dict]:
    """One table row per (n, m): the bound, its companions, and log10 forms."""
    out = []
    for n, m in rows:
        per_round = analytic_failure_bound(n, m)
        blue_tail, red_tail = chernoff_tail_bounds(n, m)
        out.append(
            {
                "n": n,
                "m": m,
                "n_per_shard": n / m,
                "blue_tail": blue_tail,
                "red_tail": red_tail,
                "per_round_bound": per_round,
                "log10_per_round": log10_failure_bound(n, m),
                "million_year_bound": million_year_bound(min(1.0, per_round)),
                "log10_million_year": log10_million_year_bound(n, m),
            }
        )
    return out


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _ratio_terms(red_counts: np.ndarray, total_counts: np.ndarray) -> tuple[float, int]:
    """Sum and number of the red ratios of the occupied bins."""
    occupied = total_counts > 0
    return (
        float((red_counts[occupied] / total_counts[occupied]).sum()),
        int(occupied.sum()),
    )


@dataclass(frozen=True)
class StaticBinsResult:
    n: int
    m: int
    red_fraction: float
    trials: int
    failures: int
    seed: int
    rate: float
    wilson_low: float
    wilson_high: float
    analytic_bound: float
    mean_red_ratio: float


def mc_static_failure_rate(
    n: int,
    m: int,
    red_fraction: float = 0.25,
    trials: int = 10_000,
    seed: int = 0,
) -> StaticBinsResult:
    """One-shot experiment: throw reds and blues uniformly, count failures.

    A trial fails when any bin fails ``committee_fails``. Vectorized over
    trials in batches of ``_STATIC_CHUNK`` to bound memory.
    """
    if n < 1 or m < 1 or trials < 1:
        raise ValueError("n, m and trials must be positive")
    if not 0.0 <= red_fraction < 1.0:
        raise ValueError("red_fraction must lie in [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STATIC_STREAM]))
    n_red = int(red_fraction * n)
    n_blue = n - n_red
    pvals = np.full(m, 1.0 / m)
    failures = 0
    ratio_sum = 0.0
    ratio_count = 0
    done = 0
    while done < trials:
        size = min(_STATIC_CHUNK, trials - done)
        reds = rng.multinomial(n_red, pvals, size=size)
        blues = rng.multinomial(n_blue, pvals, size=size)
        totals = reds + blues
        failures += int(committee_fails(reds, totals).any(axis=1).sum())
        terms = _ratio_terms(reds, totals)
        ratio_sum += terms[0]
        ratio_count += terms[1]
        done += size
    rate = failures / trials
    low, high = wilson_interval(failures, trials)
    return StaticBinsResult(
        n,
        m,
        red_fraction,
        trials,
        failures,
        seed,
        rate,
        low,
        high,
        analytic_failure_bound(n, m),
        ratio_sum / ratio_count if ratio_count else 0.0,
    )


@dataclass
class IteratedBinsResult:
    n: int
    m: int
    t_lease: int
    rounds: int
    strategy: str
    seed: int
    failure_rounds: list[int] = field(default_factory=list)
    captures: dict[int, np.ndarray] = field(default_factory=dict)
    mean_red_ratio: float = 0.0
    attacks_launched: int = 0
    attacks_completed: int = 0
    capacity: int = 0
    peak_capacity_used: int = 0

    @property
    def failures(self) -> int:
        return len(self.failure_rounds)


def mc_iterated_lazy(
    n: int,
    m: int,
    t_lease: int,
    rounds: int,
    strategy: str = "static",
    red_fraction: float = 0.25,
    t_takeover: Optional[int] = None,
    attack_size: Optional[int] = None,
    seed: int = 0,
    capture_rounds: Sequence[int] = (),
    stats_every: int = 0,
) -> IteratedBinsResult:
    """Iterated process with staggered re-draws and an optional adversary.

    Every ball carries a fixed slot in [0, t_lease); in round r exactly the
    balls with slot r mod t_lease re-draw their bin uniformly. Round 1
    throws everyone. Failure is evaluated after each round's re-draw and
    again after any attack completions; a round counts once however many
    bins fail. ``capture_rounds`` snapshots the full assignment at the
    named rounds for distribution tests.

    Adaptive strategies step round by round on per-bin counts that the
    ``AdversaryState`` keeps. Under ``none`` and ``static`` the colors never
    change, so rounds run in blocks (see ``_static_blocks``). Both replay
    the same random stream.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    adaptive = strategy.startswith("adaptive")
    if adaptive:
        if t_takeover is None:
            raise ValueError("adaptive strategies need t_takeover")
        if t_lease > t_takeover:
            raise ValueError("adaptive strategies require t_lease <= t_takeover")
    if n < 1 or m < 1 or t_lease < 1 or rounds < 1:
        raise ValueError("n, m, t_lease and rounds must be positive")
    if attack_size is not None and attack_size < 1:
        raise ValueError("attack_size must be at least 1")
    if not 0.0 <= red_fraction < 1.0:
        raise ValueError("red_fraction must lie in [0, 1)")

    rng = np.random.default_rng(np.random.SeedSequence([seed, _ITERATED_STREAM]))
    n_red = 0 if strategy == "none" else int(red_fraction * n)
    state = AdversaryState(n, n_red, t_takeover or 0)
    if n_red:
        state.seed_red(rng.choice(n, size=n_red, replace=False))
    slots = rng.integers(0, t_lease, n)
    groups = [np.flatnonzero(slots == s) for s in range(t_lease)]
    bins = rng.integers(0, m, n)
    if attack_size is None:
        attack_size = max(1, n_red // (2 * max(1, t_takeover or 1)))

    result = IteratedBinsResult(n, m, t_lease, rounds, strategy, seed, capacity=n_red)
    wanted = set(capture_rounds)
    ratio_sum = 0.0
    ratio_count = 0

    if adaptive:
        state.track(bins, m)
        for r in range(1, rounds + 1):
            if r > 1:
                movers = groups[r % t_lease]
                if movers.size:
                    bins[movers] = rng.integers(0, m, movers.size)
                    state.recount()
            failed = any(map(committee_fails, state.red_counts, state.totals))
            if state.complete_due(r):
                failed = any(map(committee_fails, state.red_counts, state.totals)) or failed
            if failed:
                result.failure_rounds.append(r)
            plan = plan_attack(strategy, state, attack_size, rng)
            if plan is not None:
                state.launch(plan[0], plan[1], r)
            if r in wanted:
                result.captures[r] = bins.copy()
            if stats_every and r % stats_every == 0:
                terms = _ratio_terms(np.array(state.red_counts), np.array(state.totals))
                ratio_sum += terms[0]
                ratio_count += terms[1]
    else:
        blocks = _static_blocks(bins, state.red, groups, rng, m, rounds, wanted)
        for r0, red_counts, totals in blocks:
            failing = committee_fails(red_counts, totals).any(axis=1)
            result.failure_rounds.extend((r0 + np.flatnonzero(failing)).tolist())
            last = r0 + len(totals) - 1
            if last in wanted:
                result.captures[last] = bins.copy()
            if stats_every:
                for i in range(-r0 % stats_every, len(totals), stats_every):
                    terms = _ratio_terms(red_counts[i], totals[i])
                    ratio_sum += terms[0]
                    ratio_count += terms[1]

    result.mean_red_ratio = ratio_sum / ratio_count if ratio_count else 0.0
    result.attacks_launched = state.launched
    result.attacks_completed = state.completed
    result.peak_capacity_used = state.peak_usage
    return result


# Re-draws per block of batched rounds: each block's arrays stay near 0.5 MB.
_BLOCK_DRAWS = 1 << 16


def _static_blocks(
    bins: np.ndarray,
    red: np.ndarray,
    groups: list[np.ndarray],
    rng: np.random.Generator,
    m: int,
    rounds: int,
    ends: set[int],
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per-round bin counts for rounds 1..rounds when colors never change.

    Yields ``(first round, red counts, totals)`` per block, the counts as
    (block rounds, m) arrays, with ``bins`` already moved to the block's
    last round. Round 1 is a block of its own, and a block ends at the
    latest at each round in ``ends``.

    A block's re-draws come from one ``rng.integers`` call; bounded draws
    concatenate, so this replays the round-by-round stream exactly. Over
    any t_lease consecutive rounds every ball re-draws once, in the order
    of ``groups`` concatenated, so draw j and draw j - n move the same
    ball: a draw's previous bin is the draw n places earlier, or the
    ball's bin before the block. Per-round counts are then the cumulative
    sum of each round's deltas (+1 in the new bin, -1 in the old one),
    counted per (row, color, bin) cell with one ``bincount`` per side.
    """
    n = bins.size
    t_lease = len(groups)
    sizes = np.array([g.size for g in groups])
    offsets = np.cumsum(sizes) - sizes
    span = max(1, _BLOCK_DRAWS // max(1, n // t_lease, m))
    if span >= t_lease:
        span -= span % t_lease  # full blocks then share one layout
    # Re-draw order, long enough to read any block as one slice.
    cycle = np.tile(np.concatenate(groups), 2 + span * int(sizes.max()) // max(1, n))
    counts = np.stack([np.bincount(bins[~red], minlength=m), np.bincount(bins[red], minlength=m)])
    yield 1, counts[1][None], counts.sum(axis=0)[None]
    layout = None
    stops = sorted(r for r in ends if 2 <= r < rounds) + [rounds]
    r0 = 2
    for stop in stops:
        while r0 <= stop:
            length = min(span, stop - r0 + 1)
            phase = r0 % t_lease
            if layout != (phase, length):
                layout = (phase, length)
                per_round = sizes[(phase + np.arange(length)) % t_lease]
                total = int(per_round.sum())
                idx = cycle[offsets[phase] : offsets[phase] + total]
                # Cell of each draw: row, then color (blue 0, red 1), then bin.
                base = np.repeat(np.arange(0, length * 2 * m, 2 * m), per_round) + m * red[idx]
                cells = length * 2 * m
            new = rng.integers(0, m, total)
            old = bins[idx[:n]]
            if total > n:
                old = np.concatenate([old, new[:-n]])
            delta = np.bincount(base + new, minlength=cells) - np.bincount(
                base + old, minlength=cells
            )
            block = counts + np.cumsum(delta.reshape(length, 2, m), axis=0)
            last = slice(max(0, total - n), total)
            bins[idx[last]] = new[last]
            counts = block[-1]
            yield r0, block[:, 1], block.sum(axis=1)
            r0 += length
