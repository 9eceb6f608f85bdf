"""The adaptive-takeover control that the analysis and mutant tests share."""

import scipy.stats

from shardsim.analysis import mc_iterated_lazy

# Each run (n=400, m=4, lease 10, 20,000 rounds) has about 1,400 failing
# rounds, enough to see greedy's edge one lease step below the lease.
CONTROL_SEEDS = (0, 1)


def takeover_edge(t_takeover: int, seed: int) -> tuple[int, int, float]:
    """Failing rounds under adaptive-greedy and adaptive-random, and the
    one-sided binomial p-value that greedy fails more often."""
    greedy, random = (
        mc_iterated_lazy(400, 4, 10, 20_000, strategy=s, t_takeover=t_takeover, seed=seed).failures
        for s in ("adaptive-greedy", "adaptive-random")
    )
    pvalue = scipy.stats.binomtest(greedy, greedy + random, 0.5, alternative="greater").pvalue
    return greedy, random, pvalue
