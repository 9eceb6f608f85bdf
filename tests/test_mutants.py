"""The mutant catalogue: each case breaks the program in one place and
asserts that the cheapest check meant to see that fault still sees it.

A mutant is applied in-process with ``monkeypatch`` (a replaced function or
constant), so it lasts for one test and touches no source file.
"""

import pytest

from shardsim.adversary import AdversaryState

from binslib import CONTROL_SEEDS, takeover_edge


@pytest.mark.parametrize("seed", CONTROL_SEEDS)
def test_early_landing_shows_an_edge_at_the_lease(monkeypatch, seed):
    # Attacks that land one round early give greedy the edge of a takeover
    # one step below the lease, which the control must report.
    launch = AdversaryState.launch
    monkeypatch.setattr(
        AdversaryState,
        "launch",
        lambda self, targets, releases, round: launch(self, targets, releases, round - 1),
    )
    greedy, random, pvalue = takeover_edge(10, seed)
    assert pvalue <= 0.01, (greedy, random, pvalue)
