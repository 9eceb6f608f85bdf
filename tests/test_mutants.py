"""The mutant catalogue: each case breaks the program in one place and
asserts that the cheapest check meant to see that fault still sees it.

A mutant is applied in-process with ``monkeypatch`` (a replaced function or
constant), so it lasts for one test and touches no source file.
"""

import dataclasses
import json

import pytest

from shardsim.adversary import AdversaryState
from shardsim.membership import Membership, golden_vector_text

from binslib import CONTROL_SEEDS, takeover_edge
from test_mc_golden import CONFIGS, GOLDEN, _key, record
from test_vectors import FILES
from vectorlib import load_vector_file


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


def test_counts_before_landings_move_an_adaptive_golden_entry(monkeypatch):
    # Counts taken as a round's landings begin, not after them, miss each
    # landing's color swap until the next count; the cheapest adaptive
    # golden entry must move.
    complete_due, recount = AdversaryState.complete_due, AdversaryState.recount

    def count_first(self, round):
        recount(self)
        return complete_due(self, round)

    monkeypatch.setattr(AdversaryState, "complete_due", count_first)
    monkeypatch.setattr(AdversaryState, "recount", lambda self: None)
    kwargs = min(
        (c for c in CONFIGS if c["strategy"].startswith("adaptive")),
        key=lambda c: c["n"] * c["rounds"],
    )
    assert record(kwargs) != json.loads(GOLDEN.read_text())[_key(kwargs)]


def test_issuer_off_by_one_shard_breaks_the_frozen_transcript(monkeypatch):
    # verify_member reads the draw of the certificate in force instead of
    # hashing it again, so an issuer that misplaces every key agrees with
    # the verifier; the frozen transcript (the comparison that
    # test_vectors.test_transcript_matches_frozen_file makes) must still
    # see it.
    issue = Membership._issue

    def next_shard(self, record, sk, seed):
        cert = issue(self, record, sk, seed)
        return dataclasses.replace(cert, shard=cert.shard % self.m + 1)

    monkeypatch.setattr(Membership, "_issue", next_shard)
    vf = load_vector_file(FILES[1])
    regenerated = golden_vector_text(vf.genesis_seed, vf.key_ids, vf.m, vf.t_lease, vf.rounds)
    assert regenerated != FILES[1].read_text()
