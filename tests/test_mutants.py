"""The mutant catalogue: each case breaks the program in one place and
asserts that the cheapest check meant to see that fault still sees it.

A mutant is applied in-process with ``monkeypatch`` (a replaced function or
constant), so it lasts for one test and touches no source file.
"""

import dataclasses
import json
import random
from types import SimpleNamespace

import pytest

from shardsim.adversary import AdversaryState
from shardsim.membership import Membership, evolve_shard_seed, golden_vector_text

import test_membership
import test_simulation
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


def test_sigma_in_force_trusted_is_refused_for_another_epoch(monkeypatch):
    # A verifier that takes the sigma in force as proved without checking
    # its signature accepts it at a kept epoch it was not signed for.
    verify = Membership.verify_member

    def trusting(self, pk, sigma, shard, r):
        record = self.records.get(pk.id)
        if self._record_eligible(record, r) and sigma == record.cert.sigma:
            record.proved = self.epoch_start(record.t_shuffle, r)
        return verify(self, pk, sigma, shard, r)

    monkeypatch.setattr(Membership, "verify_member", trusting)
    with pytest.raises(AssertionError):
        test_membership.test_sigma_in_force_refused_for_another_epoch()


def test_proof_kept_across_a_redraw_breaks_the_uncached_rule(monkeypatch):
    # A seating pass that keeps each record's proof when it replaces the
    # certificate lets the new sigma pass at the old epoch start unchecked;
    # the property's own-certificate probes must see it.
    seat = Membership._seat

    def keeping(self, r, seed):
        proofs = {key_id: record.proved for key_id, record in self.records.items()}
        seated = seat(self, r, seed)
        for key_id, record in self.records.items():
            record.proved = proofs.get(key_id)
        return seated

    monkeypatch.setattr(Membership, "_seat", keeping)
    check = test_membership.test_memoized_verify_equals_uncached_rule.hypothesis.inner_test
    with pytest.raises(AssertionError):
        check(m=4, t_lease=5, joins=[], rounds=8, rnd=random.Random(0))


def test_unchecked_signatures_pass_a_forgery(monkeypatch):
    # verify_member with no signature check at all accepts a forged sigma
    # whose hash lands in the claimed shard.
    verify = Membership.verify_member

    def unchecked(self, *claim):
        scheme, self.scheme = self.scheme, SimpleNamespace(verify=lambda *args: True)
        try:
            return verify(self, *claim)
        finally:
            self.scheme = scheme

    monkeypatch.setattr(Membership, "verify_member", unchecked)
    with pytest.raises(AssertionError):
        test_membership.test_memo_hit_needs_the_accepted_claim()


def test_leaderless_seed_moves_the_pinned_seed_path(monkeypatch):
    # Shard seeds that ignore the round leader evolve along the empty-round
    # path; the pinned eager seeds, which mix leader-signed rounds in, move.
    monkeypatch.setattr(
        "shardsim.membership.evolve_shard_seed",
        lambda scheme, seed, round, leader=None: evolve_shard_seed(scheme, seed, round),
    )
    with pytest.raises(AssertionError):
        test_simulation.test_seed_path_is_pinned(*test_simulation._PINNED_SEEDS[0])


def test_bench_base_without_lease_seats_joiners_early(monkeypatch):
    # Benching that ends at t_join instead of t_join + t_lease lets a joiner
    # sit before its first shuffle slot after the bench.
    def unbenched(self, record, r):
        if record is None or record.t_shuffle is None:
            return False
        if record.t_join == 0:
            return r >= 1
        return r >= record.t_join + ((record.t_shuffle - record.t_join) % self.t_lease)

    monkeypatch.setattr(Membership, "_record_eligible", unbenched)
    with pytest.raises(AssertionError):
        test_membership.test_registration_benches_until_first_slot()
