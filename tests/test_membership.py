"""Membership: epoch arithmetic, certificates, registration, seed evolution."""

import math

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from shardsim.crypto import UNIT_BITS, oracle_hash, unit_hash
from shardsim.keys import PublicKey, SignatureScheme
from shardsim.membership import (
    EligibilityError,
    Membership,
    MembershipError,
    evolve_shard_seed,
    golden_vector_text,
    shuffle_slot,
)
from shardsim.partition import shard_index

from memberlib import eligible, shard_counts

GENESIS = bytes.fromhex("aa" * 32)


def _fresh(m=4, n=16, t_lease=5, prefix="n", genesis=GENESIS):
    scheme = SignatureScheme()
    kps = [scheme.keygen(f"{prefix}{i:05d}") for i in range(n)]
    mem = Membership.init(m, [kp.pk for kp in kps], genesis, t_lease, scheme)
    return scheme, kps, mem


def _advance(mem, rounds):
    """Run empty rounds; seeds evolve along the leaderless path."""
    for r in range(mem.round, mem.round + rounds):
        mem.end_of_round(r, [None] * mem.m)


# -- epoch arithmetic ---------------------------------------------------------


def test_epoch_start_worked_example():
    scheme = SignatureScheme()
    mem = Membership(4, 5, scheme)
    # slot = 8 mod 5 = 3, diff = (3 - 2) mod 5 = 1, epoch start 7.
    assert mem.epoch_start(t_shuffle=2, r=8) == 7


def test_epoch_start_eager_degeneration():
    mem = Membership(4, 1, SignatureScheme())
    for r in (1, 2, 9, 100):
        assert mem.epoch_start(0, r) == r


def test_epoch_start_clamped_at_round_one():
    mem = Membership(4, 5, SignatureScheme())
    # slot = 2, diff = (2 - 4) mod 5 = 3, 2 - 3 < 1: truncated first epoch.
    assert mem.epoch_start(t_shuffle=4, r=2) == 1


def test_epoch_start_fixed_inside_epoch():
    mem = Membership(2, 5, SignatureScheme())
    for t_shuffle in range(5):
        starts = [mem.epoch_start(t_shuffle, r) for r in range(20, 40)]
        for r, start in zip(range(20, 40), starts):
            assert start <= r < start + 5
            assert start % 5 == t_shuffle


@pytest.mark.parametrize(("m", "t_lease"), [(0, 5), (4, 0)])
def test_membership_needs_a_shard_and_a_lease(m, t_lease):
    with pytest.raises(MembershipError, match="at least 1"):
        Membership(m, t_lease, SignatureScheme())


# -- init ---------------------------------------------------------------------


def test_init_single_shard_puts_everyone_in_shard_one():
    _, _, mem = _fresh(m=1, n=10, t_lease=3)
    assert shard_counts(mem) == [10]


def test_init_deterministic_across_schemes():
    _, _, a = _fresh()
    _, _, b = _fresh()
    assert {pk: rec.cert.shard for pk, rec in a.records.items()} == {
        pk: rec.cert.shard for pk, rec in b.records.items()
    }
    assert {pk: rec.cert.sigma for pk, rec in a.records.items()} == {
        pk: rec.cert.sigma for pk, rec in b.records.items()
    }
    assert (a.round, a.shard_seeds, a.global_seeds) == (b.round, b.shard_seeds, b.global_seeds)


def test_init_rejects_duplicate_keys():
    scheme = SignatureScheme()
    kp = scheme.keygen("dup")
    with pytest.raises(MembershipError):
        Membership.init(2, [kp.pk, kp.pk], GENESIS, 1, scheme)


def test_init_assignment_close_to_uniform():
    _, _, mem = _fresh(m=4, n=6000, t_lease=5, prefix="u")
    sigma = math.sqrt(6000 * 0.25 * 0.75)
    for count in shard_counts(mem):
        assert abs(count - 1500) < 5 * sigma
    assert sum(shard_counts(mem)) == 6000


def test_genesis_seed_state_shape():
    _, _, mem = _fresh(m=3)
    assert mem.round == 1
    assert len(mem.shard_seeds) == 3
    assert len(set(mem.shard_seeds)) == 3
    assert mem.global_seeds == {1: oracle_hash(*mem.shard_seeds)}


# -- certificates -------------------------------------------------------------


def test_certificate_round_trip():
    _, kps, mem = _fresh()
    for r in range(1, 11):
        for kp in kps:
            cert = mem.get_membership(kp, r)
            assert cert.pk == kp.pk
            assert 1 <= cert.shard <= mem.m
            assert mem.verify_member(cert.pk, cert.sigma, cert.shard, r)
        _advance(mem, 1)


def test_certificate_constant_within_personal_epoch():
    _, kps, mem = _fresh(t_lease=5)
    by_round = {}
    for r in range(1, 21):
        by_round[r] = {kp.pk: mem.get_membership(kp, r) for kp in kps}
        _advance(mem, 1)
    for kp in kps:
        t_shuffle = mem.records[kp.pk.id].t_shuffle
        for r in range(1, 21):
            cert = by_round[r][kp.pk]
            start = max(1, r - ((r % 5) - t_shuffle) % 5)
            first = by_round[start][kp.pk]
            assert (cert.shard, cert.sigma) == (first.shard, first.sigma)


def test_mutated_sigma_rejected():
    _, kps, mem = _fresh()
    cert = mem.get_membership(kps[0], 1)
    bad = bytes([cert.sigma[0] ^ 0x01]) + cert.sigma[1:]
    assert not mem.verify_member(cert.pk, bad, cert.shard, 1)


def test_wrong_shard_rejected():
    _, kps, mem = _fresh(m=4)
    cert = mem.get_membership(kps[0], 1)
    wrong = cert.shard % 4 + 1
    assert not mem.verify_member(cert.pk, cert.sigma, wrong, 1)


def test_unregistered_key_gets_no_certificate():
    scheme, _, mem = _fresh()
    with pytest.raises(EligibilityError, match="'outsider' is not registered"):
        mem.get_membership(scheme.keygen("outsider"), 1)


def test_unregistered_key_rejected():
    scheme, kps, mem = _fresh()
    outsider = scheme.keygen("outsider")
    sigma = scheme.sign(outsider.sk, mem.global_seeds[mem.round])
    shard = shard_index(unit_hash(sigma), mem.m)
    assert not mem.verify_member(outsider.pk, sigma, shard, 1)


def test_wrong_epoch_seed_rejected():
    scheme, kps, mem = _fresh(t_lease=5)
    _advance(mem, 1)
    kp = kps[0]
    future_seed = mem.global_seeds[mem.round]
    sigma = scheme.sign(kp.sk, future_seed)
    shard = shard_index(unit_hash(sigma), mem.m)
    # A signature over round 2's seed does not certify an epoch anchored
    # at round 1.
    t_shuffle = mem.records[kp.pk.id].t_shuffle
    r = 2
    if mem.epoch_start(t_shuffle, r) != r:
        assert not mem.verify_member(kp.pk, sigma, shard, 1)


def test_certificate_expires_at_epoch_rollover():
    _, kps, mem = _fresh(t_lease=5)
    certs = {kp.pk: mem.get_membership(kp, 1) for kp in kps}
    _advance(mem, 7)
    r = mem.round
    expired = 0
    for kp in kps:
        cert = certs[kp.pk]
        t_shuffle = mem.records[kp.pk.id].t_shuffle
        if mem.epoch_start(t_shuffle, r) > 1:
            assert not mem.verify_member(cert.pk, cert.sigma, cert.shard, r)
            expired += 1
    assert expired > 0


def test_old_seed_not_retained():
    _, kps, mem = _fresh(t_lease=2)
    _advance(mem, 10)
    with pytest.raises(MembershipError):
        mem._seed_at(3)


# -- one check per certificate per epoch ---------------------------------------


def _uncached_verify(mem, pk, sigma, shard, r):
    """The verification rule recomputed from public state, without the cached proof."""
    if not eligible(mem, pk, r):
        return False
    if shard_index(unit_hash(sigma), mem.m) != shard:
        return False
    seed = mem.global_seeds.get(mem.epoch_start(mem.records[pk.id].t_shuffle, r))
    return seed is not None and mem.scheme.verify(pk, seed, sigma)


def test_memo_hit_needs_the_accepted_claim():
    # Round 1 is every node's (truncated) first epoch start, so all claims
    # below consult the same proof.
    _, kps, mem = _fresh(m=4)
    cert = mem.get_membership(kps[0], 1)
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)
    assert not mem.verify_member(kps[1].pk, cert.sigma, cert.shard, 1)
    assert not mem.verify_member(cert.pk, cert.sigma, cert.shard % 4 + 1, 1)
    forged = bytes([cert.sigma[0] ^ 0x01]) + cert.sigma[1:]
    assert not mem.verify_member(cert.pk, forged, shard_index(unit_hash(forged), 4), 1)
    # Within a lease the key re-draws, which clears its proof, and round
    # 1's seed leaves, so the claim no longer counts.
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)
    _advance(mem, mem.t_lease)
    assert 1 not in mem.global_seeds
    assert mem.records[cert.pk.id].proved is None
    assert not mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)


def test_memo_pruned_with_seeds_and_stale_certificates_refused():
    _, kps, mem = _fresh(t_lease=3)
    certs = {kp.pk: mem.get_membership(kp, 1) for kp in kps}
    for cert in certs.values():
        assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)
    for r in range(2, 9):
        _advance(mem, 1)
        assert len(mem.global_seeds) <= mem.t_lease
        for kp in kps:
            cert = mem.get_membership(kp, r)
            assert mem.verify_member(cert.pk, cert.sigma, cert.shard, r)
    # With t_lease = 3, every epoch in force at round 8 started after round 1.
    for cert in certs.values():
        assert not mem.verify_member(cert.pk, cert.sigma, cert.shard, 8)


def test_certificate_in_force_is_not_hashed_again(monkeypatch):
    # _issue drew the shard of the certificate in force from its sigma, so
    # its first check runs the signature check alone; any other sigma is
    # hashed to its shard as before.
    _, kps, mem = _fresh(m=4)
    drawn, checked = [], []
    monkeypatch.setattr(
        "shardsim.membership.unit_hash", lambda data: drawn.append(data) or unit_hash(data)
    )
    verify = mem.scheme.verify
    monkeypatch.setattr(
        mem.scheme, "verify", lambda *args: checked.append(args) or verify(*args)
    )
    cert = mem.records[kps[0].pk.id].cert
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)
    assert (len(checked), drawn) == (1, [])
    forged = bytes([cert.sigma[0] ^ 0x01]) + cert.sigma[1:]
    assert not mem.verify_member(cert.pk, forged, cert.shard, 1)
    assert drawn == [forged]


def test_sigma_in_force_refused_for_another_epoch():
    # A key with slot 4 re-draws at round 4 under t_lease 5. Claimed for
    # round 1, its sigma in force passes the shard check (the draw is read
    # from the certificate) and eligibility, and round 1's seed is still
    # kept; only the signature check, against round 1's seed, refuses it.
    scheme, kps, mem = _fresh(t_lease=5)
    _advance(mem, 3)
    kp = next(kp for kp in kps if mem.records[kp.pk.id].t_shuffle == 4)
    cert = mem.records[kp.pk.id].cert
    assert cert.sigma == scheme.sign(kp.sk, mem.global_seeds[4])
    assert mem.epoch_start(4, 4) == 4 and mem.epoch_start(4, 1) == 1
    assert 1 in mem.global_seeds
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 4)
    assert not mem.verify_member(cert.pk, cert.sigma, cert.shard, 1)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    t_lease=st.integers(1, 5),
    joins=st.lists(st.integers(1, 12), max_size=6),
    rounds=st.integers(1, 14),
    rnd=st.randoms(use_true_random=False),
)
def test_memoized_verify_equals_uncached_rule(m, t_lease, joins, rounds, rnd):
    scheme, kps, mem = _fresh(m=m, n=6, t_lease=t_lease)
    joiners = [scheme.keygen(f"j{i:02d}") for i in range(len(joins))]
    for r in range(1, rounds + 1):
        mem.register_nodes(r, [kp.pk for kp, t in zip(joiners, joins) if t == r])
        seated = [kp for kp in kps + joiners if kp.pk.id in mem.records]
        for _ in range(3 * len(seated)):
            kp, other = rnd.choice(seated), rnd.choice(seated)
            probe = max(1, r + rnd.randint(-t_lease, t_lease))
            t_shuffle = mem.records[other.pk.id].t_shuffle
            if t_shuffle is None:
                continue
            seed = mem.global_seeds.get(mem.epoch_start(t_shuffle, probe))
            if seed is None:
                continue
            sigma = scheme.sign(other.sk, seed)
            in_force = mem.records[kp.pk.id].cert
            if in_force is not None and rnd.random() < 0.3:
                # The key's own certificate in force, claimed at a probe
                # round that may belong to another of its kept epochs.
                sigma = in_force.sigma
            shard = shard_index(unit_hash(sigma), m)
            if rnd.random() < 0.2:
                shard = rnd.randint(1, m)
            expect = _uncached_verify(mem, kp.pk, sigma, shard, probe)
            assert mem.verify_member(kp.pk, sigma, shard, probe) == expect
        _advance(mem, 1)
        assert len(mem.global_seeds) <= mem.t_lease


# -- registration -------------------------------------------------------------


def test_registration_benches_until_first_slot():
    scheme, kps, mem = _fresh(t_lease=5)
    _advance(mem, 9)
    assert mem.round == 10
    joiner = scheme.keygen("joiner")
    mem.register_nodes(10, [joiner.pk])
    record = mem.records[joiner.pk.id]
    assert record.t_join == 10
    assert record.t_shuffle is None

    for r in range(10, 15):
        assert not eligible(mem, joiner.pk, r)
        with pytest.raises(EligibilityError):
            mem.get_membership(joiner, r)
        _advance(mem, 1)

    # Benching ended at round 15: slot drawn from round 15's seed.
    assert mem.round == 15
    record = mem.records[joiner.pk.id]
    assert record.t_shuffle == shuffle_slot(joiner.pk, mem.global_seeds[mem.round], 5)
    first = next(r for r in range(15, 25) if eligible(mem, joiner.pk, r))
    assert 15 <= first <= 19
    assert first % 5 == record.t_shuffle
    _advance(mem, first - mem.round)
    cert = mem.get_membership(joiner, first)
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, first)


def test_registration_not_verifiable_before_lease_age():
    scheme, kps, mem = _fresh(t_lease=5)
    _advance(mem, 9)
    joiner = scheme.keygen("early")
    mem.register_nodes(10, [joiner.pk])
    _advance(mem, 5)
    record = mem.records[joiner.pk.id]
    first = next(r for r in range(15, 25) if eligible(mem, joiner.pk, r))
    _advance(mem, first - mem.round)
    cert = mem.get_membership(joiner, first)
    # The joiner is not eligible before its first slot, so no earlier claim verifies.
    assert not mem.verify_member(cert.pk, cert.sigma, cert.shard, 14)


def test_verify_member_implies_eligible_for_joiners():
    # Joiners bench from registration to their first shuffle slot. A
    # correctly signed certificate for any round in between must fail
    # verification, exactly as issuance refuses it.
    scheme, _, mem = _fresh(m=3, t_lease=5)
    joiners = [scheme.keygen(f"join{t:02d}") for t in range(1, 12)]
    accepted_early = []
    benched_with_slot = 0
    for r in range(1, 30):
        if r <= len(joiners):
            mem.register_nodes(r, [joiners[r - 1].pk])
        for kp in joiners:
            record = mem.records.get(kp.pk.id)
            if record is None or record.t_shuffle is None:
                continue
            seed = mem.global_seeds.get(mem.epoch_start(record.t_shuffle, r))
            if seed is None:
                continue
            sigma = scheme.sign(kp.sk, seed)
            shard = shard_index(unit_hash(sigma), mem.m)
            may_sit = eligible(mem, kp.pk, r)
            benched_with_slot += not may_sit
            if mem.verify_member(kp.pk, sigma, shard, r) and not may_sit:
                accepted_early.append((kp.pk.id, r))
        _advance(mem, 1)
    assert benched_with_slot > 0  # the probe reaches the gap it guards
    assert accepted_early == []


def test_eager_registration_active_next_round():
    scheme, kps, mem = _fresh(t_lease=1)
    _advance(mem, 2)
    joiner = scheme.keygen("quick")
    mem.register_nodes(3, [joiner.pk])
    assert not eligible(mem, joiner.pk, 3)
    _advance(mem, 1)
    assert eligible(mem, joiner.pk, 4)
    cert = mem.get_membership(joiner, 4)
    assert mem.verify_member(cert.pk, cert.sigma, cert.shard, 4)


def test_duplicate_registration_rejected():
    scheme, kps, mem = _fresh()
    joiner = scheme.keygen("twice")
    mem.register_nodes(1, [joiner.pk])
    _advance(mem, 1)
    with pytest.raises(MembershipError, match="already registered"):
        mem.register_nodes(2, [joiner.pk])
    with pytest.raises(MembershipError, match="already registered"):
        mem.register_nodes(2, [kps[0].pk])


@pytest.mark.parametrize("r", [2, 7], ids=["past", "future"])
def test_registration_only_at_the_current_round(r):
    # A key registered at a past round would never have its slot drawn
    # (that needs t_join + t_lease == r + 1 at some later end_of_round).
    scheme, _, mem = _fresh(t_lease=2)
    _advance(mem, 5)
    joiner = scheme.keygen("late")
    with pytest.raises(MembershipError, match=rf"register_nodes\({r}\) called at round 6"):
        mem.register_nodes(r, [joiner.pk])
    assert joiner.pk.id not in mem.records


def test_shuffle_slots_uniform_over_lease():
    # An adversary grinding fresh keys cannot bias the slot: hashed slots
    # over many keys fit the uniform distribution.
    seed = Membership.init(4, [], GENESIS, 5, SignatureScheme()).global_seeds[1]
    t_lease = 5
    counts = [0] * t_lease
    for i in range(100_000):
        counts[shuffle_slot(PublicKey.from_id(f"grind{i}"), seed, t_lease)] += 1
    result = scipy.stats.chisquare(counts)
    assert result.pvalue > 0.01, counts


# -- round transitions --------------------------------------------------------


def test_end_of_round_requires_current_round_and_m_seeds():
    _, _, mem = _fresh(m=4)
    with pytest.raises(MembershipError):
        mem.end_of_round(5, [None] * 4)
    with pytest.raises(MembershipError):
        mem.end_of_round(1, [None] * 3)


def test_eager_redraws_everyone_each_round():
    _, kps, mem = _fresh(t_lease=1, n=12)
    for r in range(1, 6):
        _, redrawn = mem.end_of_round(r, [None] * mem.m)
        assert redrawn == {kp.pk.id for kp in kps}


def test_lazy_redraws_each_node_once_per_lease_window():
    _, kps, mem = _fresh(t_lease=5, n=40)
    redraw_count = {kp.pk.id: 0 for kp in kps}
    for r in range(1, 11):
        _, redrawn = mem.end_of_round(r, [None] * mem.m)
        for pk in redrawn:
            redraw_count[pk] += 1
    assert set(redraw_count.values()) == {2}


def test_redraw_set_size_binomial():
    _, kps, mem = _fresh(t_lease=5, n=2000, prefix="b")
    sigma = math.sqrt(2000 * 0.2 * 0.8)
    for r in range(1, 6):
        _, redrawn = mem.end_of_round(r, [None] * mem.m)
        assert abs(len(redrawn) - 400) < 5 * sigma


def test_redraw_refreshes_certificates():
    _, kps, mem = _fresh(t_lease=5)
    before = {pk: rec.cert.sigma for pk, rec in mem.records.items()}
    _, redrawn = mem.end_of_round(1, [None] * mem.m)
    for pk in redrawn:
        assert mem.records[pk].cert.sigma != before[pk]
    for pk in set(before) - redrawn:
        assert mem.records[pk].cert.sigma == before[pk]


# -- shared issuer and per-shard lists ------------------------------------------


@pytest.mark.parametrize("t_lease", [1, 3, 5])
def test_redrawn_certificates_equal_issued_ones(t_lease):
    # Joiner ids sort between the genesis ids, so seating them reorders nothing.
    scheme, kps, mem = _fresh(m=4, n=24, t_lease=t_lease)
    joiners = [scheme.keygen(f"n{i:05d}x") for i in range(0, 8, 2)]
    by_id = {kp.pk.id: kp for kp in kps + joiners}
    seated_joiners = 0
    for r in range(1, 16):
        if r <= len(joiners):
            mem.register_nodes(r, [joiners[r - 1].pk])
        _, redrawn = mem.end_of_round(r, [None] * mem.m)
        assert redrawn
        for key_id in redrawn:
            cert = mem.records[key_id].cert
            assert cert == mem.get_membership(by_id[key_id], r + 1)
            fresh = PublicKey.from_id(key_id)
            for shard in (cert.shard, cert.shard % mem.m + 1):
                expect = shard == cert.shard
                assert mem.verify_member(fresh, cert.sigma, shard, r + 1) is expect
                assert mem.verify_member(cert.pk, cert.sigma, shard, r + 1) is expect
            seated_joiners += key_id.endswith("x")
    assert seated_joiners > 0


def _scanned_by_shard(mem):
    """Each shard's certificates from a from-scratch scan, in key-id order."""
    certs = [rec.cert for _, rec in sorted(mem.records.items()) if rec.cert is not None]
    return [[c for c in certs if c.shard == shard] for shard in range(1, mem.m + 1)]


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    t_lease=st.sampled_from([1, 3, 5]),
    joins=st.lists(st.integers(1, 12), max_size=6),
    rounds=st.integers(1, 16),
)
def test_by_shard_equals_scan_of_certificates(m, t_lease, joins, rounds):
    scheme, _, mem = _fresh(m=m, n=8, t_lease=t_lease)
    joiners = [scheme.keygen(f"n{i:05d}x") for i in range(len(joins))]
    assert mem.by_shard == _scanned_by_shard(mem)
    for r in range(1, rounds + 1):
        mem.register_nodes(r, [kp.pk for kp, t in zip(joiners, joins) if t == r])
        mem.end_of_round(r, [None] * mem.m)
        assert mem.by_shard == _scanned_by_shard(mem)
        seated = sum(rec.cert is not None for rec in mem.records.values())
        assert sum(shard_counts(mem)) == seated


# -- assignment distribution --------------------------------------------------


def test_assignment_uniform_chi_square():
    _, _, mem = _fresh(m=8, n=100_000, t_lease=3, prefix="x")
    result = scipy.stats.chisquare(shard_counts(mem))
    assert result.pvalue > 0.01, shard_counts(mem)


def test_consecutive_epoch_draws_uncorrelated():
    _, kps, mem = _fresh(m=4, n=4000, t_lease=1, prefix="c")
    first = [mem.records[kp.pk.id].cert.shard for kp in kps]
    _advance(mem, 1)
    second = [mem.records[kp.pk.id].cert.shard for kp in kps]
    rho = scipy.stats.pearsonr(first, second).statistic
    assert abs(rho) < 3 / math.sqrt(len(kps)), rho


# -- seed evolution -----------------------------------------------------------


def test_empty_round_seed_evolution_is_leader_free():
    scheme = SignatureScheme()
    s = evolve_shard_seed(scheme, b"seed0", 3)
    assert s == evolve_shard_seed(scheme, b"seed0", 3, leader=None)
    assert s != evolve_shard_seed(scheme, b"seed0", 4)


def test_leader_changes_seed_path():
    scheme = SignatureScheme()
    a = scheme.keygen("leader-a")
    b = scheme.keygen("leader-b")
    empty = evolve_shard_seed(scheme, b"seed0", 3)
    with_a = evolve_shard_seed(scheme, b"seed0", 3, leader=a)
    with_b = evolve_shard_seed(scheme, b"seed0", 3, leader=b)
    assert len({empty, with_a, with_b}) == 3
    assert with_a == evolve_shard_seed(scheme, b"seed0", 3, leader=a)


def test_seed_sequence_uniform_ks():
    scheme = SignatureScheme()
    seed = GENESIS
    values = []
    for r in range(10_000):
        seed = evolve_shard_seed(scheme, seed, r)
        values.append(unit_hash(seed) / (1 << UNIT_BITS))
    stat, pvalue = scipy.stats.kstest(values, "uniform")
    assert pvalue > 0.01, stat


# -- golden vector text -------------------------------------------------------


def test_golden_vector_text_deterministic():
    ids = [f"k{i:02d}" for i in range(16)]
    a = golden_vector_text(GENESIS, ids, 4, 5, 15)
    b = golden_vector_text(GENESIS, ids, 4, 5, 15)
    assert a == b
    assert a != golden_vector_text(GENESIS, ids, 4, 1, 15)
    lines = a.splitlines()
    assert lines[0] == "# membership golden vectors"
    body = [ln for ln in lines if ln.startswith("round=")]
    assert len(body) == 16 * 15
