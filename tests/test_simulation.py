"""End-to-end behaviour of the sharded round driver and its oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shardsim.ledger import Block, LedgerContext, build_transaction, verify
from shardsim.membership import MembershipCertificate, committee_fails
from shardsim.partition import shard_index
from shardsim.simulation import (
    ConfigError,
    RunConfig,
    Simulation,
    first_divergence,
    run_unsharded_oracle,
)

from ledgerlib import iter_txs

# Tight economics: balances small enough that admissibility does real work
# from the first round on, so an injected defect cannot hide behind slack.
TIGHT = dict(n=40, rounds=120, seed=7, initial_balance=150, max_amount=100)


def _cfg(**kw) -> RunConfig:
    return RunConfig(**kw)


# -- configuration validation -------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(n=0),
        dict(m=0),
        dict(rounds=-1),
        dict(sync="gossip"),
        dict(t_lease=0),
        dict(sync="eager", t_lease=3),
        dict(byzantine_fraction=1.0),
        dict(byzantine_fraction=-0.1),
        dict(n=1),
        dict(adversary="double-spend", n=2),
        dict(adversary="adaptive-greedy"),
        dict(adversary="sybil"),
        dict(tx_rate=-1),
        dict(max_amount=0),
        dict(initial_balance=-5),
        dict(self_containment_samples=-1),
        dict(negative_mode="sabotage"),
        dict(seed=-1),
        dict(initial_balance=2**64),
        dict(n=4, initial_balance=2**60),  # total supply 2**62
        dict(max_amount=2**63),
    ],
)
def test_validate_rejects(kw):
    # A config is checked when it is built.
    with pytest.raises(ConfigError):
        _cfg(**kw)


def test_validate_accepts_defaults():
    _cfg()
    _cfg(sync="lazy", t_lease=10)


def test_config_is_frozen():
    cfg = _cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.self_containment_samples = -1
    assert cfg.n == 40 and cfg.self_containment_samples == 0


@pytest.mark.parametrize("sync,t_lease", [("eager", 1), ("lazy", 2)])
def test_largest_accepted_amounts_run(sync, t_lease):
    # Balances, workload amounts and sampled amounts all fit their encodings.
    cfg = _cfg(
        n=4, rounds=3, sync=sync, t_lease=t_lease, initial_balance=2**60 - 1, max_amount=2**63 - 1
    )
    assert not Simulation(cfg).run().halted


def test_simulator_rejects_bins_only_adversaries():
    for adversary in ("adaptive-greedy", "adaptive-random", "static"):
        with pytest.raises(ConfigError, match="bins analyses"):
            Simulation(_cfg(adversary=adversary, sync="lazy", t_lease=5))


def test_containment_samples_default_policy():
    assert _cfg(sync="eager").self_containment_samples == 0
    assert _cfg(sync="lazy", t_lease=5).self_containment_samples == 20
    assert _cfg(sync="lazy", t_lease=5, self_containment_samples=7).self_containment_samples == 7
    assert _cfg(sync="eager", self_containment_samples=3).self_containment_samples == 3


# -- bootstrap ----------------------------------------------------------------


def test_bootstrap_single_shard_holds_everything():
    sim = Simulation(_cfg(n=12, m=1, rounds=0))
    genesis_ids = sim.result.global_blocks[0]
    assert len(genesis_ids) == 12
    local_ids = sorted(tx.tx_id for tx in iter_txs(sim.local_ctx[0]))
    assert tuple(local_ids) == genesis_ids
    for kp in sim.clients:
        assert sim.local_ctx[0].balance(kp.pk) == 1000
        assert sim.global_ctx.balance(kp.pk) == 1000


def test_bootstrap_partitions_genesis_disjointly():
    sim = Simulation(_cfg(n=24, m=4, rounds=0))
    # Each round appends the shard's own sub-block, then its remote support.
    own = [{tx.tx_id for e in ctx.entries[::2] for tx in e.block} for ctx in sim.local_ctx]
    union = set().union(*own)
    assert union == set(sim.result.global_blocks[0])
    assert sum(len(s) for s in own) == len(union)  # pairwise disjoint


def test_bootstrap_eager_replicates_genesis_everywhere():
    sim = Simulation(_cfg(n=24, m=4, rounds=0))
    for ctx in sim.local_ctx:
        for kp in sim.clients:
            assert ctx.balance(kp.pk) == 1000


def test_bootstrap_lazy_sees_only_local_grants():
    # Genesis grants are all sent by the mint, so they live in the mint's
    # shard; every other shard receives exactly its own residents' grants
    # through lazy support.
    sim = Simulation(_cfg(n=24, m=4, rounds=0, sync="lazy", t_lease=3))
    mint_shard = shard_index(sim.mint.pk.position, sim.cfg.m)
    for i, ctx in enumerate(sim.local_ctx, start=1):
        for kp in sim.clients:
            resident = shard_index(kp.pk.position, sim.cfg.m) == i
            expect = 1000 if (i == mint_shard or resident) else 0
            assert ctx.balance(kp.pk) == expect


# -- honest runs and oracle equivalence ---------------------------------------


def test_zero_rate_produces_empty_rounds():
    res = Simulation(_cfg(n=10, m=2, rounds=5, tx_rate=0)).run()
    assert res.global_blocks[1:] == [()] * 5
    assert res.admitted == 0
    assert res.local_fractions == [0.0, 0.0]  # genesis is not counted
    assert not res.halted


def test_single_shard_equals_oracle():
    cfg = _cfg(n=30, m=1, rounds=8, seed=3, **{})
    res = Simulation(cfg).run()
    oracle = run_unsharded_oracle(cfg)
    assert res.global_blocks == oracle
    assert first_divergence(res.global_blocks, oracle) is None


@pytest.mark.parametrize("m,sync,t_lease", [(2, "eager", 1), (4, "eager", 1), (4, "lazy", 3)])
def test_sharded_run_equals_oracle(m, sync, t_lease):
    cfg = _cfg(n=60, m=m, rounds=6, seed=11, sync=sync, t_lease=t_lease)
    res = Simulation(cfg).run()
    assert not res.halted, res.breaches
    oracle = run_unsharded_oracle(cfg)
    assert first_divergence(res.global_blocks, oracle) is None
    assert len(res.global_blocks) == len(oracle) == 7


# The exact check as a property: small honest configs, tight balances so that
# greedy rejects often, and committees small enough that a shard can be empty.
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 30),
    m=st.integers(1, 8),
    rounds=st.integers(1, 6),
    seed=st.integers(0, 2**20),
    lease=st.sampled_from([None, 1, 2, 3]),  # None: eager, else lazy
    tx_rate=st.integers(0, 40),
    max_amount=st.integers(1, 40),
    initial_balance=st.integers(0, 40),
)
def test_honest_run_equals_oracle_unless_a_committee_is_empty(
    n, m, rounds, seed, lease, tx_rate, max_amount, initial_balance
):
    cfg = _cfg(
        n=n, m=m, rounds=rounds, seed=seed,
        sync="eager" if lease is None else "lazy", t_lease=lease or 1,
        tx_rate=tx_rate, max_amount=max_amount, initial_balance=initial_balance,
    )
    res = Simulation(cfg).run()
    assert not res.halted, res.breaches
    assert res.rounds_completed == rounds
    div = first_divergence(res.global_blocks, run_unsharded_oracle(cfg))
    if div is not None:
        assert any(
            rec.round == div and rec.status == "no-committee" for rec in res.records
        ), f"round {div} diverges with every committee seated"


def test_run_is_reproducible():
    cfg = _cfg(n=40, m=4, rounds=5, seed=9, sync="lazy", t_lease=2)
    a = Simulation(cfg).run()
    b = Simulation(cfg).run()
    assert a.global_blocks == b.global_blocks
    assert a.records == b.records
    assert a.local_fractions == b.local_fractions


# Seed state after six honest rounds (n=40, m=4, seed=3): shard seeds, then
# the global seed. Eager at tx_rate 4 mixes empty and leader-signed
# sub-blocks; every lazy sub-block is leader-signed; tx_rate 0 is leaderless.
_PINNED_SEEDS = [
    (
        dict(tx_rate=4),
        [
            "7339ab0e6862f102f07f09b37e4a98507b1f2ce40ac9113424f766a2f8b756a9",
            "c347e67778bf039e858d08de367e9bcc85275c372552c5893c4c332f7bf2c84e",
            "edc777fb1dde3e1600cea8728dd1a9831e1c9ef0ea1d0fca903350000ce1e637",
            "d190014ae3a9a4a921acde9eb0aa644f3971fb5d30da9aebf97ebc1b6bd893ae",
        ],
        "59be3bcaaf91c75902bbbe4397d71f1686e6fbf743d2285912b50984f6f8f36e",
    ),
    (
        dict(sync="lazy", t_lease=3),
        [
            "ee4ce75d0b7ab6916e051c307b2104dbcbbc7705a600cbb65bce3d6c82c17dfc",
            "8973f4f028a73ed6307f2d90dc422a9ba33ef2124909da2182d29e85051fafe8",
            "f4d379ad3cf25ee44b74edc184e5e9d79b8a4aa9e95afa1f5d4b0b9b137da953",
            "4114adcd4b5633544b1000cdbf49c30b5ea06ebdf805143a375e70cda4ec1d64",
        ],
        "660449c40a78075b808557044c9ab6a87d745f23360257b53e4e98c27fa3402b",
    ),
    (
        dict(tx_rate=0),
        [
            "9ce95fb35358cf8dfeec3c42a746c8e09d87e3192758d0613bc1b4fb6ec6087a",
            "31d1c2c00b137ecc30bca2dd3bae9c698a1b63f1871aaef3392fd760a2d40e55",
            "0fc1392a97ee7efdfeea640cf4b548521cc30e694934feb657bb745dae61b8e5",
            "455df23820719ac9ee86f71e1a36063de31eed1036296ad352e7275ae3598033",
        ],
        "7a5e93ef4999d172ad14ff3dc1aa1bbbb1e9ac3793ae65facb14c2d2c5aec0ec",
    ),
]


@pytest.mark.parametrize(
    "kw,shard_seeds,global_seed", _PINNED_SEEDS, ids=["eager", "lazy", "leaderless"]
)
def test_seed_path_is_pinned(kw, shard_seeds, global_seed):
    sim = Simulation(_cfg(n=40, m=4, rounds=6, seed=3, **kw))
    assert not sim.run().halted
    mem = sim.membership
    assert mem.round == 7
    assert [s.hex() for s in mem.shard_seeds] == shard_seeds
    assert mem.global_seeds[7].hex() == global_seed


def test_tight_economics_stay_honest():
    # Admissibility pressure alone must not breach anything.
    cfg = _cfg(m=2, **TIGHT)
    res = Simulation(cfg).run()
    assert not res.halted
    assert first_divergence(res.global_blocks, run_unsharded_oracle(cfg)) is None
    # The pressure is real: some submitted transactions were dropped.
    assert res.admitted < cfg.rounds * cfg.tx_rate


def test_eager_replicates_full_ledger():
    res = Simulation(_cfg(n=40, m=4, rounds=6, seed=5)).run()
    assert res.local_fractions == [1.0] * 4


def test_lazy_fractions_are_partial():
    res = Simulation(
        _cfg(n=80, m=4, rounds=10, seed=6, sync="lazy", t_lease=2)
    ).run()
    assert not res.halted
    for frac in res.local_fractions:
        assert 0.15 < frac < 0.75


def test_round_records_shape():
    cfg = _cfg(n=20, m=2, rounds=4, seed=1)
    res = Simulation(cfg).run()
    assert len(res.records) == 8  # rounds x shards
    assert [(rec.round, rec.shard) for rec in res.records] == [
        (r, s) for r in range(1, 5) for s in (1, 2)
    ]
    for rec in res.records:
        assert rec.status == "ok"
        assert rec.byzantine == 0
        assert 0 <= rec.certified <= rec.members


# -- consensus-phase details --------------------------------------------------


def test_wrong_shard_certificates_are_discarded():
    sim = Simulation(_cfg(n=30, m=2, rounds=2))
    real = sim.membership.by_shard[0]
    assert real, "shard 1 should be populated"
    # Present shard 1's certificates as if they claimed shard 2 seats.
    block, certified, byz, breach = sim.decide_sub_block(2, real, set(), 1)
    assert certified == []
    assert len(block) == 0
    assert byz == 0 and breach is None


def test_tampered_sigma_is_discarded():
    sim = Simulation(_cfg(n=30, m=2, rounds=2))
    real = sim.membership.by_shard[0]
    forged = [MembershipCertificate(c.pk, c.shard, b"\x00" * 32) for c in real]
    block, certified, _, _ = sim.decide_sub_block(1, forged, set(), 1)
    assert certified == []
    assert len(block) == 0


def test_competing_pool_resolves_to_lexicographic_winner():
    sim = Simulation(_cfg(n=30, m=2, rounds=2))
    spender = sim.clients[0]
    others = sim.clients[1:3]
    bal = sim.global_ctx.balance(spender.pk)
    tx_a = build_transaction(sim.scheme, spender, [(others[0].pk, bal)], "dup-a")
    tx_b = build_transaction(sim.scheme, spender, [(others[1].pk, bal)], "dup-b")
    shard = sim.spec.which_part(tx_a)
    parts = sim.membership.by_shard[shard - 1]
    block, certified, _, _ = sim.decide_sub_block(shard, parts, {tx_a, tx_b}, 1)
    assert certified
    assert {tx.tx_id for tx in block} == {"dup-a"}
    assert verify(block, sim.local_ctx[shard - 1])


# -- self-containment sampler -------------------------------------------------


def _own_rescan(ctx):
    # Own sub-blocks are the even entries: each round appends one, then the support.
    return [tx for e in ctx.entries[::2] for tx in e.block]


def test_own_tx_index_matches_rescan():
    sim = Simulation(_cfg(n=60, m=3, rounds=40, seed=4, sync="lazy", t_lease=5))
    for own, ctx in zip(sim._own_txs, sim.local_ctx):
        assert own == _own_rescan(ctx)
    sample = sim._sample_candidate
    candidates = []

    def recording(*args):
        candidates.append(sample(*args))
        return candidates[-1]

    sim._sample_candidate = recording
    res = sim.run()
    assert not res.halted, res.breaches
    for own, ctx in zip(sim._own_txs, sim.local_ctx):
        assert own == _own_rescan(ctx)
    replays = [b for b in candidates if not next(iter(b)).tx_id.startswith("cand")]
    assert replays


def _record_candidates(sim):
    """Wrap ``sim``'s sampler: each candidate as (shard, block, sender balances).

    The balances are the global ones at sampling time, which the sampler's
    amount draws are bounded by.
    """
    sample, seen = sim._sample_candidate, []

    def recording(shard, *args):
        block = sample(shard, *args)
        balances = {tx.sender.id: sim.global_ctx.balance(tx.sender) for tx in block}
        seen.append((shard, block, balances))
        return block

    sim._sample_candidate = recording
    return seen


def _fresh(seen):
    return [(shard, block, bal) for shard, block, bal in seen if _is_fresh(block)]


def _is_fresh(block):
    return next(iter(block)).tx_id.startswith("cand")


def test_sampled_candidates_follow_the_draw_rules():
    sim = Simulation(_cfg(n=60, m=3, rounds=40, seed=4, sync="lazy", t_lease=5))
    seen = _record_candidates(sim)
    assert not sim.run().halted
    assert len(seen) == 3 * 20 * 40
    clients = {kp.pk.id for kp in sim.clients}
    # Own transactions are only ever appended, so every replay is still there.
    own = [{id(tx) for tx in txs} for txs in sim._own_txs]
    replays = [(shard, block) for shard, block, _ in seen if not _is_fresh(block)]
    for shard, block in replays:
        (tx,) = block
        assert id(tx) in own[shard - 1]
    overspent = []
    for shard, block, balances in _fresh(seen):
        assert 1 <= len(block) <= 3
        for tx in block:
            (out,) = tx.outputs
            assert tx.tx_id.startswith("cand")
            assert shard_index(tx.sender.position, sim.cfg.m) == shard
            assert 1 <= out.amount <= max(1, 2 * balances[tx.sender.id])
            assert out.to.id in clients
            overspent.append(out.amount > balances[tx.sender.id])
    assert {len(block) for _, block, _ in _fresh(seen)} == {1, 2, 3}
    # A candidate replays with probability 1/4 (2400 candidates, sd 0.009),
    # and a fresh amount, uniform on [1, 2 * balance], overspends with
    # probability 1/2 (about 3600 transactions, sd 0.008; no sender here is
    # broke, which would push the share up).
    assert 0.22 < len(replays) / len(seen) < 0.28
    assert 0.475 < np.mean(overspent) < 0.525


def test_sampler_amounts_at_the_supply_bound():
    # The largest supply RunConfig admits: 2 * balance + 1 must stay in int64.
    cfg = _cfg(n=2, initial_balance=2**61 - 1, rounds=10, sync="lazy", t_lease=2)
    sim = Simulation(cfg)
    seen = _record_candidates(sim)
    assert not sim.run().halted
    # Both keys live in one shard, and the empty one samples nothing.
    assert sorted(map(len, sim._clients_by_shard)) == [0, 2]
    assert len(seen) == 20 * cfg.rounds
    drawn = [
        (tx.outputs[0].amount, balances[tx.sender.id])
        for _, block, balances in _fresh(seen)
        for tx in block
    ]
    assert drawn and all(1 <= amount <= max(1, 2 * bal) for amount, bal in drawn)
    assert max(amount for amount, _ in drawn) >= 2**61


# -- negative modes and the Byzantine path ------------------------------------


def test_conflict_partition_breaches_globally():
    cfg = _cfg(m=2, negative_mode="conflict-partition", **TIGHT)
    res = Simulation(cfg).run()
    assert res.halted_round == 1
    kinds = {b.kind for b in res.breaches}
    assert "global-admissibility" in kinds
    oracle = run_unsharded_oracle(dataclasses.replace(cfg, negative_mode="none"))
    assert first_divergence(res.global_blocks, oracle) == 1


@pytest.mark.parametrize("seed", range(20))
def test_broken_sync_trips_containment_monitor(seed):
    cfg = _cfg(m=2, sync="lazy", t_lease=3, negative_mode="broken-sync", **dict(TIGHT, seed=seed))
    res = Simulation(cfg).run()
    # The monitor samples, so detection can lag the defect by a round or
    # two, but never by much under this much admissibility pressure.
    assert res.halted_round is not None and res.halted_round <= 5
    kinds = {b.kind for b in res.breaches}
    assert "self-containment" in kinds


@pytest.mark.parametrize(
    "kw, halts",
    [
        (dict(m=2, sync="lazy", t_lease=3, negative_mode="broken-sync", **TIGHT), True),
        (dict(m=2, **dict(TIGHT, rounds=6)), False),
    ],
    ids=["halting", "honest"],
)
def test_result_derives_rounds_and_halt(kw, halts):
    res = Simulation(_cfg(**kw)).run()
    assert res.halted == bool(res.breaches) == halts
    assert res.rounds_completed == len(res.global_blocks) - 1
    assert res.rounds_completed == (res.breaches[0].round if halts else kw["rounds"])
    assert res.halted_round == (res.breaches[0].round if halts else None)


def test_broken_sync_needs_the_monitor():
    # Same defect with the monitor disabled: nothing halts, which is the
    # point of requiring the monitor under lazy sync.
    cfg = _cfg(
        m=2,
        sync="lazy",
        t_lease=3,
        negative_mode="broken-sync",
        self_containment_samples=0,
        **TIGHT,
    )
    res = Simulation(cfg).run()
    assert "self-containment" not in {b.kind for b in res.breaches}


def test_double_spend_with_captured_shard_halts():
    cfg = _cfg(
        n=24,
        m=4,
        rounds=10,
        seed=0,
        byzantine_fraction=0.4,
        adversary="double-spend",
    )
    res = Simulation(cfg).run()
    assert res.halted
    kinds = {b.kind for b in res.breaches}
    assert "honest-majority" in kinds
    assert "global-admissibility" in kinds or "shard-legality" in kinds
    assert any(rec.byzantine > 0 for rec in res.records)


def test_colliding_adversary_blocks_halt_with_breaches():
    # Two shards compromised in round 1 both mint ds-r000001a and -b.
    sim = Simulation(
        _cfg(n=40, m=4, rounds=20, seed=0, byzantine_fraction=0.5, adversary="double-spend")
    )
    res = sim.run()
    assert res.halted_round == 1
    kinds = [b.kind for b in res.breaches]
    assert kinds.count("honest-majority") >= 2
    assert "global-admissibility" in kinds
    # Every shard ships from the one published block what its own sub-block
    # lacks, by id: the two split the published ids between them.
    published = sim.global_ctx.entries[-1].block
    for ctx in sim.local_ctx:
        own, support = (e.block for e in ctx.entries[-2:])
        assert support.txs <= published.txs
        own_ids, support_ids = ({tx.tx_id for tx in b} for b in (own, support))
        assert own_ids | support_ids == {tx.tx_id for tx in published}
        assert not own_ids & support_ids


def test_colliding_ids_publish_the_highest_shards_version():
    # Shards 1, 3 and 4 are compromised in round 1, and each mints its own
    # ds-r000001a and -b. The published block holds shard 4's versions.
    # Shards 1 and 3 keep their own, and shard 2 ingests the published ones.
    sim = Simulation(
        _cfg(n=40, m=4, rounds=20, seed=0, byzantine_fraction=0.5, adversary="double-spend")
    )
    sim.run()

    def ds_senders(txs):
        return {tx.tx_id: tx.sender.id for tx in txs if tx.tx_id.startswith("ds-")}

    ids = ("ds-r000001a", "ds-r000001b")
    assert ds_senders(sim.global_ctx.entries[-1].block) == dict.fromkeys(ids, "u00001")
    for ctx, sender in zip(sim.local_ctx, ("u00009", "u00001", "u00004", "u00001")):
        assert ds_senders(iter_txs(ctx)) == dict.fromkeys(ids, sender)


@pytest.mark.parametrize("seed", range(40))
def test_colliding_ids_enter_each_local_context_once(seed):
    # Both shards mint the ds- ids; the one whose version lost the published
    # block keeps its own and must not ingest the winner's as well.
    sim = Simulation(
        _cfg(n=40, m=2, rounds=20, seed=seed, byzantine_fraction=0.5, adversary="double-spend")
    )
    res = sim.run()
    for ctx in sim.local_ctx:
        ids = [tx.tx_id for tx in iter_txs(ctx)]
        assert len(ids) == len(set(ids))
    assert all(frac <= 1.0 for frac in res.local_fractions), res.local_fractions


def test_sub_blocks_sharing_an_id_breach_global_admissibility(monkeypatch):
    # Shard 2 also decides one honest transaction of shard 1's. Under eager
    # sync that keeps shard 2 legal, and the deduplicated published block is
    # the honest one, so only the disjointness clause can see the collision.
    decide = Simulation.decide_sub_block
    shared = []

    def doubled(self, shard, participations, pool, r):
        block, certified, byz, breach = decide(self, shard, participations, pool, r)
        if shard == 1:
            shared.append(min(block.txs, key=lambda tx: tx.tx_id))
        elif shard == 2:
            block = Block.of([*block, shared[-1]])
        return block, certified, byz, breach

    monkeypatch.setattr(Simulation, "decide_sub_block", doubled)
    cfg = _cfg(n=40, m=2, rounds=5, seed=0)
    sim = Simulation(cfg)
    res = sim.run()
    assert [(b.round, b.shard, b.kind) for b in res.breaches] == [(1, 0, "global-admissibility")]
    assert [rec.status for rec in res.records] == ["ok", "ok"]
    genesis, published = (e.block for e in sim.global_ctx.entries)
    assert shared[0] in published.txs
    ctx = LedgerContext(sim.scheme, sim.mint.pk)
    ctx.append(genesis, round=0)
    assert verify(published, ctx)
    assert res.global_blocks == run_unsharded_oracle(dataclasses.replace(cfg, rounds=1))


_SYNCS = {"eager": dict(sync="eager"), "lazy": dict(sync="lazy", t_lease=3)}


@pytest.mark.parametrize(
    "kw",
    [
        *(
            pytest.param(dict(TIGHT, m=2, seed=seed, negative_mode=mode, **_SYNCS[sync]),
                         id=f"{mode}-{sync}-{seed}")
            for mode in ("none", "conflict-partition")
            for sync in _SYNCS
            for seed in (1, 2, 3)
        ),
        pytest.param(
            dict(n=40, m=4, rounds=20, seed=0, byzantine_fraction=0.5, adversary="double-spend"),
            id="colliding-double-spend",
        ),
    ],
)
def test_no_local_context_holds_an_id_twice(kw):
    sim = Simulation(_cfg(**kw))
    res = sim.run()
    for ctx in sim.local_ctx:
        assert sum(len(e.block) for e in ctx.entries) == len({tx.tx_id for tx in iter_txs(ctx)})
    if kw.get("negative_mode") == "conflict-partition" and kw["sync"] == "eager":
        # Eager support is every published id the own sub-block lacks.
        assert res.local_fractions == [1.0, 1.0]


def _float_breach(byz, certified, h_p=2 / 3):
    # The honest-majority test the simulator applied before committee_fails.
    return byz >= (1.0 - h_p) * certified - 1e-12


def test_committee_fails_equals_float_breach_test():
    for certified in range(1, 2001):
        byz = np.arange(certified + 1)
        assert np.array_equal(committee_fails(byz, certified), _float_breach(byz, certified))
    assert all(
        committee_fails(byz, c) == _float_breach(byz, c)
        for c in range(1, 100)
        for byz in range(c + 1)
    )
    # A shard without certified members decides the empty block, no breach.
    assert not committee_fails(0, 0)


def test_byzantine_minority_stays_safe():
    cfg = _cfg(
        n=60,
        m=2,
        rounds=8,
        seed=2,
        byzantine_fraction=0.1,
        adversary="double-spend",
    )
    res = Simulation(cfg).run()
    assert not res.halted
    assert first_divergence(res.global_blocks, run_unsharded_oracle(cfg)) is None


# -- divergence helper --------------------------------------------------------


def test_first_divergence_basics():
    a = [("x",), ("y",), ("z",)]
    assert first_divergence(a, list(a)) is None
    assert first_divergence(a, [("x",), ("q",), ("z",)]) == 1
    assert first_divergence(a, a[:2]) is None  # common prefix only
    assert first_divergence([], a) is None


# -- one signature check per scheme -------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(n=60, m=4, rounds=30, seed=3, tx_rate=60, initial_balance=30),
        RunConfig(
            n=60, m=3, rounds=30, seed=4, tx_rate=60, initial_balance=30,
            sync="lazy", t_lease=3,
        ),
    ],
    ids=["eager", "lazy"],
)
def test_honest_run_checks_no_signature_twice(cfg, verify_checks):
    # Greedy, legality, global verify and the sampler's second context reuse
    # the ledger's verdicts; verify_member reuses the record's proved claim.
    result = Simulation(cfg).run()
    assert not result.halted
    assert verify_checks
    assert len(set(verify_checks)) == len(verify_checks)
