"""Remote-support collection: eager replication and the lazy recipient filter."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.keys import PublicKey
from shardsim.ledger import Block, Transaction, TxOutput, build_transaction, verify
from shardsim.partition import PartitionSpec, shard_index
from shardsim.simulation import RunConfig, Simulation
from shardsim.sync import eager_collect_support, lazy_collect_support

from ledgerlib import iter_txs, restricted

# Position Q stands for the point 1 of the unit interval.
Q = 1 << 64


def _tx(sender_pos, recipient_positions, tx_id):
    sender = PublicKey(f"s@{sender_pos}", sender_pos)
    outs = tuple(
        TxOutput(PublicKey(f"r@{p}", p), 1) for p in recipient_positions
    )
    return Transaction(tx_id, sender, outs, b"")


def _interval(m, shard):
    return PartitionSpec(m).interval(shard)


def _random_block(count, seed):
    rng = random.Random(seed)
    return Block.of(
        _tx(rng.randint(1, Q), [rng.randint(1, Q)], f"x{i:04d}")
        for i in range(count)
    )


def test_single_shard_has_no_remote_support():
    published = _random_block(20, seed=1)
    assert eager_collect_support(published, _interval(1, 1)).txs == frozenset()
    assert lazy_collect_support(published, _interval(1, 1)).txs == frozenset()


def test_eager_empty_when_all_senders_local():
    published = Block.of([_tx(Q // 10, [9 * Q // 10], "a"), _tx(Q // 5, [3 * Q // 10], "b")])
    assert eager_collect_support(published, _interval(4, 1)).txs == frozenset()


def test_eager_union_with_own_sub_block_is_global_block():
    for shard in range(1, 5):
        published = _random_block(60, seed=shard)
        own = PartitionSpec(4).part(published)[shard - 1]
        rs = eager_collect_support(published, _interval(4, shard))
        assert rs.txs | own == published.txs
        assert not rs.txs & own


@pytest.mark.parametrize("m", [1, 3, 7, 8])
def test_eager_support_at_interval_boundaries(m):
    # Senders at lo, lo+1, hi and hi+1 of every interval (lo itself is outside).
    intervals = [_interval(m, shard) for shard in range(1, m + 1)]
    positions = sorted({p for iv in intervals for p in (iv.lo, iv.lo + 1, iv.hi, iv.hi + 1)})
    published = Block.of(_tx(p, [Q // 2], f"b{k:03d}") for k, p in enumerate(positions))
    for shard, interval in enumerate(intervals, start=1):
        support = eager_collect_support(published, interval)
        assert support.txs == {tx for tx in published if not interval.contains(tx.sender)}
        # On the key line, a sender stays home exactly when shard_index says so.
        assert {tx.sender.position for tx in published.txs - support.txs} == {
            p for p in positions if 1 <= p <= Q and shard_index(p, m) == shard
        }


@pytest.mark.parametrize("m", [1, 3, 7, 8])
def test_eager_support_of_genesis_is_all_or_nothing(m):
    # Genesis is sent by the mint: the mint's shard keeps all of it as its own
    # sub-block and every other shard ships all of it.
    sim = Simulation(RunConfig(n=12, m=m, rounds=0))
    genesis = sim.global_ctx.entries[0].block
    for shard, interval in enumerate(sim.intervals, start=1):
        support = eager_collect_support(genesis, interval)
        home = interval.contains(sim.mint.pk)
        assert support.txs == (frozenset() if home else genesis.txs)
        assert sim.local_ctx[shard - 1].entries[1].block == support


def test_lazy_empty_without_cross_shard_payments():
    # Every payment stays inside its sender's shard.
    txs = [
        _tx(Q // 10, [Q // 5], "a"),
        _tx(3 * Q // 5, [7 * Q // 10], "b"),
        _tx(9 * Q // 10, [19 * Q // 20], "c"),
    ]
    for shard in range(1, 5):
        assert lazy_collect_support(Block.of(txs), _interval(4, shard)).txs == frozenset()


def test_lazy_includes_only_payments_into_shard():
    remote_in = _tx(9 * Q // 10, [Q // 10], "in")  # pays into shard 1
    remote_out = _tx(4 * Q // 5, [3 * Q // 5], "out")  # stays away from shard 1
    rs = lazy_collect_support(Block.of([remote_in, remote_out]), _interval(4, 1))
    assert rs.txs == frozenset([remote_in])


def test_lazy_never_ships_own_sub_block():
    # A local sender paying a local recipient is not remote support even
    # though the recipient is in the shard.
    local = _tx(Q // 10, [3 * Q // 20], "local")
    assert lazy_collect_support(Block.of([local]), _interval(4, 1)).txs == frozenset()


def test_multi_output_tx_reaches_every_recipient_shard_once():
    # Pays into shard 2 and shard 3 of 4.
    spanning = _tx(Q // 10, [2 * Q // 5, 3 * Q // 5, 13 * Q // 20], "span")
    published = Block.of([spanning])
    assert lazy_collect_support(published, _interval(4, 2)).txs == frozenset([spanning])
    assert lazy_collect_support(published, _interval(4, 3)).txs == frozenset([spanning])
    assert lazy_collect_support(published, _interval(4, 4)).txs == frozenset()
    assert lazy_collect_support(published, _interval(4, 1)).txs == frozenset()


def test_lazy_subset_of_eager():
    for m in (2, 4, 8):
        published = _random_block(80, seed=10 + m)
        for shard in range(1, m + 1):
            lazy = lazy_collect_support(published, _interval(m, shard)).txs
            eager = eager_collect_support(published, _interval(m, shard)).txs
            assert lazy <= eager


# -- lazy support suffices (property) -----------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(2, 24),
    t_lease=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    rounds=st.integers(0, 6),
    rnd=st.randoms(use_true_random=False),
)
def test_lazy_support_suffices_for_local_verify(m, n, t_lease, seed, rounds, rnd):
    # After an honest lazy run, every block drawn from a shard's own senders
    # (fresh payments, some with several outputs, and replays of recorded
    # transactions) verifies alike against the shard's local context, the
    # global context, and the global context restricted to the shard.
    cfg = RunConfig(
        n=n, m=m, rounds=rounds, seed=seed, sync="lazy", t_lease=t_lease,
        tx_rate=2 * n, initial_balance=60, max_amount=50, self_containment_samples=0,
    )
    sim = Simulation(cfg)
    res = sim.run()
    assert not res.halted, res.breaches
    ctx = sim.global_ctx
    for shard, interval in enumerate(sim.intervals, start=1):
        senders = [kp for kp in sim.clients if interval.contains(kp.pk)]
        if not senders:
            continue
        local = sim.local_ctx[shard - 1]
        supported = restricted(ctx, interval)
        recorded = [tx for tx in iter_txs(ctx) if interval.contains(tx.sender)]
        for k in range(6):
            txs = []
            for j in range(rnd.randint(1, 3)):
                if recorded and rnd.random() < 0.2:
                    txs.append(rnd.choice(recorded))
                    continue
                kp = rnd.choice(senders)
                budget = 2 * ctx.balance(kp.pk) + 1
                outputs = [
                    (rnd.choice(sim.clients).pk, rnd.randint(0, budget))
                    for _ in range(rnd.randint(1, 2))
                ]
                txs.append(build_transaction(sim.scheme, kp, outputs, f"q{shard}x{k}y{j}"))
            block = Block.of(txs)
            expect = verify(block, ctx)
            assert verify(block, local) == expect
            assert verify(block, supported) == expect
