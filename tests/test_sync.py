"""Remote-support collection: eager replication and the lazy recipient filter."""

import random

from hypothesis import given, settings, strategies as st

from shardsim.keys import PublicKey
from shardsim.ledger import Block, GlobalBlock, Transaction, TxOutput, build_transaction, verify
from shardsim.partition import PartitionSpec
from shardsim.simulation import RunConfig, Simulation
from shardsim.sync import eager_collect_support, lazy_collect_support


def _tx(sender_pos, recipient_positions, tx_id):
    sender = PublicKey(f"s@{sender_pos}", sender_pos)
    outs = tuple(
        TxOutput(PublicKey(f"r@{p}", p), 1) for p in recipient_positions
    )
    return Transaction(tx_id, sender, outs, b"")


def _global_block(m, txs):
    spec = PartitionSpec(m)
    return GlobalBlock(tuple(Block.of(part) for part in spec.part(txs)))


def _interval(gb, shard):
    return PartitionSpec(gb.m).interval(shard)


def _random_global_block(m, count, seed):
    rng = random.Random(seed)
    txs = [
        _tx(rng.uniform(1e-9, 1.0), [rng.uniform(1e-9, 1.0)], f"x{i:04d}")
        for i in range(count)
    ]
    return _global_block(m, txs), txs


def test_single_shard_has_no_remote_support():
    gb, _ = _random_global_block(1, 20, seed=1)
    assert eager_collect_support(gb, _interval(gb, 1)).txs == frozenset()
    assert lazy_collect_support(gb, _interval(gb, 1)).txs == frozenset()


def test_eager_empty_when_all_senders_local():
    txs = [_tx(0.1, [0.9], "a"), _tx(0.2, [0.3], "b")]
    gb = _global_block(4, txs)
    assert eager_collect_support(gb, _interval(gb, 1)).txs == frozenset()


def test_eager_union_with_own_sub_block_is_global_block():
    for shard in range(1, 5):
        gb, txs = _random_global_block(4, 60, seed=shard)
        rs = eager_collect_support(gb, _interval(gb, shard))
        assert rs.txs | gb.sub_block(shard).txs == frozenset(txs)
        assert not rs.txs & gb.sub_block(shard).txs


def test_lazy_empty_without_cross_shard_payments():
    # Every payment stays inside its sender's shard.
    txs = [_tx(0.1, [0.2], "a"), _tx(0.6, [0.7], "b"), _tx(0.9, [0.95], "c")]
    gb = _global_block(4, txs)
    for shard in range(1, 5):
        assert lazy_collect_support(gb, _interval(gb, shard)).txs == frozenset()


def test_lazy_includes_only_payments_into_shard():
    remote_in = _tx(0.9, [0.1], "in")     # pays into shard 1
    remote_out = _tx(0.8, [0.6], "out")   # stays away from shard 1
    gb = _global_block(4, [remote_in, remote_out])
    rs = lazy_collect_support(gb, _interval(gb, 1))
    assert rs.txs == frozenset([remote_in])


def test_lazy_never_ships_own_sub_block():
    # A local sender paying a local recipient is not remote support even
    # though the recipient is in the shard.
    local = _tx(0.1, [0.15], "local")
    gb = _global_block(4, [local])
    assert lazy_collect_support(gb, _interval(gb, 1)).txs == frozenset()


def test_multi_output_tx_reaches_every_recipient_shard_once():
    spanning = _tx(0.1, [0.4, 0.6, 0.65], "span")  # shard 2 and shard 3 of 4
    gb = _global_block(4, [spanning])
    assert lazy_collect_support(gb, _interval(gb, 2)).txs == frozenset([spanning])
    assert lazy_collect_support(gb, _interval(gb, 3)).txs == frozenset([spanning])
    assert lazy_collect_support(gb, _interval(gb, 4)).txs == frozenset()
    assert lazy_collect_support(gb, _interval(gb, 1)).txs == frozenset()


def test_lazy_subset_of_eager():
    for m in (2, 4, 8):
        gb, _ = _random_global_block(m, 80, seed=10 + m)
        for shard in range(1, m + 1):
            lazy = lazy_collect_support(gb, _interval(gb, shard)).txs
            eager = eager_collect_support(gb, _interval(gb, shard)).txs
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
        restricted = ctx.restricted(interval)
        recorded = [tx for tx in ctx.iter_txs() if interval.contains(tx.sender)]
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
            assert verify(block, restricted) == expect
