"""Remote support, what a shard lacks: eager ships it all, lazy what pays a resident."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.keys import PublicKey
from shardsim.ledger import Block, Transaction, TxOutput, build_transaction, verify
from shardsim.partition import PartitionSpec, shard_index
from shardsim.simulation import RunConfig, Simulation
from shardsim.sync import eager_collect_support, lazy_collect_support

from ledgerlib import iter_txs, restricted

from conftest import tx_content

# Position Q stands for the point 1 of the unit interval.
Q = 1 << 64


def _tx(sender_pos, recipient_positions, tx_id):
    sender = PublicKey(f"s@{sender_pos}", sender_pos)
    outs = tuple(
        TxOutput(PublicKey(f"r@{p}", p), 1) for p in recipient_positions
    )
    return Transaction(tx_id, sender, outs, b"")


def _own(published, m, shard):
    """Shard ``shard``'s own sub-block: the published transactions it routes by sender."""
    return Block.of(PartitionSpec(m).part(published)[shard - 1])


def _random_block(count, seed):
    rng = random.Random(seed)
    return Block.of(
        _tx(rng.randint(1, Q), [rng.randint(1, Q)], f"x{i:04d}")
        for i in range(count)
    )


def test_single_shard_has_no_remote_support():
    published = _random_block(20, seed=1)
    assert eager_collect_support(published, published).txs == frozenset()
    assert lazy_collect_support(published, published, 1, 1).txs == frozenset()


def test_eager_empty_when_all_senders_local():
    published = Block.of([_tx(Q // 10, [9 * Q // 10], "a"), _tx(Q // 5, [3 * Q // 10], "b")])
    own = _own(published, 4, 1)
    assert own == published
    assert eager_collect_support(published, own).txs == frozenset()


def test_eager_union_with_own_sub_block_is_global_block():
    for shard in range(1, 5):
        published = _random_block(60, seed=shard)
        own = _own(published, 4, shard)
        rs = eager_collect_support(published, own)
        assert rs.txs | own.txs == published.txs
        assert not rs.txs & own.txs


@pytest.mark.parametrize("m", [1, 3, 7, 8])
def test_eager_support_at_interval_boundaries(m):
    # Senders and recipients at lo, lo+1, hi and hi+1 of every shard's slice
    # (lo, hi] of the key line.
    his = [(i * Q) // m for i in range(m + 1)]
    positions = sorted({p for hi in his for p in (hi, hi + 1) if 1 <= p <= Q})
    published = Block.of(
        _tx(p, [positions[-1 - k]], f"b{k:03d}") for k, p in enumerate(positions)
    )
    for shard in range(1, m + 1):
        lo, hi = his[shard - 1], his[shard]
        own = _own(published, m, shard)
        assert {tx.sender.position for tx in own} == {p for p in positions if lo < p <= hi}
        eager = eager_collect_support(published, own)
        assert eager.txs == published.txs - own.txs
        lazy = lazy_collect_support(published, own, shard, m)
        assert lazy.txs == {tx for tx in eager if lo < tx.outputs[0].to.position <= hi}


@pytest.mark.parametrize("m", [1, 3, 7, 8])
def test_eager_support_of_genesis_is_all_or_nothing(m):
    # Genesis is sent by the mint: the mint's shard keeps all of it as its own
    # sub-block and every other shard ships all of it.
    sim = Simulation(RunConfig(n=12, m=m, rounds=0))
    genesis = sim.global_ctx.entries[0].block
    home = shard_index(sim.mint.pk.position, m)
    for shard in range(1, m + 1):
        own, support = (entry.block for entry in sim.local_ctx[shard - 1].entries)
        assert own.txs == (genesis.txs if shard == home else frozenset())
        assert support.txs == (frozenset() if shard == home else genesis.txs)
        assert eager_collect_support(genesis, own) == support


def test_lazy_empty_without_cross_shard_payments():
    # Every payment stays inside its sender's shard.
    published = Block.of(
        [
            _tx(Q // 10, [Q // 5], "a"),
            _tx(3 * Q // 5, [7 * Q // 10], "b"),
            _tx(9 * Q // 10, [19 * Q // 20], "c"),
        ]
    )
    for shard in range(1, 5):
        own = _own(published, 4, shard)
        assert lazy_collect_support(published, own, shard, 4).txs == frozenset()


def test_lazy_includes_only_payments_into_shard():
    remote_in = _tx(9 * Q // 10, [Q // 10], "in")  # pays into shard 1
    remote_out = _tx(4 * Q // 5, [3 * Q // 5], "out")  # stays away from shard 1
    rs = lazy_collect_support(Block.of([remote_in, remote_out]), Block.empty(), 1, 4)
    assert rs.txs == frozenset([remote_in])


def test_lazy_never_ships_own_sub_block():
    # A local sender paying a local recipient is not remote support even
    # though the recipient is in the shard.
    local = Block.of([_tx(Q // 10, [3 * Q // 20], "local")])
    assert lazy_collect_support(local, local, 1, 4).txs == frozenset()


def test_multi_output_tx_reaches_every_recipient_shard_once():
    # Sent from shard 1, pays into shard 2 and shard 3 of 4.
    spanning = _tx(Q // 10, [2 * Q // 5, 3 * Q // 5, 13 * Q // 20], "span")
    published = Block.of([spanning])
    shipped = {
        shard: lazy_collect_support(published, _own(published, 4, shard), shard, 4).txs
        for shard in range(1, 5)
    }
    assert shipped == {1: frozenset(), 2: {spanning}, 3: {spanning}, 4: frozenset()}


def test_lazy_subset_of_eager():
    for m in (2, 4, 8):
        published = _random_block(80, seed=10 + m)
        for shard in range(1, m + 1):
            own = _own(published, m, shard)
            lazy = lazy_collect_support(published, own, shard, m).txs
            eager = eager_collect_support(published, own).txs
            assert lazy <= eager


def test_collided_round_support_and_own_split_the_published_ids():
    # The shard's own version of "x0003" lost the published block to another
    # shard's: support and own then cover the published ids, disjoint by id.
    published = _random_block(40, seed=5)
    mine = _tx(Q // 10, [Q // 2], "x0003")
    assert tx_content(mine) not in map(tx_content, published)
    own = Block.of([tx for tx in _own(published, 4, 1) if tx.tx_id != "x0003"] + [mine])
    ids = {tx.tx_id for tx in own}
    eager = eager_collect_support(published, own)
    assert {tx.tx_id for tx in eager} | ids == {tx.tx_id for tx in published}
    assert not {tx.tx_id for tx in eager} & ids
    lazy = lazy_collect_support(published, own, 1, 4)
    assert lazy.txs <= eager.txs


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
    for shard in range(1, m + 1):
        senders = [kp for kp in sim.clients if shard_index(kp.pk.position, m) == shard]
        if not senders:
            continue
        local = sim.local_ctx[shard - 1]
        supported = restricted(ctx, shard, m)
        recorded = [tx for tx in iter_txs(ctx) if shard_index(tx.sender.position, m) == shard]
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
