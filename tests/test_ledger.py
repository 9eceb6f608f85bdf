"""Ledger semantics: verify, balances, support sets, competing transactions.

The randomized properties each check an implementation against an
independent reformulation written here in the test (filter-then-replay
balances, grow-and-verify greedy selection, restricted-context support).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.keys import PublicKey, SignatureScheme
from shardsim.ledger import (
    Block,
    LedgerContext,
    LedgerError,
    Transaction,
    TxOutput,
    build_transaction,
    canonical_tx_bytes,
    greedy_admissible_block,
    is_competing,
    verify,
)
from shardsim.partition import PartitionSpec

from ledgerlib import replay, restricted, support

from conftest import funded_context, make_clients, competing_pairs


class WholeInterval:
    def contains(self, pk):
        return True


class OnlyKey:
    def __init__(self, pk):
        self.pk = pk

    def contains(self, pk):
        return pk == self.pk


# -- structural validation ----------------------------------------------------


def test_transaction_requires_outputs(scheme):
    kp = scheme.keygen("s")
    with pytest.raises(LedgerError):
        Transaction("t1", kp.pk, (), b"")


def test_transaction_rejects_negative_amount(scheme):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    with pytest.raises(LedgerError):
        Transaction("t1", kp.pk, (TxOutput(to, -1),), b"")


def test_zero_amount_output_is_legal(scheme, mint):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    ctx = funded_context(scheme, mint, [kp], 10)
    tx = build_transaction(scheme, kp, [(to, 0)], "t0")
    assert verify(Block.of([tx]), ctx)


def test_block_rejects_duplicate_tx_id(scheme):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    tx1 = build_transaction(scheme, kp, [(to, 1)], "dup")
    tx2 = build_transaction(scheme, kp, [(to, 2)], "dup")
    with pytest.raises(LedgerError):
        Block.of([tx1, tx2])


def test_block_set_semantics(scheme):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    tx = build_transaction(scheme, kp, [(to, 1)], "t1")
    block = Block.of([tx, tx])
    assert len(block) == 1
    assert tx in block
    assert list(block) == [tx]
    assert len(Block.empty()) == 0


def test_canonical_bytes_sort_outputs(scheme):
    kp = scheme.keygen("s")
    a = scheme.keygen("aa").pk
    b = scheme.keygen("bb").pk
    one = canonical_tx_bytes("t", kp.pk, (TxOutput(a, 1), TxOutput(b, 2)))
    two = canonical_tx_bytes("t", kp.pk, (TxOutput(b, 2), TxOutput(a, 1)))
    assert one == two


def _reference_tx_bytes(tx_id, sender, outputs):
    """The canonical serialisation as first written: sort, then prefix each field."""

    def length_prefixed(chunk):
        return len(chunk).to_bytes(4, "big") + chunk

    parts = [length_prefixed(tx_id.encode()), length_prefixed(sender.id.encode())]
    for out in sorted(outputs, key=lambda o: (o.to.id, o.amount)):
        parts.append(length_prefixed(out.to.id.encode()))
        parts.append(out.amount.to_bytes(8, "big"))
    return b"".join(parts)


@settings(max_examples=200, deadline=None)
@given(
    tx_id=st.text(min_size=0, max_size=12),
    outputs=st.lists(
        st.tuples(st.sampled_from(["a", "b", "bb", "é", ""]), st.integers(0, 2**40)),
        min_size=1,
        max_size=4,
    ),
)
def test_canonical_bytes_match_reference_formulation(tx_id, outputs):
    sender = PublicKey.from_id("sender")
    outs = tuple(TxOutput(PublicKey.from_id(to), amount) for to, amount in outputs)
    expect = _reference_tx_bytes(tx_id, sender, outs)
    assert canonical_tx_bytes(tx_id, sender, outs) == expect
    assert canonical_tx_bytes(tx_id, sender, outs[::-1]) == expect


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_canonical_bytes_equal_recipients_reversed_inputs(count):
    # One recipient id, distinct amounts: the order rests on the amounts alone.
    sender = PublicKey.from_id("s")
    to = PublicKey.from_id("r")
    outs = tuple(TxOutput(to, amount) for amount in range(count, 0, -1))
    expect = _reference_tx_bytes("t", sender, outs)
    assert canonical_tx_bytes("t", sender, outs) == expect
    assert canonical_tx_bytes("t", sender, outs[::-1]) == expect


# -- hashing, totals and key ids ----------------------------------------------


def test_equal_transactions_hash_alike(scheme):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    tx = build_transaction(scheme, kp, [(to, 5)], "t1")
    copy = Transaction(tx.tx_id, PublicKey.from_id(kp.pk.id), tx.outputs, tx.sig)
    assert copy == tx and copy is not tx
    assert hash(copy) == hash(tx)
    assert len({tx, copy}) == 1


def test_total_amount_is_fixed_at_construction(scheme):
    kp = scheme.keygen("s")
    a = scheme.keygen("a").pk
    b = scheme.keygen("b").pk
    tx = build_transaction(scheme, kp, [(a, 3), (b, 4), (a, 0)], "t1")
    assert tx.total_amount == sum(out.amount for out in tx.outputs) == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.total_amount = 1
    assert tx.total_amount == 7


def test_balance_reads_the_key_id(scheme, mint):
    kp = scheme.keygen("s")
    ctx = funded_context(scheme, mint, [kp], 100)
    assert ctx.balance(PublicKey.from_id(kp.pk.id)) == ctx.balance(kp.pk) == 100
    assert ctx.balance(mint.pk) == 0


# -- verify examples ----------------------------------------------------------


def test_empty_block_always_admissible(scheme, mint):
    ctx = LedgerContext(scheme, mint.pk)
    assert verify(Block.empty(), ctx)
    ctx2 = funded_context(scheme, mint, make_clients(scheme, 3), 50)
    assert verify(Block.empty(), ctx2)


def test_overspend_rejected(scheme, mint):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    ctx = funded_context(scheme, mint, [kp], 5)
    tx = build_transaction(scheme, kp, [(to, 10)], "t1")
    assert not verify(Block.of([tx]), ctx)


def test_minimal_conflicting_set(scheme, mint):
    # Balance 10; two transactions of 6 are each fine alone, never together.
    kp = scheme.keygen("s")
    a = scheme.keygen("a").pk
    b = scheme.keygen("b").pk
    ctx = funded_context(scheme, mint, [kp], 10)
    tx1 = build_transaction(scheme, kp, [(a, 6)], "t1")
    tx2 = build_transaction(scheme, kp, [(b, 6)], "t2")
    assert verify(Block.of([tx1]), ctx)
    assert verify(Block.of([tx2]), ctx)
    assert not verify(Block.of([tx1, tx2]), ctx)


def test_no_intra_block_spending(scheme, mint):
    # Funds received inside the block do not raise the budget.
    rich = scheme.keygen("rich")
    poor = scheme.keygen("poor")
    sink = scheme.keygen("sink").pk
    ctx = funded_context(scheme, mint, [rich], 100)
    pay = build_transaction(scheme, rich, [(poor.pk, 50)], "t1")
    spend = build_transaction(scheme, poor, [(sink, 1)], "t2")
    assert not verify(Block.of([pay, spend]), ctx)


def test_replayed_tx_id_rejected(scheme, mint):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    ctx = funded_context(scheme, mint, [kp], 100)
    tx = build_transaction(scheme, kp, [(to, 1)], "t1")
    ctx.append(Block.of([tx]), round=1)
    again = build_transaction(scheme, kp, [(to, 2)], "t1")
    assert not verify(Block.of([again]), ctx)


def test_bad_signature_rejected(scheme, mint):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    ctx = funded_context(scheme, mint, [kp], 100)
    good = build_transaction(scheme, kp, [(to, 1)], "t1")
    forged = Transaction("t1", kp.pk, good.outputs, b"\x00" * 32)
    assert not verify(Block.of([forged]), ctx)
    # Signature over different outputs does not transfer. The moved copy
    # shares the good one's tx_id and so its hash; equality still tells them
    # apart, and one block cannot hold both.
    moved = Transaction("t1", kp.pk, (TxOutput(to, 99),), good.sig)
    assert hash(moved) == hash(good) and moved != good
    assert verify(Block.of([good]), ctx)
    assert not verify(Block.of([moved]), ctx)
    with pytest.raises(LedgerError):
        Block.of([good, moved])


def test_verify_order_independent(scheme, mint):
    clients = make_clients(scheme, 6)
    ctx = funded_context(scheme, mint, clients, 40)
    txs = [
        build_transaction(scheme, kp, [(clients[0].pk, 7)], f"t{i}")
        for i, kp in enumerate(clients[1:])
    ]
    shuffled = list(txs)
    random.Random(1).shuffle(shuffled)
    assert verify(Block.of(txs), ctx) == verify(Block.of(shuffled), ctx)


# -- balance ------------------------------------------------------------------


def test_balance_after_genesis(scheme, mint):
    kp = scheme.keygen("s")
    ctx = funded_context(scheme, mint, [kp], 100)
    assert ctx.balance(kp.pk) == 100


def test_balance_send_and_receive(scheme, mint):
    kp = scheme.keygen("s")
    other = scheme.keygen("o")
    ctx = funded_context(scheme, mint, [kp, other], 100)
    ctx.append(Block.of([build_transaction(scheme, kp, [(other.pk, 30)], "t1")]), round=1)
    ctx.append(Block.of([build_transaction(scheme, other, [(kp.pk, 10)], "t2")]), round=2)
    assert ctx.balance(kp.pk) == 80
    assert ctx.balance(other.pk) == 120


def test_unknown_key_balance_zero(scheme, mint):
    ctx = LedgerContext(scheme, mint.pk)
    assert ctx.balance(PublicKey.from_id("nobody")) == 0


def _random_history(scheme, mint, seed, rounds=8):
    rng = random.Random(seed)
    clients = make_clients(scheme, 10, prefix="h")
    ctx = funded_context(scheme, mint, clients, 120)
    counter = 0
    for r in range(1, rounds + 1):
        pool = []
        for _ in range(rng.randrange(1, 8)):
            sender = clients[rng.randrange(len(clients))]
            to = clients[rng.randrange(len(clients))].pk
            amount = rng.randint(1, 60)
            pool.append(
                build_transaction(scheme, sender, [(to, amount)], f"h{counter:05d}")
            )
            counter += 1
        ctx.append(greedy_admissible_block(pool, ctx), round=r)
    return ctx, clients


def test_balance_equals_filtered_history_replay(scheme, mint):
    # Claim: balance from the full context equals balance computed from
    # only the transactions touching the key.
    ctx, clients = _random_history(scheme, mint, seed=5)
    for kp in clients:
        touching = [
            tx
            for tx in ctx.iter_txs()
            if tx.sender == kp.pk or any(o.to == kp.pk for o in tx.outputs)
        ]
        replayed = 0
        for tx in touching:
            if tx.sender == kp.pk:
                replayed -= tx.total_amount
            for out in tx.outputs:
                if out.to == kp.pk:
                    replayed += out.amount
        assert ctx.balance(kp.pk) == replayed
        # Same thing through the restricted-context API.
        assert restricted(ctx, OnlyKey(kp.pk)).balance(kp.pk) == replayed


def test_replay_consistency(scheme, mint):
    ctx, _ = _random_history(scheme, mint, seed=9)
    assert replay(ctx).balances == ctx.balances


def test_all_balances_stay_nonnegative(scheme, mint):
    ctx, clients = _random_history(scheme, mint, seed=11)
    for kp in clients:
        assert ctx.balance(kp.pk) >= 0


# -- subset admissibility, prefix residue -------------------------------------


def test_subset_admissibility(scheme, mint):
    ctx, clients = _random_history(scheme, mint, seed=13)
    rng = random.Random(13)
    pool = [
        build_transaction(
            scheme,
            clients[rng.randrange(len(clients))],
            [(clients[rng.randrange(len(clients))].pk, rng.randint(1, 50))],
            f"s{i:04d}",
        )
        for i in range(30)
    ]
    block = greedy_admissible_block(pool, ctx)
    assert verify(block, ctx)
    txs = list(block)
    for _ in range(60):
        subset = rng.sample(txs, rng.randrange(0, len(txs) + 1))
        assert verify(Block.of(subset), ctx)


def test_prefix_residue(scheme, mint):
    ctx, clients = _random_history(scheme, mint, seed=17)
    rng = random.Random(17)
    pool = [
        build_transaction(
            scheme,
            clients[rng.randrange(len(clients))],
            [(clients[rng.randrange(len(clients))].pk, rng.randint(1, 40))],
            f"p{i:04d}",
        )
        for i in range(25)
    ]
    block = greedy_admissible_block(pool, ctx)
    assert verify(block, ctx)
    txs = list(block)
    for _ in range(40):
        prefix = set(rng.sample(txs, rng.randrange(0, len(txs) + 1)))
        rest = [tx for tx in txs if tx not in prefix]
        stepped = replay(ctx)
        stepped.append(Block.of(prefix), round=len(stepped))
        assert verify(Block.of(rest), stepped)


# -- support ------------------------------------------------------------------


def test_support_whole_interval_is_everything(scheme, mint):
    ctx, _ = _random_history(scheme, mint, seed=19)
    assert support(WholeInterval(), ctx) == set(ctx.iter_txs())


def test_support_empty_context(scheme, mint):
    ctx = LedgerContext(scheme, mint.pk)
    assert support(WholeInterval(), ctx) == set()


def test_restricted_context_preserves_verify(scheme, mint):
    # For blocks drawn from an interval's senders, the support-restricted
    # context decides admissibility identically to the full context.
    spec = PartitionSpec(4)
    ctx, clients = _random_history(scheme, mint, seed=23)
    rng = random.Random(23)
    for shard in range(1, 5):
        interval = spec.interval(shard)
        local = [kp for kp in clients if interval.contains(kp.pk)]
        if not local:
            continue
        local_ctx = restricted(ctx, interval)
        for k in range(40):
            sender = local[rng.randrange(len(local))]
            to = clients[rng.randrange(len(clients))].pk
            amount = rng.randint(1, 200)
            tx = build_transaction(
                scheme, sender, [(to, amount)], f"q{shard}x{k:03d}"
            )
            block = Block.of([tx])
            assert verify(block, ctx) == verify(block, local_ctx)


def test_support_matches_restricted_context(scheme, mint):
    spec = PartitionSpec(4)
    ctx, _ = _random_history(scheme, mint, seed=29)
    for shard in range(1, 5):
        interval = spec.interval(shard)
        assert support(interval, ctx) == set(restricted(ctx, interval).iter_txs())


# -- competing transactions ---------------------------------------------------


def test_different_senders_never_compete(scheme, mint):
    a = scheme.keygen("a")
    b = scheme.keygen("b")
    sink = scheme.keygen("sink").pk
    ctx = funded_context(scheme, mint, [a, b], 10)
    tx1 = build_transaction(scheme, a, [(sink, 6)], "t1")
    tx2 = build_transaction(scheme, b, [(sink, 6)], "t2")
    assert not is_competing(tx1, tx2, ctx, Block.empty())


def test_conflicting_pair_competes(scheme, mint):
    kp = scheme.keygen("s")
    a = scheme.keygen("a").pk
    b = scheme.keygen("b").pk
    ctx = funded_context(scheme, mint, [kp], 10)
    tx1 = build_transaction(scheme, kp, [(a, 6)], "t1")
    tx2 = build_transaction(scheme, kp, [(b, 6)], "t2")
    assert is_competing(tx1, tx2, ctx, Block.empty())


def test_background_can_create_conflict(scheme, mint):
    # Individually fine at balance 10, but a background spend of 5 leaves
    # room for only one of the two 4-unit transactions; competition is
    # relative to (ctx, background).
    kp = scheme.keygen("s")
    sink = scheme.keygen("sink").pk
    ctx = funded_context(scheme, mint, [kp], 10)
    tx1 = build_transaction(scheme, kp, [(sink, 4)], "t1")
    tx2 = build_transaction(scheme, kp, [(sink, 4)], "t2")
    bg = build_transaction(scheme, kp, [(sink, 5)], "bg")
    assert not is_competing(tx1, tx2, ctx, Block.empty())
    assert is_competing(tx1, tx2, ctx, Block.of([bg]))


def test_same_tx_id_is_replay_not_competition(scheme, mint):
    kp = scheme.keygen("s")
    a = scheme.keygen("a").pk
    b = scheme.keygen("b").pk
    ctx = funded_context(scheme, mint, [kp], 10)
    tx1 = build_transaction(scheme, kp, [(a, 6)], "same")
    tx2 = build_transaction(scheme, kp, [(b, 6)], "same")
    assert not is_competing(tx1, tx2, ctx, Block.empty())


def test_constructed_pairs_compete_and_share_sender(scheme, mint):
    for tx1, tx2, ctx, bg in competing_pairs(scheme, mint, 300):
        assert is_competing(tx1, tx2, ctx, bg)
        assert tx1.sender == tx2.sender


def test_random_pairs_compete_only_with_shared_sender(scheme, mint):
    # Sweep random pairs; every pair flagged as competing must share a
    # sender, and the sweep must find at least some competing pairs.
    rng = random.Random(31)
    clients = make_clients(scheme, 6, prefix="r")
    ctx = funded_context(scheme, mint, clients, 50)
    txs = [
        build_transaction(
            scheme,
            clients[rng.randrange(len(clients))],
            [(clients[rng.randrange(len(clients))].pk, rng.randint(1, 50))],
            f"w{i:04d}",
        )
        for i in range(120)
    ]
    found = 0
    for i in range(len(txs)):
        for j in range(i + 1, len(txs)):
            if is_competing(txs[i], txs[j], ctx, Block.empty()):
                found += 1
                assert txs[i].sender == txs[j].sender
    assert found > 0


# -- greedy selection ---------------------------------------------------------


def _grow_and_verify(pool, ctx):
    # Reference rule: scan in tx_id order, re-running full verify on the
    # grown block each time.
    chosen = set()
    for tx in sorted(pool, key=lambda t: t.tx_id):
        candidate = chosen | {tx}
        try:
            block = Block.of(candidate)
        except LedgerError:
            continue
        if verify(block, ctx):
            chosen = candidate
    return chosen


def test_greedy_matches_grow_and_verify(scheme, mint):
    rng = random.Random(37)
    clients = make_clients(scheme, 8, prefix="g")
    ctx = funded_context(scheme, mint, clients, 90)
    for trial in range(30):
        pool = [
            build_transaction(
                scheme,
                clients[rng.randrange(len(clients))],
                [(clients[rng.randrange(len(clients))].pk, rng.randint(1, 70))],
                f"g{trial:02d}x{i:03d}",
            )
            for i in range(rng.randrange(0, 25))
        ]
        got = greedy_admissible_block(pool, ctx)
        assert got.txs == frozenset(_grow_and_verify(pool, ctx))
        assert verify(got, ctx)


# Hypothesis properties run over one fixed funded context; a pool is a list
# of (tx_id index, sender, recipient, amount, tampered) specs. Indices below
# _REPLAYS name transactions already in the context.
_PROP_SCHEME = SignatureScheme()
_PROP_MINT = _PROP_SCHEME.keygen("mint")
_PROP_CTX, _PROP_CLIENTS = _random_history(_PROP_SCHEME, _PROP_MINT, seed=23, rounds=3)
_REPLAYS = 4

_tx_specs = st.tuples(
    st.integers(0, 30),
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(1, 80),
    st.integers(0, 7).map(lambda k: k == 0),
)


def _build_pool(specs):
    pool = []
    for idx, sender, to, amount, tampered in specs:
        tx_id = f"h{idx:05d}" if idx < _REPLAYS else f"p{idx:03d}"
        tx = build_transaction(
            _PROP_SCHEME,
            _PROP_CLIENTS[sender],
            [(_PROP_CLIENTS[to].pk, amount)],
            tx_id,
        )
        if tampered:
            tx = Transaction(tx.tx_id, tx.sender, tx.outputs, b"\x00" * 32)
        pool.append(tx)
    return pool


@settings(max_examples=80, deadline=None)
@given(
    specs=st.lists(_tx_specs, max_size=12, unique_by=lambda s: s[0]),
    rnd=st.randoms(use_true_random=False),
)
def test_verify_order_free_and_closed_under_subsets(specs, rnd):
    txs = _build_pool(specs)
    verdict = verify(Block.of(txs), _PROP_CTX)
    # verify only iterates its block, so a list fixes the visiting order.
    rnd.shuffle(txs)
    assert verify(txs, _PROP_CTX) == verdict
    if verdict:
        subset = rnd.sample(txs, rnd.randrange(len(txs) + 1))
        assert verify(Block.of(subset), _PROP_CTX)


@settings(max_examples=80, deadline=None)
@given(specs=st.lists(_tx_specs, max_size=16))
def test_greedy_equals_grow_and_verify_property(specs):
    pool = _build_pool(specs)
    got = greedy_admissible_block(pool, _PROP_CTX)
    assert got.txs == frozenset(_grow_and_verify(pool, _PROP_CTX))


def _verify_before_admission_rule(block, ctx):
    # verify as written before it shared the admission loop with greedy
    # selection: reject on a seen id or a bad signature, then compare each
    # sender's total spend with its balance. Kept as the reference.
    seen, scheme, mint_id = ctx.seen_tx_ids, ctx.scheme, ctx.mint.id
    spend = {}
    for tx in block:
        if tx.tx_id in seen:
            return False
        if not scheme.verify(tx.sender, tx.signing_bytes(), tx.sig):
            return False
        sender = tx.sender.id
        if sender != mint_id:
            spend[sender] = spend.get(sender, 0) + tx.total_amount
    balances = ctx.balances
    return all(amount <= balances.get(sid, 0) for sid, amount in spend.items())


# (tx_id index, sender, outputs, tampered); sender 10 is the mint, and
# amounts may be zero.
_payment_specs = st.tuples(
    st.integers(0, 30),
    st.integers(0, 10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 60)), min_size=1, max_size=3),
    st.integers(0, 7).map(lambda k: k == 0),
)


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(_payment_specs, max_size=8, unique_by=lambda s: s[0]))
def test_verify_equals_verify_before_admission_rule(specs):
    txs = []
    for idx, sender, outputs, tampered in specs:
        tx_id = f"h{idx:05d}" if idx < _REPLAYS else f"p{idx:03d}"
        kp = _PROP_MINT if sender == 10 else _PROP_CLIENTS[sender]
        tx = build_transaction(
            _PROP_SCHEME, kp, [(_PROP_CLIENTS[to].pk, amount) for to, amount in outputs], tx_id
        )
        if tampered:
            tx = Transaction(tx.tx_id, tx.sender, tx.outputs, b"\x00" * 32)
        txs.append(tx)
    block = Block.of(txs)
    assert verify(block, _PROP_CTX) == _verify_before_admission_rule(block, _PROP_CTX)


def test_greedy_rejections_stay_inadmissible(scheme, mint):
    rng = random.Random(41)
    clients = make_clients(scheme, 5, prefix="j")
    ctx = funded_context(scheme, mint, clients, 60)
    pool = [
        build_transaction(
            scheme,
            clients[rng.randrange(len(clients))],
            [(clients[rng.randrange(len(clients))].pk, rng.randint(10, 60))],
            f"j{i:03d}",
        )
        for i in range(40)
    ]
    block = greedy_admissible_block(pool, ctx)
    kept_ids = {tx.tx_id for tx in block}
    for tx in pool:
        if tx.tx_id in kept_ids:
            continue
        assert not verify(Block.of(set(block.txs) | {tx}), ctx)


def test_greedy_skips_replays_and_bad_signatures(scheme, mint):
    kp = scheme.keygen("s")
    to = scheme.keygen("r").pk
    ctx = funded_context(scheme, mint, [kp], 100)
    seen = build_transaction(scheme, kp, [(to, 1)], "old")
    ctx.append(Block.of([seen]), round=1)
    replay = build_transaction(scheme, kp, [(to, 2)], "old")
    forged = Transaction("new", kp.pk, (TxOutput(to, 1),), b"\x00" * 32)
    fine = build_transaction(scheme, kp, [(to, 3)], "ok")
    block = greedy_admissible_block([replay, forged, fine], ctx)
    assert {tx.tx_id for tx in block} == {"ok"}
