"""Workload generator: determinism, shape, and genesis validity."""

from shardsim.ledger import LedgerContext, verify
from shardsim.workload import genesis_block, round_transactions

from conftest import make_clients, tx_content


def test_genesis_grants_every_client(scheme, mint):
    clients = make_clients(scheme, 7)
    block = genesis_block(scheme, mint, clients, 250)
    assert len(block) == 7
    by_recipient = {tx.outputs[0].to: tx for tx in block}
    for kp in clients:
        tx = by_recipient[kp.pk]
        assert tx.sender == mint.pk
        assert tx.total_amount == 250
        assert tx.tx_id == f"genesis-{kp.pk.id}"


def test_genesis_valid_under_empty_context(scheme, mint):
    clients = make_clients(scheme, 5)
    block = genesis_block(scheme, mint, clients, 100)
    ctx = LedgerContext(scheme, mint.pk)
    assert verify(block, ctx)
    ctx.append(block, round=0)
    for kp in clients:
        assert ctx.balance(kp.pk) == 100


def test_round_transactions_deterministic(scheme):
    # Transactions are equal by id, and one round's ids are the same for
    # every seed, so compare what each transaction carries.
    clients = make_clients(scheme, 10)

    def contents(seed, round):
        txs = round_transactions(scheme, clients, 15, 30, seed=seed, round=round)
        return [tx_content(tx) for tx in txs]

    a = contents(5, 3)
    assert a == contents(5, 3)
    assert a != contents(5, 4)
    assert a != contents(6, 3)


def test_round_transactions_shape(scheme):
    clients = make_clients(scheme, 10)
    txs = round_transactions(scheme, clients, 50, 12, seed=1, round=7)
    assert len(txs) == 50
    ids = [tx.tx_id for tx in txs]
    assert ids == sorted(ids)
    assert len(set(ids)) == 50
    pks = {kp.pk for kp in clients}
    for tx in txs:
        assert tx.tx_id.startswith("r000007t")
        assert len(tx.outputs) == 1
        assert 1 <= tx.outputs[0].amount <= 12
        assert tx.sender in pks
        assert tx.outputs[0].to in pks
        assert tx.outputs[0].to != tx.sender


def test_zero_rate_round_is_empty(scheme):
    clients = make_clients(scheme, 4)
    assert round_transactions(scheme, clients, 0, 50, 1, 1) == []
