"""Shared fixtures, generators, and the acceptance-line reporter."""

import random

import pytest

from shardsim.keys import SignatureScheme
from shardsim.ledger import Block, LedgerContext, build_transaction

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(index: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {index:2d} {name}: {verdict}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def scheme():
    return SignatureScheme()


@pytest.fixture
def mint(scheme):
    return scheme.keygen("mint")


@pytest.fixture
def verify_checks(monkeypatch):
    """Every ``SignatureScheme.verify`` call, as (scheme, key id, message)."""
    checks = []
    original = SignatureScheme.verify

    def recorded(self, pk, message, signature):
        checks.append((self, pk.id, message))
        return original(self, pk, message, signature)

    monkeypatch.setattr(SignatureScheme, "verify", recorded)
    return checks


def tx_content(tx):
    """Every field a transaction carries; equality looks at ``tx_id`` alone."""
    return (tx.tx_id, tx.sender.id, tx.outputs, tx.sig)


def make_clients(scheme, count, prefix="c"):
    return [scheme.keygen(f"{prefix}{i:03d}") for i in range(count)]


def knows(scheme, pk):
    """Has ``scheme`` registered the key id of ``pk``?"""
    try:
        scheme.keypair(pk.id)
    except KeyError:
        return False
    return True


def funded_context(scheme, mint, clients, amount):
    """Context holding one genesis grant of ``amount`` per client."""
    ctx = LedgerContext(scheme, mint.pk)
    grants = [
        build_transaction(scheme, mint, [(kp.pk, amount)], f"genesis-{kp.pk.id}")
        for kp in clients
    ]
    ctx.append(Block.of(grants), round=0)
    return ctx


def competing_pairs(scheme, mint, count, seed=0):
    """Generate (tx1, tx2, ctx, background) tuples that compete by construction.

    Each pair spends from one sender whose two amounts are individually
    affordable but jointly overdraw the balance.
    """
    rng = random.Random(seed)
    clients = make_clients(scheme, 32, prefix="cp")
    ctx = funded_context(scheme, mint, clients, 100)
    pairs = []
    for k in range(count):
        sender = clients[rng.randrange(len(clients))]
        a = rng.randint(51, 100)
        b = rng.randint(101 - a, 100)
        to1 = clients[rng.randrange(len(clients))].pk
        to2 = clients[rng.randrange(len(clients))].pk
        tx1 = build_transaction(scheme, sender, [(to1, a)], f"pair{k:06d}a")
        tx2 = build_transaction(scheme, sender, [(to2, b)], f"pair{k:06d}b")
        pairs.append((tx1, tx2, ctx, Block.empty()))
    return pairs
