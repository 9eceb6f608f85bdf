"""Deterministic client workload.

The transaction stream for a round is a pure function of (seed, round, key
population): sharded runs and the unsharded oracle regenerate the exact
same pending transactions independently. Transactions unadmitted in their
arrival round are dropped by the driver, so no hidden pool state leaks
between rounds.

Zero-padded tx_ids make lexicographic order equal generation order for up to
10**4 transactions per round (``t%04d``), pinning the greedy rule's scan order.
"""

from __future__ import annotations

from .crypto import stream
from .keys import KeyPair, SignatureScheme
from .ledger import Block, Transaction, build_transaction


def genesis_block(
    scheme: SignatureScheme, mint: KeyPair, clients: list[KeyPair], initial_balance: int
) -> Block:
    """Mint grants every client its initial balance."""
    return Block.of(
        build_transaction(
            scheme, mint, [(kp.pk, initial_balance)], f"genesis-{kp.pk.id}"
        )
        for kp in clients
    )


def round_transactions(
    scheme: SignatureScheme,
    clients: list[KeyPair],
    tx_rate: int,
    max_amount: int,
    seed: int,
    round: int,
) -> list[Transaction]:
    """Pending transactions arriving in ``round``: uniform single-output payments."""
    rng = stream(seed, "workload", round)
    n = len(clients)
    senders = rng.integers(0, n, tx_rate)
    # Uniform over the other n-1 keys; offset trick avoids resampling loops.
    offsets = rng.integers(1, n, tx_rate)
    amounts = rng.integers(1, max_amount + 1, tx_rate)
    recipients = (senders + offsets) % n
    prefix = f"r{round:06d}t"
    return [
        build_transaction(
            scheme, clients[s], [(clients[t].pk, amount)], f"{prefix}{k:04d}"
        )
        for k, (s, t, amount) in enumerate(
            zip(senders.tolist(), recipients.tolist(), amounts.tolist())
        )
    ]
