"""Cross-shard state propagation policies.

After every round each shard ingests remote support from the published
block, the round's sub-blocks combined with one transaction per tx_id. The
eager policy replicates everything (full copies of the global ledger
everywhere); the lazy policy ships a remote transaction only to the shards
where some recipient lives, which is exactly what those shards need to
keep local admissibility checks equal to global ones.
"""

from __future__ import annotations

from .ledger import Block
from .partition import KeyInterval


def eager_collect_support(published: Block, interval: KeyInterval) -> Block:
    """All transactions whose sender lives outside the shard's ``interval``.

    Built as the published set minus the shard's own senders, so the set
    difference reuses the hashes the published frozenset already holds.
    """
    own = [tx for tx in published if interval.contains(tx.sender)]
    return Block(published.txs.difference(own))


def lazy_collect_support(published: Block, interval: KeyInterval) -> Block:
    """Remote transactions with at least one output paying into ``interval``."""
    return Block.of(
        tx
        for tx in published
        if not interval.contains(tx.sender)
        and any(interval.contains(out.to) for out in tx.outputs)
    )
