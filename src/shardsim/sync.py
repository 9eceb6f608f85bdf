"""Cross-shard state propagation policies.

After every round each shard ingests remote support from the published
block, the round's sub-blocks combined with one transaction per tx_id.
Remote support is what the shard lacks: the published transactions whose
ids its own sub-block does not hold. The eager policy ships all of them
(full copies of the global ledger everywhere); the lazy policy ships only
those that pay a resident of the shard, which is exactly what the shard
needs to keep local admissibility checks equal to global ones.
"""

from __future__ import annotations

from .ledger import Block, Transaction
from .partition import shard_index


def _lacking(published: Block, own: Block) -> frozenset[Transaction]:
    """The published transactions whose ids ``own`` does not hold.

    Transactions are equal by id, so in a collided round, where the shard's
    own version of an id lost the published block, the shard keeps its own
    version and does not ingest the winner's.
    """
    return published.txs.difference(own.txs)


def eager_collect_support(published: Block, own: Block) -> Block:
    """Every published transaction the shard's ``own`` sub-block lacks."""
    return Block(_lacking(published, own))


def lazy_collect_support(published: Block, own: Block, shard: int, m: int) -> Block:
    """The lacking transactions with an output paying a resident of ``shard`` of ``m``."""
    return Block.of(
        tx
        for tx in _lacking(published, own)
        if any(shard_index(out.to.position, m) == shard for out in tx.outputs)
    )
