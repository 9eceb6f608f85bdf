"""Ledger views and contexts rebuilt from another context's entries, for the tests.

Each context helper replays entries through the public ``append``, so it is
an independent reformulation of what the incremental context holds.
"""

from typing import Iterator

from shardsim.ledger import Block, LedgerContext, Transaction
from shardsim.partition import shard_index


def iter_txs(ctx: LedgerContext) -> Iterator[Transaction]:
    """Every transaction of ``ctx``, entry by entry."""
    for entry in ctx.entries:
        yield from entry.block


def replay(ctx: LedgerContext, keep=None) -> LedgerContext:
    """A fresh context built by re-appending ``ctx``'s entries in order.

    With ``keep``, each entry keeps only the transactions ``keep`` accepts;
    entry structure (rounds, and own before remote entries) is preserved
    either way.
    """
    fresh = LedgerContext(ctx.scheme, ctx.mint)
    for entry in ctx.entries:
        block = entry.block if keep is None else Block.of(filter(keep, entry.block))
        fresh.append(block, round=entry.round)
    return fresh


def _touches(shard: int, m: int):
    """Does a transaction's sender or any recipient reside in ``shard`` of ``m``?"""
    return lambda tx: shard_index(tx.sender.position, m) == shard or any(
        shard_index(out.to.position, m) == shard for out in tx.outputs
    )


def restricted(ctx: LedgerContext, shard: int, m: int) -> LedgerContext:
    """``ctx`` filtered to the transactions supporting ``shard`` of ``m``.

    A transaction supports the shard iff its sender or one of its recipients
    resides in it.
    """
    return replay(ctx, _touches(shard, m))


def support(ctx: LedgerContext, shard: int, m: int) -> set[Transaction]:
    """Every context transaction whose sender or any recipient resides in ``shard`` of ``m``.

    Over-approximates the exact dependency set: admissibility of any block
    drawn from the shard's senders is unchanged when the context is
    restricted to this set.
    """
    return set(filter(_touches(shard, m), iter_txs(ctx)))
