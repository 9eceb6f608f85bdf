"""Ledger views and contexts rebuilt from another context's entries, for the tests.

Each context helper replays entries through the public ``append``, so it is
an independent reformulation of what the incremental context holds.
"""

from typing import Iterator

from shardsim.ledger import Block, LedgerContext, Transaction


def iter_txs(ctx: LedgerContext) -> Iterator[Transaction]:
    """Every transaction of ``ctx``, entry by entry."""
    for entry in ctx.entries:
        yield from entry.block


def replay(ctx: LedgerContext, keep=None) -> LedgerContext:
    """A fresh context built by re-appending ``ctx``'s entries in order.

    With ``keep``, each entry keeps only the transactions ``keep`` accepts;
    entry structure (rounds, remote tags) is preserved either way.
    """
    fresh = LedgerContext(ctx.scheme, ctx.mint)
    for entry in ctx.entries:
        block = entry.block if keep is None else Block.of(filter(keep, entry.block))
        fresh.append(block, round=entry.round, remote=entry.remote)
    return fresh


def restricted(ctx: LedgerContext, interval) -> LedgerContext:
    """``ctx`` filtered to the transactions supporting ``interval``.

    A transaction supports the interval iff its sender or one of its
    recipients lies in it.
    """
    return replay(
        ctx,
        lambda tx: interval.contains(tx.sender)
        or any(interval.contains(out.to) for out in tx.outputs),
    )


def support(interval, ctx: LedgerContext) -> set[Transaction]:
    """Every context transaction whose sender or any recipient lies in ``interval``.

    Over-approximates the exact dependency set: admissibility of any block
    drawn from the interval's senders is unchanged when the context is
    restricted to this set.
    """
    contains = interval.contains
    return {
        tx
        for tx in iter_txs(ctx)
        if contains(tx.sender) or any(contains(out.to) for out in tx.outputs)
    }
