"""Account-balance ledger: transactions, blocks, contexts, and the verify rule.

A block is an unordered set of transactions. Admissibility of a block
against a context is order-free by construction: every sender's spending
budget comes from the context alone, so funds received inside a block
cannot be re-spent in that same block. That makes verify(block, ctx)
independent of any iteration order and closed under taking subsets.

Genesis grants are ordinary transactions sent by a distinguished mint key.
The mint is exempt from the budget check (its balance is never tracked),
which keeps the genesis block admissible against the empty context.

Balances and per-block spends are keyed by key id, and keys are compared by
id, so no per-transaction step hashes or compares a ``PublicKey`` object. A
transaction is its id: it is equal and hashed by ``tx_id``, so a set or a
block holds one version per id. Its total is fixed at construction.

Admission checks the unseen id, then the budget, then the signature. It
skips the signature of a transaction that ``build_transaction`` marked with
the context's scheme, checks every other one on every pass, and writes
nothing to the transactions it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .keys import PublicKey, KeyPair, SignatureScheme


class LedgerError(Exception):
    """Structurally invalid ledger object."""


_TX_ID = attrgetter("tx_id")


@dataclass(frozen=True, slots=True)
class TxOutput:
    to: PublicKey
    amount: int


@dataclass(frozen=True, slots=True)
class Transaction:
    """Single-sender, multi-output payment.

    ``signing_bytes`` is the canonical serialization signatures commit to:
    tx_id, sender id, then outputs sorted by recipient id, each field
    length-prefixed (4-byte big-endian), amounts as 8-byte big-endian
    unsigned integers.

    ``total_amount`` is computed once, at construction. ``signed_for`` is the
    scheme that accepts ``sig``, set only by ``build_transaction``, when the
    scheme holds the sender's secret; otherwise it is None. Equality and the
    hash cover ``tx_id`` alone: two versions of one id are equal, and a set
    keeps the first it is given.
    """

    tx_id: str
    sender: PublicKey = field(compare=False)
    outputs: tuple[TxOutput, ...] = field(compare=False)
    sig: bytes = field(compare=False)
    total_amount: int = field(init=False, compare=False, repr=False)
    signed_for: Optional[SignatureScheme] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.outputs:
            raise LedgerError(f"transaction {self.tx_id!r} has no outputs")
        total = 0
        for out in self.outputs:
            if not 0 <= out.amount < 2**64:
                raise LedgerError(f"transaction {self.tx_id!r} has an amount outside [0, 2**64)")
            total += out.amount
        object.__setattr__(self, "total_amount", total)

    def __hash__(self) -> int:
        # Not the generated hash, which would build a 1-tuple on every call.
        return hash(self.tx_id)

    def signing_bytes(self) -> bytes:
        return canonical_tx_bytes(self.tx_id, self.sender, self.outputs)


def canonical_tx_bytes(
    tx_id: str, sender: PublicKey, outputs: tuple[TxOutput, ...]
) -> bytes:
    tid, sid = tx_id.encode(), sender.id.encode()
    parts = [len(tid).to_bytes(4, "big"), tid, len(sid).to_bytes(4, "big"), sid]
    if len(outputs) > 1:
        outputs = sorted(outputs, key=lambda o: (o.to.id, o.amount))
    for out in outputs:
        rid = out.to.id.encode()
        parts += (len(rid).to_bytes(4, "big"), rid, out.amount.to_bytes(8, "big"))
    return b"".join(parts)


def build_transaction(
    scheme: SignatureScheme,
    sender: KeyPair,
    outputs: Iterable[tuple[PublicKey, int]],
    tx_id: str,
) -> Transaction:
    outs = tuple(TxOutput(to, amount) for to, amount in outputs)
    sig = scheme.sign(sender.sk, canonical_tx_bytes(tx_id, sender.pk, outs))
    tx = Transaction(tx_id, sender.pk, outs, sig)
    if scheme.holds(sender):
        object.__setattr__(tx, "signed_for", scheme)
    return tx


@dataclass(frozen=True)
class Block:
    """Unordered transaction set: one transaction per tx_id."""

    txs: frozenset[Transaction]

    @classmethod
    def of(cls, txs: Iterable[Transaction]) -> "Block":
        # Copying a set sizes the table to fit (half of one grown in place).
        return cls(frozenset(set(txs)))

    @classmethod
    def empty(cls) -> "Block":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.txs)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.txs)

    def sorted_ids(self) -> tuple[str, ...]:
        """The block's tx_ids in sorted order, as a run records its blocks."""
        return tuple(sorted(map(_TX_ID, self.txs)))


@dataclass(frozen=True)
class ContextEntry:
    round: int
    block: Block


class LedgerContext:
    """Append-only ordered block sequence plus derived state.

    Derived balances (keyed by key id) and the seen tx_id set are updated
    incrementally on append and always equal a from-scratch replay of the
    entries. Local shard contexts append two entries per round (own
    sub-block, then the remote support for that round); global contexts
    append one block per round. A context is single-writer.
    """

    def __init__(self, scheme: SignatureScheme, mint: PublicKey) -> None:
        self.scheme = scheme
        self.mint = mint
        self.entries: list[ContextEntry] = []
        self.balances: dict[str, int] = {}  # per key id; the mint has none
        self.seen_tx_ids: set[str] = set()

    def append(self, block: Block, round: int) -> None:
        self.entries.append(ContextEntry(round, block))
        balances, mint_id, seen = self.balances, self.mint.id, self.seen_tx_ids
        for tx in block:
            seen.add(tx.tx_id)
            sender = tx.sender.id
            if sender != mint_id:
                balances[sender] = balances.get(sender, 0) - tx.total_amount
            for out in tx.outputs:
                to = out.to.id
                if to != mint_id:
                    balances[to] = balances.get(to, 0) + out.amount

    def balance(self, pk: PublicKey) -> int:
        return self.balances.get(pk.id, 0)

    def tx_count(self) -> int:
        """Transactions appended after genesis, which is round 0."""
        return sum(len(e.block) for e in self.entries if e.round > 0)


def _admit(txs: Iterable[Transaction], ctx: LedgerContext) -> list[Transaction]:
    """The admission rule: the transactions of ``txs`` it keeps, in order.

    A transaction is kept iff its tx_id is neither seen in ``ctx`` nor
    already kept, its sender's running spend over the kept transactions
    stays within the sender's context balance, and its signature is valid.
    The mint key is exempt from the budget check. A failing check changes
    no state, so the signature, the dearest, is checked last.

    A transaction T marked by ``build_transaction`` with the context's
    scheme S skips the check, as S holds the secret that signed T and
    ``verify`` would recompute that signature. That is exact: T is frozen,
    and a scheme never changes or drops a registered key's secret, so S
    accepting T stays true. Every other transaction is checked on each
    pass, and nothing is written to ``txs``.
    """
    seen, scheme, mint_id, balances = ctx.seen_tx_ids, ctx.scheme, ctx.mint.id, ctx.balances
    spend: dict[str, int] = {}
    kept: list[Transaction] = []
    kept_ids: set[str] = set()
    for tx in txs:
        if tx.tx_id in seen or tx.tx_id in kept_ids:
            continue
        sender = tx.sender.id
        after = spend.get(sender, 0) + tx.total_amount
        if sender != mint_id and after > balances.get(sender, 0):
            continue
        if tx.signed_for is not scheme:
            if not scheme.verify(tx.sender, tx.signing_bytes(), tx.sig):
                continue
        spend[sender] = after
        kept.append(tx)
        kept_ids.add(tx.tx_id)
    return kept


def verify(block: Block, ctx: LedgerContext) -> bool:
    """Admissibility of ``block`` against ``ctx``: the admission rule keeps all of it.

    Amounts are non-negative, so no sender's running spend exceeds its total
    and the verdict does not depend on iteration order. Malformed input
    yields False, never an exception.
    """
    return len(_admit(block, ctx)) == len(block)


def is_competing(
    tx1: Transaction, tx2: Transaction, ctx: LedgerContext, background: Block
) -> bool:
    """Do ``tx1`` and ``tx2`` conflict given ``ctx`` and ``background``?

    Both verify individually alongside the background transactions, but not
    together. Competing transactions necessarily share a sender, because
    verify couples transactions only through per-sender budgets. Pairs
    sharing a tx_id are replays of one another, not a budget conflict.
    """
    if tx1.tx_id == tx2.tx_id:
        return False
    base = set(background.txs)
    return (
        _admissible_with(base, (tx1,), ctx)
        and _admissible_with(base, (tx2,), ctx)
        and not _admissible_with(base, (tx1, tx2), ctx)
    )


def _admissible_with(
    base: set[Transaction], extras: Iterable[Transaction], ctx: LedgerContext
) -> bool:
    return verify(Block.of(base.union(extras)), ctx)


def greedy_admissible_block(pool: Iterable[Transaction], ctx: LedgerContext) -> Block:
    """Deterministic admissible block: the admission rule over the pool in tx_id order.

    Exactly equivalent to growing a block and re-running verify after each
    candidate. This is the idealized honest consensus output, shared by
    the sharded run and the unsharded oracle.
    """
    return Block.of(_admit(sorted(pool, key=_TX_ID), ctx))
