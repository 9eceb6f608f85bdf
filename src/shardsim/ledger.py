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
transaction's total is fixed at construction and it hashes by ``tx_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .keys import PublicKey, KeyPair, SignatureScheme


class LedgerError(Exception):
    """Structurally invalid ledger object."""


def _length_prefixed(chunk: bytes) -> bytes:
    return len(chunk).to_bytes(4, "big") + chunk


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

    ``total_amount`` is computed once, at construction. Equality compares
    every field but the hash covers ``tx_id`` alone, which equal
    transactions share; two transactions with one id and different fields
    collide in a set and stay apart.
    """

    tx_id: str
    sender: PublicKey
    outputs: tuple[TxOutput, ...]
    sig: bytes
    total_amount: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.outputs:
            raise LedgerError(f"transaction {self.tx_id!r} has no outputs")
        total = 0
        for out in self.outputs:
            if out.amount < 0:
                raise LedgerError(f"transaction {self.tx_id!r} has a negative amount")
            total += out.amount
        object.__setattr__(self, "total_amount", total)

    def __hash__(self) -> int:
        return hash(self.tx_id)

    def signing_bytes(self) -> bytes:
        return canonical_tx_bytes(self.tx_id, self.sender, self.outputs)


def canonical_tx_bytes(
    tx_id: str, sender: PublicKey, outputs: Iterable[TxOutput]
) -> bytes:
    parts = [_length_prefixed(tx_id.encode()), _length_prefixed(sender.id.encode())]
    for out in sorted(outputs, key=lambda o: (o.to.id, o.amount)):
        parts.append(_length_prefixed(out.to.id.encode()))
        parts.append(out.amount.to_bytes(8, "big"))
    return b"".join(parts)


def build_transaction(
    scheme: SignatureScheme,
    sender: KeyPair,
    outputs: Iterable[tuple[PublicKey, int]],
    tx_id: str,
) -> Transaction:
    outs = tuple(TxOutput(to, amount) for to, amount in outputs)
    sig = scheme.sign(sender.sk, canonical_tx_bytes(tx_id, sender.pk, outs))
    return Transaction(tx_id, sender.pk, outs, sig)


@dataclass(frozen=True)
class Block:
    """Unordered transaction set; duplicate tx_ids are rejected at construction."""

    txs: frozenset[Transaction]

    def __post_init__(self) -> None:
        if len({tx.tx_id for tx in self.txs}) != len(self.txs):
            raise LedgerError("duplicate tx_id inside a block")

    @classmethod
    def of(cls, txs: Iterable[Transaction]) -> "Block":
        return cls(frozenset(txs))

    @classmethod
    def empty(cls) -> "Block":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.txs)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.txs)

    def __contains__(self, tx: Transaction) -> bool:
        return tx in self.txs


@dataclass(frozen=True)
class GlobalBlock:
    """One sub-block per shard, kept in shard order (index 1..m).

    Construction does not enforce the honest-run invariants (pairwise
    tx_id disjointness, sender positions inside the owning shard's
    interval): adversarial sub-blocks may violate them, and the monitors
    are the place where violations become observable.
    """

    sub_blocks: tuple[Block, ...]

    @property
    def m(self) -> int:
        return len(self.sub_blocks)

    def sub_block(self, i: int) -> Block:
        return self.sub_blocks[i - 1]

    def all_txs(self) -> frozenset[Transaction]:
        out: set[Transaction] = set()
        for sub in self.sub_blocks:
            out.update(sub.txs)
        return frozenset(out)

    def tx_id_disjoint(self) -> bool:
        total = sum(len(sub) for sub in self.sub_blocks)
        return len({tx.tx_id for sub in self.sub_blocks for tx in sub}) == total


@dataclass(frozen=True)
class ContextEntry:
    round: int
    block: Block
    remote: bool = False


class LedgerContext:
    """Append-only ordered block sequence plus derived state.

    Derived balances (keyed by key id) and the seen tx_id set are updated
    incrementally on append and always equal a from-scratch replay of the
    entries. Local shard contexts append two entries per round (own
    sub-block, then the remote support for that round, tagged
    ``remote=True``); global contexts append one block per round. A context
    is single-writer; snapshots for sharing are taken with ``clone``.
    """

    def __init__(
        self,
        scheme: Optional[SignatureScheme] = None,
        mint: Optional[PublicKey] = None,
    ) -> None:
        self.scheme = scheme
        self.mint = mint
        self._mint_id = mint.id if mint is not None else None
        self.entries: list[ContextEntry] = []
        self._balances: dict[str, int] = {}
        self._seen: set[str] = set()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def seen_tx_ids(self) -> set[str]:
        return self._seen

    @property
    def balances(self) -> dict[str, int]:
        """Balance per key id; the mint has none."""
        return self._balances

    def append(self, block: Block, round: Optional[int] = None, remote: bool = False) -> None:
        if round is None:
            round = sum(1 for e in self.entries if not e.remote)
        self.entries.append(ContextEntry(round, block, remote))
        for tx in block:
            self._apply(tx)

    def _apply(self, tx: Transaction) -> None:
        balances, mint_id = self._balances, self._mint_id
        self._seen.add(tx.tx_id)
        sender = tx.sender.id
        if sender != mint_id:
            balances[sender] = balances.get(sender, 0) - tx.total_amount
        for out in tx.outputs:
            to = out.to.id
            if to != mint_id:
                balances[to] = balances.get(to, 0) + out.amount

    def balance(self, pk: PublicKey) -> int:
        return self._balances.get(pk.id, 0)

    def iter_txs(self) -> Iterator[Transaction]:
        for entry in self.entries:
            yield from entry.block

    def tx_count(self, min_round: int = 0) -> int:
        return sum(len(e.block) for e in self.entries if e.round >= min_round)

    def replayed_balances(self) -> dict[str, int]:
        """Recompute balances from scratch; must equal the incremental map."""
        fresh = LedgerContext(self.scheme, self.mint)
        for entry in self.entries:
            fresh.append(entry.block, round=entry.round, remote=entry.remote)
        return fresh._balances

    def clone(self) -> "LedgerContext":
        other = LedgerContext(self.scheme, self.mint)
        other.entries = list(self.entries)
        other._balances = dict(self._balances)
        other._seen = set(self._seen)
        return other

    def restricted(self, interval) -> "LedgerContext":
        """Context filtered to the transactions supporting ``interval``.

        Keeps a transaction iff its sender or one of its recipients lies in
        the interval; entry structure (rounds, remote tags) is preserved so
        the result replays in the same order as the original.
        """
        other = LedgerContext(self.scheme, self.mint)
        for entry in self.entries:
            kept = Block.of(tx for tx in entry.block if _touches(tx, interval))
            other.append(kept, round=entry.round, remote=entry.remote)
        return other


def _touches(tx: Transaction, interval) -> bool:
    if interval.contains(tx.sender):
        return True
    return any(interval.contains(out.to) for out in tx.outputs)


def verify(block: Block, ctx: LedgerContext) -> bool:
    """Admissibility of ``block`` against ``ctx``.

    True iff every signature is valid, no tx_id was already seen, and each
    sender's total spend inside the block fits its context balance. The
    mint key is exempt from the budget check. Malformed input yields False,
    never an exception.
    """
    seen, scheme, mint_id = ctx.seen_tx_ids, ctx.scheme, ctx._mint_id
    spend: dict[str, int] = {}
    for tx in block:
        if tx.tx_id in seen:
            return False
        if scheme is not None and not scheme.verify(tx.sender, tx.signing_bytes(), tx.sig):
            return False
        sender = tx.sender.id
        if sender != mint_id:
            spend[sender] = spend.get(sender, 0) + tx.total_amount
    balances = ctx.balances
    return all(amount <= balances.get(sid, 0) for sid, amount in spend.items())


def support(interval, ctx: LedgerContext) -> set[Transaction]:
    """Every context transaction whose sender or any recipient lies in ``interval``.

    Over-approximates the exact dependency set: admissibility of any block
    drawn from the interval's senders is unchanged when the context is
    restricted to this set.
    """
    return {tx for tx in ctx.iter_txs() if _touches(tx, interval)}


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
    try:
        block = Block.of(base.union(extras))
    except LedgerError:
        return False
    return verify(block, ctx)


def greedy_admissible_block(pool: Iterable[Transaction], ctx: LedgerContext) -> Block:
    """Deterministic admissible block: scan the pool in tx_id order.

    Exactly equivalent to growing a block and re-running verify after each
    candidate, but incremental. This is the idealized honest consensus
    output, shared by the sharded run and the unsharded oracle.
    """
    seen, scheme, mint_id, balances = ctx.seen_tx_ids, ctx.scheme, ctx._mint_id, ctx.balances
    spend: dict[str, int] = {}
    chosen: list[Transaction] = []
    chosen_ids: set[str] = set()
    for tx in sorted(pool, key=lambda t: t.tx_id):
        if tx.tx_id in seen or tx.tx_id in chosen_ids:
            continue
        if scheme is not None and not scheme.verify(tx.sender, tx.signing_bytes(), tx.sig):
            continue
        sender = tx.sender.id
        if sender != mint_id:
            after = spend.get(sender, 0) + tx.total_amount
            if after > balances.get(sender, 0):
                continue
            spend[sender] = after
        chosen.append(tx)
        chosen_ids.add(tx.tx_id)
    return Block.of(chosen)
