"""Key-interval partitioning of transactions across shards.

Routing is by sender position only, so any two transactions that can ever
compete (they must share a sender) land in the same shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .crypto import shard_index
from .keys import PublicKey
from .ledger import Transaction


@dataclass(frozen=True)
class KeyInterval:
    """Half-open slice (lo, hi] of the unit key interval."""

    lo: float
    hi: float

    def contains(self, pk: PublicKey) -> bool:
        return self.lo < pk.position <= self.hi


@dataclass(frozen=True)
class PartitionSpec:
    """Uniform split of (0, 1] into m intervals; shard i owns ((i-1)/m, i/m]."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one shard")

    def interval(self, i: int) -> KeyInterval:
        if not 1 <= i <= self.m:
            raise ValueError(f"shard index {i} outside 1..{self.m}")
        return KeyInterval((i - 1) / self.m, i / self.m)

    def shard_of_position(self, position: float) -> int:
        return shard_index(position, self.m)

    def which_part(self, tx: Transaction) -> int:
        return self.shard_of_position(tx.sender.position)

    def part(
        self,
        txs: Iterable[Transaction],
        route: Optional[Callable[[Transaction], int]] = None,
    ) -> list[set[Transaction]]:
        """Split ``txs`` into m disjoint sets; element i-1 belongs to shard i.

        ``route`` maps a transaction to its shard and defaults to
        ``which_part``, the sender rule.
        """
        route = route or self.which_part
        parts: list[set[Transaction]] = [set() for _ in range(self.m)]
        for tx in txs:
            parts[route(tx) - 1].add(tx)
        return parts
