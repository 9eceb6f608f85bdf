"""Key-line partitioning of transactions across shards.

Routing is by sender position only, so any two transactions that can ever
compete (they must share a sender) land in the same shard.

Positions and hash points are integers on the key line, standing for
fractions of 2**64. Shard i of m owns ((i-1)/m, i/m] of the unit interval,
and ``shard_index`` is the one map from a point to its shard: routing, the
driver's residents and lazy support all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .crypto import UNIT_BITS
from .ledger import Transaction


def shard_index(x: int, m: int) -> int:
    """Shard owning key-line point ``x`` out of ``m`` equal slices.

    This is ceil(x * m / 2**64) by multiply-shift range reduction (Lemire,
    ACM TOMACS 2019): for x >= 1 it equals ((x*m - 1) >> 64) + 1, so a point
    at exactly the boundary i * 2**64 / m belongs to shard i. Positions lie
    in [1, 2**64]; only a signature hash point can be 0, and it maps to
    shard 1.
    """
    if x == 0:
        return 1
    return ((x * m - 1) >> UNIT_BITS) + 1


@dataclass(frozen=True)
class PartitionSpec:
    """Uniform split of the key line into m slices; shard i owns ((i-1)/m, i/m]."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one shard")

    def which_part(self, tx: Transaction) -> int:
        return shard_index(tx.sender.position, self.m)

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
