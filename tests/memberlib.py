"""Views of membership state that only the tests read."""

from shardsim.keys import PublicKey
from shardsim.membership import Membership


def eligible(mem: Membership, pk: PublicKey, r: int) -> bool:
    """May ``pk`` sit at round ``r``? The record-level rule, looked up by key."""
    return mem._record_eligible(mem.records.get(pk.id), r)


def shard_counts(mem: Membership) -> list[int]:
    """Certificates in force per shard."""
    return [len(certs) for certs in mem.by_shard]
