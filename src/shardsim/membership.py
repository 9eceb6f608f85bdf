"""Seed-driven shard membership with per-node staggered leases.

Every node derives its shard by signing a public epoch seed and hashing
the signature to a 64-bit point that the shard map reads; the signature
scheme's uniqueness makes the draw unforgeable yet verifiable by anyone
holding the seed.
Seeds evolve once per round per shard, folding in a leader signature
whenever the shard produced a non-empty sub-block.

Leases stagger the re-draws: each node owns a fixed shuffle slot in
[0, t_lease) and re-draws only in rounds congruent to its slot, so exactly
a 1/t_lease fraction of nodes moves per round. A lease of one round is the
fully-eager special case in which everyone re-draws every round.

The epoch a round r belongs to, for a node with slot t_shuffle, starts at

    slot = r mod t_lease
    diff = (slot - t_shuffle) mod t_lease
    r'   = r - diff        (clamped to >= 1: first epochs truncate at round 1)

and the node's certificate for the whole epoch is its signature over the
global seed of round r'.

Newly registered nodes are benched: registration at round t_join fixes the
public record immediately, but the shuffle slot is drawn from the global
seed of round t_join + t_lease (unknowable at registration time, so slots
cannot be chosen), and the node participates only from its first shuffle
slot after that round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .crypto import be8, hash_mod, oracle_hash, unit_hash
from .keys import KeyPair, PublicKey, SignatureScheme
from .partition import shard_index


class MembershipError(Exception):
    """Internal membership failure (missing seed, bad registration)."""


class EligibilityError(MembershipError):
    """Certificate requested for a node that may not participate yet."""


def committee_fails(red, total):
    """A committee fails when reds reach a third of it, at least one red present.

    The one committee-failure rule: the simulator's honest-majority monitor
    and the bins analyses both apply it. Works elementwise on count arrays
    and on plain ints alike.
    """
    return (3 * red >= total) & (red > 0)


@dataclass(frozen=True, slots=True)
class MembershipCertificate:
    pk: PublicKey
    shard: int
    sigma: bytes


@dataclass(slots=True)
class NodeRecord:
    """A key's public record; ``cert.shard`` was hashed once, from ``cert.sigma``."""

    pk: PublicKey
    t_join: int
    t_shuffle: Optional[int]
    cert: Optional[MembershipCertificate] = None  # in force; None until first seated
    # (epoch start, sigma, shard) of the last claim that verify_member proved.
    verified: Optional[tuple[int, bytes, int]] = None


def evolve_shard_seed(
    scheme: SignatureScheme, seed: bytes, round: int, leader: Optional[KeyPair] = None
) -> bytes:
    """Next round's seed for one shard.

    A round with a leader (a non-empty sub-block) folds in the leader's
    signature so the value is unpredictable until the leader is known; an
    empty round advances the seed by hashing alone, keeping the sequence
    alive without input.
    """
    material = seed + be8(round + 1)
    if leader is None:
        return oracle_hash(material)
    return oracle_hash(scheme.sign(leader.sk, material))


def shuffle_slot(pk: PublicKey, seed: bytes, t_lease: int) -> int:
    """Public shuffle slot: hash of the key id against a future seed."""
    return hash_mod(pk.id.encode() + seed, t_lease)


class Membership:
    """Registry, seed chain, and current certificates for one simulation.

    Single volume of trusted public state, each fact kept once: a key's
    record (keyed by key id, kept in id order) holds its certificate in
    force and its last proved claim; the seed chain is the current round,
    its shard seeds and the last t_lease global seeds. ``by_shard`` (each
    shard's certificates in key-id order) is rebuilt from the records in
    one pass whenever certificates change.
    """

    def __init__(self, m: int, t_lease: int, scheme: SignatureScheme) -> None:
        if m < 1 or t_lease < 1:
            raise MembershipError("m and t_lease must be at least 1")
        self.m = m
        self.t_lease = t_lease
        self.scheme = scheme
        self.records: dict[str, NodeRecord] = {}
        self.by_shard: list[list[MembershipCertificate]] = [[] for _ in range(m)]
        self.round = 0
        self.shard_seeds: tuple[bytes, ...] = ()
        self.global_seeds: dict[int, bytes] = {}

    @classmethod
    def init(
        cls,
        m: int,
        keys: Iterable[PublicKey],
        genesis_seed: bytes,
        t_lease: int,
        scheme: SignatureScheme,
    ) -> "Membership":
        """Round-1 state: genesis seeds, genesis records, every initial certificate."""
        mem = cls(m, t_lease, scheme)
        seed = mem._enter(1, (oracle_hash(genesis_seed, be8(i)) for i in range(1, m + 1)))
        for pk in sorted(keys, key=lambda k: k.id):
            if pk.id in mem.records:
                raise MembershipError(f"duplicate genesis key {pk.id!r}")
            mem.records[pk.id] = NodeRecord(pk, 0, shuffle_slot(pk, seed, t_lease))
        # Every genesis epoch at round 1 starts at round 1.
        for key_id, record in mem.records.items():
            record.cert = mem._issue(record, mem.scheme.keypair(key_id).sk, seed)
            mem.by_shard[record.cert.shard - 1].append(record.cert)
        return mem

    def _enter(self, r: int, shard_seeds: Iterable[bytes]) -> bytes:
        """Move the seed chain to round ``r``; keeps the last t_lease global seeds."""
        self.round = r
        self.shard_seeds = tuple(shard_seeds)
        seed = self.global_seeds[r] = oracle_hash(*self.shard_seeds)
        self.global_seeds.pop(r - self.t_lease, None)
        return seed

    # -- epoch arithmetic ---------------------------------------------------

    def epoch_start(self, t_shuffle: int, r: int) -> int:
        slot = r % self.t_lease
        diff = (slot - t_shuffle) % self.t_lease
        return max(1, r - diff)

    def _record_eligible(self, record: Optional[NodeRecord], r: int) -> bool:
        """The one eligibility rule, for issuing and for verifying.

        A node may sit from its first shuffle slot after benching: genesis
        nodes from round 1, joiners from the first round congruent to
        their slot at or after t_join + t_lease.
        """
        if record is None or record.t_shuffle is None:
            return False
        if record.t_join == 0:
            return r >= 1
        base = record.t_join + self.t_lease
        return r >= base + ((record.t_shuffle - base) % self.t_lease)

    # -- certificate issue and check ----------------------------------------

    def get_membership(self, kp: KeyPair, r: int) -> MembershipCertificate:
        """The node's certificate for round ``r``.

        Deterministic within an epoch: every call between two of the
        node's shuffle slots returns the identical certificate.
        """
        record = self.records.get(kp.pk.id)
        if record is None:
            raise EligibilityError(f"{kp.pk.id!r} is not registered")
        if not self._record_eligible(record, r):
            raise EligibilityError(f"{kp.pk.id!r} may not participate at round {r}")
        return self._issue(record, kp.sk, self._seed_at(self.epoch_start(record.t_shuffle, r)))

    def _issue(self, record: NodeRecord, sk: bytes, seed: bytes) -> MembershipCertificate:
        """Sign ``seed``, the one the record's epoch starts at; the caller checked eligibility."""
        sigma = self.scheme.sign(sk, seed)
        return MembershipCertificate(record.pk, shard_index(unit_hash(sigma), self.m), sigma)

    def verify_member(self, pk: PublicKey, sigma: bytes, shard: int, r: int) -> bool:
        """Public check of a claimed (pk, shard) for round ``r``; never raises.

        The record's last proved claim passes again while its seed is kept.
        A claim of the sigma in force takes its shard from the certificate
        (``_issue`` drew it from that sigma); its signature is still checked.
        """
        record = self.records.get(pk.id)
        if not self._record_eligible(record, r):
            return False
        start = self.epoch_start(record.t_shuffle, r)
        seed = self.global_seeds.get(start)
        if seed is None:
            return False
        claim = (start, sigma, shard)
        if claim == record.verified:
            return True
        cert = record.cert
        in_force = cert is not None and cert.sigma == sigma
        if (cert.shard if in_force else shard_index(unit_hash(sigma), self.m)) != shard:
            return False
        if not self.scheme.verify(pk, seed, sigma):
            return False
        record.verified = claim
        return True

    def _seed_at(self, r: int) -> bytes:
        seed = self.global_seeds.get(r)
        if seed is None:
            raise MembershipError(f"seed for round {r} is not retained")
        return seed

    # -- registration and round transition ----------------------------------

    def register_nodes(self, r: int, keys: Iterable[PublicKey]) -> list[NodeRecord]:
        """Admit new keys now, at round ``r``; they bench until their slot is drawn."""
        if r != self.round:
            raise MembershipError(f"register_nodes({r}) called at round {self.round}")
        added = []
        for pk in sorted(keys, key=lambda k: k.id):
            if pk.id in self.records:
                raise MembershipError(f"{pk.id!r} is already registered")
            record = NodeRecord(pk, r, None)
            self.records[pk.id] = record
            added.append(record)
        if added:
            self.records = dict(sorted(self.records.items()))
        return added

    def end_of_round(
        self, r: int, leaders: list[Optional[KeyPair]]
    ) -> tuple[bytes, set[str]]:
        """Advance to round r+1 and re-draw every node whose slot came up.

        ``leaders`` holds each shard's round leader, None where the shard's
        sub-block was empty; each shard seed evolves from it. Returns the new
        global seed and the ids of the re-drawn keys.
        """
        if r != self.round:
            raise MembershipError(f"end_of_round({r}) called at round {self.round}")
        if len(leaders) != self.m:
            raise MembershipError(f"expected {self.m} shard leaders, got {len(leaders)}")
        seed = self._enter(
            r + 1,
            (
                evolve_shard_seed(self.scheme, shard_seed, r, leader)
                for shard_seed, leader in zip(self.shard_seeds, leaders)
            ),
        )
        redrawn: set[str] = set()
        by_shard: list[list[MembershipCertificate]] = [[] for _ in range(self.m)]
        # A key whose slot comes up at r+1 starts its epoch there, at ``seed``.
        slot = (r + 1) % self.t_lease
        for key_id, record in self.records.items():
            if record.t_shuffle is None and record.t_join + self.t_lease == r + 1:
                record.t_shuffle = shuffle_slot(record.pk, seed, self.t_lease)
            if record.t_shuffle == slot and self._record_eligible(record, r + 1):
                record.cert = self._issue(record, self.scheme.keypair(key_id).sk, seed)
                redrawn.add(key_id)
            if record.cert is not None:
                by_shard[record.cert.shard - 1].append(record.cert)
        self.by_shard = by_shard
        return seed, redrawn


def golden_vector_text(
    genesis_seed: bytes, key_ids: Iterable[str], m: int, t_lease: int, rounds: int
) -> str:
    """Reference certificate transcript for regression comparison.

    Seeds evolve along the leaderless (empty sub-block) path every round,
    so the transcript is a pure function of the four inputs. One line per
    (round, key): round, key id, shard, signature hex.
    """
    scheme = SignatureScheme()
    ids = sorted(key_ids)
    kps = {key_id: scheme.keygen(key_id) for key_id in ids}
    mem = Membership.init(m, [kp.pk for kp in kps.values()], genesis_seed, t_lease, scheme)
    lines = [
        "# membership golden vectors",
        f"genesis_seed = {genesis_seed.hex()}",
        f"m = {m}",
        f"t_lease = {t_lease}",
        f"rounds = {rounds}",
        f"keys = {','.join(ids)}",
    ]
    for r in range(1, rounds + 1):
        for key_id in ids:
            cert = mem.get_membership(kps[key_id], r)
            lines.append(
                f"round={r} key={key_id} shard={cert.shard} sigma={cert.sigma.hex()}"
            )
        mem.end_of_round(r, [None] * m)
    return "\n".join(lines) + "\n"
