"""Key material and the simulator's signature scheme.

Signatures here are a deterministic stand-in with the uniqueness property:
sign(sk, msg) = H(tag || sk || msg), and verification recomputes the
signature from a process-local secret table. Everything in the simulation
goes through this one interface, so a real unique-signature scheme can be
swapped in by reimplementing ``SignatureScheme``.

Secrets are derived from the key id (sk = H(tag || id)) so that runs are
reproducible from configuration alone; a key's public behavior is a pure
function of its id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import oracle_hash

_SK_TAG = b"shardsim/sk:"
_SIG_TAG = b"shardsim/sig:"
_POSITION_TAG = b"shardsim/pos:"


class KeyError_(Exception):
    """Registration conflict in the key table."""


@dataclass(frozen=True, slots=True)
class PublicKey:
    """Opaque identity plus its point on the key line.

    ``position`` is an integer in [1, 2**64] and a pure function of ``id``:
    the first 64 bits u of the id's position hash become u + 1. Position P
    stands for the point P / 2**64 of the unit interval; the +1 shift moves
    the hash range [0, 2**64) onto (0, 2**64], the integer image of the
    half-open interval (0, 1] that key partitioning slices up.
    """

    id: str
    position: int = field(compare=False)

    @classmethod
    def from_id(cls, key_id: str) -> "PublicKey":
        return cls(key_id, position_of(key_id))


@dataclass(frozen=True, slots=True)
class KeyPair:
    pk: PublicKey
    sk: bytes


def position_of(key_id: str) -> int:
    digest = oracle_hash(_POSITION_TAG, key_id.encode())
    return int.from_bytes(digest[:8], "big") + 1


def sign_bytes(sk: bytes, message: bytes) -> bytes:
    """Deterministic unique signature: one valid signature per (key, message)."""
    return oracle_hash(_SIG_TAG, sk, message)


class SignatureScheme:
    """Process-local key table with deterministic keygen/sign/verify.

    The table is trusted simulator state: verification looks the secret up
    by public key id and recomputes the signature. Two distinct ids
    colliding on position is an error at registration.
    """

    def __init__(self) -> None:
        self._secrets: dict[str, bytes] = {}
        self._by_position: dict[int, str] = {}

    def keygen(self, key_id: str) -> KeyPair:
        pk = PublicKey.from_id(key_id)
        owner = self._by_position.get(pk.position)
        if owner is not None and owner != key_id:
            raise KeyError_(f"position collision between {owner!r} and {key_id!r}")
        sk = oracle_hash(_SK_TAG, key_id.encode())
        self._secrets[key_id] = sk
        self._by_position[pk.position] = key_id
        return KeyPair(pk, sk)

    def keypair(self, key_id: str) -> KeyPair:
        return KeyPair(PublicKey.from_id(key_id), self._secrets[key_id])

    def sign(self, sk: bytes, message: bytes) -> bytes:
        return sign_bytes(sk, message)

    def holds(self, kp: KeyPair) -> bool:
        return self._secrets.get(kp.pk.id) == kp.sk

    def verify(self, pk: PublicKey, message: bytes, signature: bytes) -> bool:
        sk = self._secrets.get(pk.id)
        if sk is None:
            return False
        return sign_bytes(sk, message) == signature
