"""Hash primitives and seeded streams shared by every other module.

SHA-256 plays the random oracle H. Protocol-level derivations (seed
evolution, shuffle slots, hash points) concatenate their inputs raw;
artifact-internal derivations (secret keys, key positions) prepend a
domain tag so the two families can never collide.

Every seeded draw comes from ``stream``: a PCG64 generator over the seed
and the purpose's label in ``STREAMS``. PCG64 is named because NEP 19 lets
NumPy change the bit generator that ``np.random`` picks by default.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np

# Width of the digest prefix that ``unit_hash`` reads.
UNIT_BITS = 64


def oracle_hash(*parts: bytes) -> bytes:
    """SHA-256 over the raw concatenation of ``parts``."""
    return sha256(b"".join(parts)).digest()


def be8(value: int) -> bytes:
    """Round and shard counters are encoded as 8-byte big-endian integers."""
    return value.to_bytes(8, "big")


def unit_hash(data: bytes) -> int:
    """Hash ``data`` to a point in [0, 2**64): the digest's first 64 bits.

    The point stands for the fraction point / 2**64 of the unit interval;
    ``partition.shard_index`` maps it to a shard without leaving integers.
    """
    return int.from_bytes(oracle_hash(data)[:8], "big")


def hash_mod(data: bytes, modulus: int) -> int:
    """Full digest taken as an unsigned integer, reduced mod ``modulus``."""
    return int.from_bytes(oracle_hash(data), "big") % modulus


# The label of each purpose's stream; a label is part of every output.
STREAMS = {"workload": 1, "adversary": 2, "monitor": 3, "static": 10, "iterated": 11}


def stream(seed: int, purpose: str, *more: int) -> np.random.Generator:
    """The generator for ``purpose`` under ``seed``, keyed further by ``more``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    seq = np.random.SeedSequence([seed, STREAMS[purpose], *more])
    return np.random.Generator(np.random.PCG64(seq))
