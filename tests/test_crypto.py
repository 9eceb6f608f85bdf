"""Hash primitive tests: bit-exact values, boundary conventions, uniformity;
and the stream canary, which pins each seeded draw the package makes."""

import hashlib

import numpy as np
import pytest
import scipy.stats

from shardsim.crypto import UNIT_BITS, be8, hash_mod, oracle_hash, stream, unit_hash

DENOM = 1 << UNIT_BITS


def test_be8_known_values():
    assert be8(0) == b"\x00" * 8
    assert be8(1) == b"\x00" * 7 + b"\x01"
    assert be8(2**64 - 1) == b"\xff" * 8


def test_oracle_hash_is_sha256_of_concatenation():
    assert oracle_hash(b"ab", b"c") == hashlib.sha256(b"abc").digest()
    assert oracle_hash() == hashlib.sha256(b"").digest()


def test_unit_hash_recomputed_independently():
    for data in (b"", b"abc", be8(7), b"\x00" * 40):
        digest = hashlib.sha256(data).digest()
        expected = int.from_bytes(digest[:8], "big")
        assert unit_hash(data) == expected
        assert 0 <= unit_hash(data) < DENOM


def test_hash_mod_recomputed_independently():
    for data in (b"x", b"yy", be8(123)):
        expected = int.from_bytes(hashlib.sha256(data).digest(), "big") % 7
        assert hash_mod(data, 7) == expected
    assert hash_mod(b"anything", 1) == 0


def test_unit_hash_uniformity_ks():
    # A million deterministic inputs; KS against Uniform[0,1) must not
    # reject at the 1% level.
    values = [unit_hash(be8(i)) / DENOM for i in range(1_000_000)]
    stat, pvalue = scipy.stats.kstest(values, "uniform")
    assert pvalue > 0.01, f"KS statistic {stat} rejects uniformity"


# -- seeded streams -------------------------------------------------------------

# SHA-256 prefix of each kind of Generator call the package makes, drawn from
# its own stream. Every golden output rests on these draws; after a NumPy
# upgrade that moves one, this is the test that names which call moved.
CANARY = {
    "integers": "65fb54c82e2c0b89",
    "integers-array-bound": "92c57d5d69925672",
    "random": "6c41cc3d50aaccaf",
    "choice-n": "5edad545245d8ad7",
    "choice-array": "ab8987c057159137",
    "multinomial": "4546605d66b324a1",
}


def test_stream_canary():
    draws = {
        # Workload senders, recipients and amounts; the sampler's picks; bins
        # slots and re-draws.
        "integers": stream(1, "workload", 7).integers(1, 400, 64),
        # The sampler's amounts, one bound per draw.
        "integers-array-bound": stream(1, "monitor").integers(1, np.arange(2, 66)),
        # The sampler's replay flags.
        "random": stream(1, "monitor").random(64),
        # The red set, over n.
        "choice-n": stream(1, "adversary").choice(400, size=100, replace=False),
        # adaptive-random's targets and releases, over the free balls.
        "choice-array": stream(1, "iterated").choice(np.arange(3, 403, 2), size=50, replace=False),
        # The static experiment's bin counts.
        "multinomial": stream(1, "static").multinomial(100, np.full(4, 0.25), size=16),
    }
    digests = {
        call: hashlib.sha256(values.astype(f"<{values.dtype.kind}8").tobytes()).hexdigest()[:16]
        for call, values in draws.items()
    }
    assert digests == CANARY


def test_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        stream(-1, "workload")
