"""Hash primitive tests: bit-exact values, boundary conventions, uniformity."""

import hashlib

import scipy.stats

from shardsim.crypto import UNIT_BITS, be8, hash_mod, oracle_hash, unit_hash

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
