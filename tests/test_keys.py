"""Key positions and the deterministic unique-signature stand-in."""

import pytest

from shardsim import keys as keys_mod
from shardsim.keys import KeyError_, PublicKey, SignatureScheme, position_of, sign_bytes

from conftest import knows


def test_position_in_half_open_unit_interval():
    # Integer positions in [1, 2**64] are the image of (0, 1].
    for i in range(2000):
        p = position_of(f"node{i}")
        assert isinstance(p, int)
        assert 1 <= p <= 1 << 64


def test_position_recomputable_from_id():
    pk = PublicKey.from_id("alice")
    assert pk.position == position_of("alice")
    assert PublicKey.from_id("alice") == pk


def test_equality_and_hash_ignore_position():
    a = PublicKey("alice", 123)
    b = PublicKey.from_id("alice")
    assert a == b
    assert hash(a) == hash(b)
    assert PublicKey.from_id("bob") != a


def test_sign_verify_roundtrip(scheme):
    kp = scheme.keygen("signer")
    sig = scheme.sign(kp.sk, b"message")
    assert scheme.verify(kp.pk, b"message", sig)


def test_signature_is_deterministic_and_unique(scheme):
    kp = scheme.keygen("signer")
    s1 = scheme.sign(kp.sk, b"m")
    s2 = scheme.sign(kp.sk, b"m")
    assert s1 == s2
    # Only the one recomputed signature verifies.
    tampered = bytes([s1[0] ^ 1]) + s1[1:]
    assert not scheme.verify(kp.pk, b"m", tampered)
    assert not scheme.verify(kp.pk, b"other", s1)


def test_verify_unknown_or_wrong_key(scheme):
    kp = scheme.keygen("signer")
    other = scheme.keygen("other")
    sig = scheme.sign(kp.sk, b"m")
    assert not scheme.verify(other.pk, b"m", sig)
    stranger = PublicKey.from_id("stranger")
    assert not scheme.verify(stranger, b"m", sig)


def test_keygen_idempotent(scheme):
    kp1 = scheme.keygen("x")
    kp2 = scheme.keygen("x")
    assert kp1 == kp2
    assert scheme.keypair("x") == kp1
    assert knows(scheme, kp1.pk)
    assert not knows(scheme, PublicKey.from_id("unknown"))


def test_two_schemes_agree():
    # Secrets derive from ids, so independent schemes produce identical
    # signatures; golden vectors depend on this.
    a = SignatureScheme().keygen("n1")
    b = SignatureScheme().keygen("n1")
    assert a.sk == b.sk
    assert sign_bytes(a.sk, b"m") == sign_bytes(b.sk, b"m")


def test_position_collision_rejected(monkeypatch):
    monkeypatch.setattr(keys_mod, "position_of", lambda key_id: 1 << 63)
    scheme = SignatureScheme()
    scheme.keygen("first")
    with pytest.raises(KeyError_):
        scheme.keygen("second")


def test_adjacent_positions_both_register(monkeypatch):
    # Positions 2**63 + 1 and 2**63 + 2 are distinct keys, though both
    # round to the same float 0.5 when divided by 2**64.
    real_hash = keys_mod.oracle_hash
    u = {"a": 1 << 63, "b": (1 << 63) + 1}

    def position_digest(*parts):
        if parts[0] == keys_mod._POSITION_TAG:
            return u[parts[1].decode()].to_bytes(8, "big") + bytes(24)
        return real_hash(*parts)

    monkeypatch.setattr(keys_mod, "oracle_hash", position_digest)
    scheme = SignatureScheme()
    a = scheme.keygen("a")
    b = scheme.keygen("b")
    assert (a.pk.position, b.pk.position) == ((1 << 63) + 1, (1 << 63) + 2)
    assert a.sk == real_hash(keys_mod._SK_TAG, b"a")
