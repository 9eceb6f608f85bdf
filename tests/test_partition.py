"""Key-line partitioning: boundaries, uniformity, conflict preservation."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shardsim.keys import PublicKey, position_of
from shardsim.ledger import Block, TxOutput, Transaction, is_competing
from shardsim.partition import PartitionSpec, shard_index

from conftest import competing_pairs

# Position Q stands for the point 1 of the unit interval.
Q = 1 << 64


def _tx_at(position, tx_id="t"):
    sender = PublicKey(f"at{position}", position)
    to = PublicKey("sink", 999 * Q // 1000)
    return Transaction(tx_id, sender, (TxOutput(to, 1),), b"")


def test_invalid_shard_count():
    with pytest.raises(ValueError):
        PartitionSpec(0)


def test_shard_index_boundaries():
    # Slices are half-open, (lo, hi]: a boundary point belongs to the slice below.
    assert shard_index(0, 4) == 1
    assert shard_index(1, 4) == 1
    assert shard_index(Q // 4, 4) == 1
    assert shard_index(Q // 4 + 1, 4) == 2
    assert shard_index(3 * Q // 10, 4) == 2
    assert shard_index(Q // 2, 4) == 2
    assert shard_index(Q // 2 + 1, 4) == 3
    assert shard_index(3 * Q // 4, 4) == 3
    assert shard_index(Q, 4) == 4
    assert shard_index(0, 1) == 1
    assert shard_index(Q, 1) == 1
    # The integer boundaries (i * 2**64) // m of a non-power-of-two m.
    for m in (3, 5, 7):
        for i in range(1, m):
            hi = (i << 64) // m
            assert [shard_index(p, m) for p in (hi - 1, hi, hi + 1)] == [i, i, i + 1]


def test_which_part_boundaries():
    spec = PartitionSpec(4)
    assert spec.which_part(_tx_at(Q // 2)) == 2
    assert spec.which_part(_tx_at(Q // 2 + 1)) == 3
    assert spec.which_part(_tx_at(Q // 4)) == 1
    assert spec.which_part(_tx_at(Q)) == 4
    assert spec.which_part(_tx_at(1)) == 1


def test_which_part_is_ceiling_of_scaled_position():
    spec = PartitionSpec(7)
    for i in range(1, 200):
        pos = i * Q // 200
        tx = _tx_at(pos)
        assert spec.which_part(tx) == math.ceil(Fraction(pos * 7, Q))


# -- one partition rule (property) --------------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13, 101, 691, 7919, 9973]
_TABLE_M = [3, 5, 6, 7, 10, 12, 100, 700, 10000]


def _boundary_positions(m):
    """P in {hi-1, hi, hi+1} at every boundary hi = (k * 2**64) // m, within [1, 2**64]."""
    his = {(k * Q) // m for k in range(1, m + 1)}
    return sorted({p for hi in his for p in (hi - 1, hi, hi + 1) if 1 <= p <= Q})


@st.composite
def _shard_count_and_position(draw):
    m = draw(
        st.one_of(
            st.integers(1, 10**4),
            st.sampled_from([1 << k for k in range(14)]),
            st.sampled_from(_PRIMES),
        )
    )
    # Offsets of up to 2**12 reach the integer images of the doubles next to
    # each boundary, where a float rule would round.
    near_boundary = st.builds(
        lambda k, sign, s: (k * Q) // m + sign * (1 << s),
        st.integers(1, m),
        st.sampled_from((-1, 0, 1)),
        st.integers(0, 12),
    )
    position = draw(st.one_of(st.integers(1, Q), near_boundary).filter(lambda p: 1 <= p <= Q))
    return m, position


@settings(max_examples=300, deadline=None)
@given(case=_shard_count_and_position())
# The integer image of the float 0x1.5555555555556p-2, just above 1/3: the
# float ceil put it in shard 1.
@example(case=(3, int(float.fromhex("0x1.5555555555556p-2") * Q)))
def test_shard_index_is_exact_ceiling(case):
    m, position = case
    assert shard_index(position, m) == math.ceil(Fraction(position * m, Q))


@pytest.mark.parametrize("m", _TABLE_M)
def test_boundary_table_has_one_owner(m):
    # Shard i owns the integers in (((i-1) * 2**64) // m, (i * 2**64) // m]. These
    # slices tile [1, 2**64], so a point next to a boundary has exactly one owner.
    for position in _boundary_positions(m):
        i = shard_index(position, m)
        assert i == math.ceil(Fraction(position * m, Q))
        assert ((i - 1) * Q) // m < position <= (i * Q) // m


def test_part_empty_input():
    assert PartitionSpec(3).part([]) == [set(), set(), set()]


def test_part_singleton():
    spec = PartitionSpec(4)
    tx = _tx_at(3 * Q // 5, "only")
    parts = spec.part([tx])
    assert sum(1 for p in parts if p) == 1
    assert tx in parts[spec.which_part(tx) - 1]


def test_part_with_router():
    spec = PartitionSpec(4)
    txs = {_tx_at(position_of(f"rr{i}"), f"rr{i}") for i in range(50)}
    parts = spec.part(txs, route=lambda tx: 4)
    assert parts == [set(), set(), set(), txs]


def test_part_round_trip_identity():
    spec = PartitionSpec(8)
    txs = {_tx_at(position_of(f"rt{i}"), f"rt{i}") for i in range(200)}
    parts = spec.part(txs)
    assert len(parts) == 8
    # Union restores the input; parts are pairwise disjoint.
    union = set()
    total = 0
    for i, part in enumerate(parts, start=1):
        union |= part
        total += len(part)
        for tx in part:
            assert spec.which_part(tx) == i
    assert union == txs
    assert total == len(txs)


def test_uniformity_million_keys():
    # Shard occupancy for hashed positions stays within 5 sigma of the
    # Binomial(N, 1/8) expectation.
    spec = PartitionSpec(8)
    counts = [0] * 8
    for i in range(1_000_000):
        counts[shard_index(position_of(f"u{i}"), 8) - 1] += 1
    expected = 1_000_000 / 8
    sigma = math.sqrt(1_000_000 * (1 / 8) * (7 / 8))
    for c in counts:
        assert abs(c - expected) < 5 * sigma, counts


def test_competing_pairs_land_in_same_part(scheme, mint):
    for m in (2, 4, 8):
        spec = PartitionSpec(m)
        for tx1, tx2, ctx, bg in competing_pairs(scheme, mint, 200, seed=m):
            assert is_competing(tx1, tx2, ctx, bg)
            assert spec.which_part(tx1) == spec.which_part(tx2)
