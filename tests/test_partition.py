"""Interval partitioning: boundaries, uniformity, conflict preservation."""

import math

import pytest

from shardsim.keys import PublicKey, position_of
from shardsim.ledger import Block, TxOutput, Transaction, is_competing
from shardsim.partition import KeyInterval, PartitionSpec

from conftest import competing_pairs


def _tx_at(position, tx_id="t"):
    sender = PublicKey(f"at{position}", position)
    to = PublicKey("sink", 0.999)
    return Transaction(tx_id, sender, (TxOutput(to, 1),), b"")


def test_invalid_shard_count():
    with pytest.raises(ValueError):
        PartitionSpec(0)


def test_intervals_tile_the_unit_interval():
    spec = PartitionSpec(5)
    assert spec.interval(1).lo == 0.0
    assert spec.interval(5).hi == 1.0
    for i in range(1, 5):
        assert spec.interval(i).hi == spec.interval(i + 1).lo
    with pytest.raises(ValueError):
        spec.interval(0)
    with pytest.raises(ValueError):
        spec.interval(6)


def test_interval_is_half_open():
    iv = KeyInterval(0.25, 0.5)
    assert not iv.contains(PublicKey("x", 0.25))
    assert iv.contains(PublicKey("x", 0.3))
    assert iv.contains(PublicKey("x", 0.5))
    assert not iv.contains(PublicKey("x", 0.75))


def test_which_part_boundaries():
    spec = PartitionSpec(4)
    assert spec.which_part(_tx_at(0.5)) == 2
    assert spec.which_part(_tx_at(0.50001)) == 3
    assert spec.which_part(_tx_at(0.25)) == 1
    assert spec.which_part(_tx_at(1.0)) == 4
    assert spec.which_part(_tx_at(1e-9)) == 1


def test_which_part_is_ceiling_of_scaled_position():
    spec = PartitionSpec(7)
    for i in range(1, 200):
        pos = i / 200
        tx = _tx_at(pos)
        assert spec.which_part(tx) == max(1, math.ceil(pos * 7))


def test_which_part_agrees_with_interval_membership():
    spec = PartitionSpec(8)
    for i in range(500):
        pk = PublicKey.from_id(f"m{i}")
        shard = spec.shard_of_position(pk.position)
        assert spec.interval(shard).contains(pk)


def test_part_empty_input():
    assert PartitionSpec(3).part([]) == [set(), set(), set()]


def test_part_singleton():
    spec = PartitionSpec(4)
    tx = _tx_at(0.6, "only")
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
        counts[spec.shard_of_position(position_of(f"u{i}")) - 1] += 1
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
