import itertools
import random

import pytest

from unarysort.batcher import (
    Cas,
    CasDirection,
    batcher_sort,
    batcher_sort_batch,
    build_bitonic_network,
    cas_apply,
    cas_count,
    sort_streams,
)
from unarysort.bitstream import (
    UnaryStream,
    decode,
    encode_right_aligned,
    is_right_aligned,
)
from unarysort.min_sorter import sort_ascending

NETWORK_8 = """\
inputs=8 stages=6 cas=24
stage 0: (0,1,asc) (2,3,desc) (4,5,asc) (6,7,desc)
stage 1: (0,2,asc) (1,3,asc) (4,6,desc) (5,7,desc)
stage 2: (0,1,asc) (2,3,asc) (4,5,desc) (6,7,desc)
stage 3: (0,4,asc) (1,5,asc) (2,6,asc) (3,7,asc)
stage 4: (0,2,asc) (1,3,asc) (4,6,asc) (5,7,asc)
stage 5: (0,1,asc) (2,3,asc) (4,5,asc) (6,7,asc)"""


class TestCasCount:
    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (8, 24), (16, 80), (32, 240), (256, 4608)]
    )
    def test_known_counts(self, n, expected):
        assert cas_count(n) == expected

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 12])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError):
            cas_count(n)


class TestNetworkStructure:
    def test_count_matches_formula(self):
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            assert build_bitonic_network(n).cas_blocks == cas_count(n)

    def test_eight_inputs_six_stages(self):
        network = build_bitonic_network(8)
        assert len(network.stages) == 6
        assert network.cas_blocks == 24

    def test_no_lane_twice_per_stage(self):
        for n in (2, 4, 8, 16, 32):
            for stage in build_bitonic_network(n).stages:
                lanes = [lane for cas in stage for lane in (cas.lane_a, cas.lane_b)]
                assert len(lanes) == len(set(lanes))

    def test_golden_topology(self):
        assert build_bitonic_network(8).describe() == NETWORK_8

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_bitonic_network(6)


class TestCasApply:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0, 0, (0, 0)), (0, 1, (0, 1)), (1, 0, (0, 1)), (1, 1, (1, 1))],
    )
    def test_ascending_truth_table(self, a, b, expected):
        assert cas_apply(a, b, CasDirection.ASCENDING) == expected

    def test_descending_swaps(self):
        assert cas_apply(1, 0, CasDirection.DESCENDING) == (1, 0)
        assert cas_apply(0, 1, CasDirection.DESCENDING) == (1, 0)

    def test_streams_split_to_min_and_max(self):
        a = encode_right_aligned(4, 3)
        b = encode_right_aligned(6, 3)
        low = tuple(x & y for x, y in zip(a, b))
        high = tuple(x | y for x, y in zip(a, b))
        assert sum(low) == 4 and sum(high) == 6

    def test_and_or_min_max_exhaustive(self):
        # lane-wise AND/OR keeps streams right-aligned and splits min/max
        for m in range(1, 7):
            for va, vb in itertools.product(range(1 << m), repeat=2):
                a = encode_right_aligned(va, m)
                b = encode_right_aligned(vb, m)
                low = tuple(x & y for x, y in zip(a, b))
                high = tuple(x | y for x, y in zip(a, b))
                assert sum(low) == min(va, vb)
                assert sum(high) == max(va, vb)


class TestBatcherSort:
    def test_mixed_vector(self):
        assert batcher_sort([4, 6, 4, 0, 7, 1, 2, 2], 3) == [0, 1, 2, 2, 4, 4, 6, 7]

    def test_all_equal_unchanged(self):
        assert batcher_sort([5] * 8, 3) == [5] * 8

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            batcher_sort([1, 2, 3], 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            batcher_sort([1, 8], 3)

    def test_zero_one_principle(self):
        # sorting every 0/1 vector proves the network sorts everything
        for n in (4, 8):
            for bits in itertools.product((0, 1), repeat=n):
                assert batcher_sort(list(bits), 1) == sorted(bits)

    def test_serial_equals_batch(self):
        rng = random.Random(23)
        for _ in range(50):
            values = [rng.randrange(64) for _ in range(8)]
            assert batcher_sort(values, 6) == batcher_sort_batch(values, 6)

    def test_agrees_with_min_engine(self):
        rng = random.Random(29)
        for _ in range(100):
            values = [rng.randrange(256) for _ in range(8)]
            assert batcher_sort_batch(values, 8) == sort_ascending(values, 8)[0]


class TestSortStreams:
    def test_output_streams_sorted_and_aligned(self):
        values = [3, 0, 7, 5]
        network = build_bitonic_network(4)
        streams = [encode_right_aligned(v, 3) for v in values]
        outputs = sort_streams(network, streams)
        assert [decode(s).value for s in outputs] == sorted(values)
        assert all(is_right_aligned(s) for s in outputs)

    def test_lane_count_checked(self):
        network = build_bitonic_network(4)
        with pytest.raises(ValueError):
            sort_streams(network, [encode_right_aligned(1, 3)] * 2)

    def test_unequal_lengths_rejected(self):
        network = build_bitonic_network(2)
        streams = [encode_right_aligned(3, 2), encode_right_aligned(1, 1)]
        with pytest.raises(ValueError, match="equal lengths"):
            sort_streams(network, streams)

    def test_every_bit_position_sorted_exhaustive(self):
        # streams need not be aligned: each cycle's bits are sorted on their own
        network = build_bitonic_network(4)
        for bits in itertools.product((0, 1), repeat=12):
            streams = [UnaryStream(bits[3 * k:3 * k + 3]) for k in range(4)]
            outputs = sort_streams(network, streams)
            for t in range(3):
                column = [s.bits[t] for s in streams]
                assert [s.bits[t] for s in outputs] == sorted(column)


def test_cas_is_frozen_value_type():
    cas = Cas(0, 1, CasDirection.ASCENDING)
    assert cas == Cas(0, 1, CasDirection.ASCENDING)
    with pytest.raises(AttributeError):
        cas.lane_a = 2
