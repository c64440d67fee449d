import itertools
import math
import random

import numpy as np
import pytest

from unarysort import batcher, bitstream
from unarysort.batcher import (
    CasNetwork,
    batcher_sort,
    batcher_sort_batch,
    build_bitonic_network,
    cas_count,
    evaluate,
    sort_streams,
)
from unarysort.bitstream import (
    UnaryStream,
    decode,
    encode_right_aligned,
)


def per_cycle_sort(values, width):
    """The bit-serial reference: one :func:`evaluate` call per clock cycle on
    the 0/1 bits of the right-aligned streams, output popcounts summed."""
    streams = [encode_right_aligned(v, width).bits for v in values]
    network = build_bitonic_network(len(values))
    counts = [0] * len(values)
    for t in range(1 << width):
        for lane, bit in enumerate(evaluate(network, [bits[t] for bits in streams])):
            counts[lane] += bit
    return counts


def per_bit_sort_streams(network, streams):
    """Reference packing for :func:`sort_streams`: bit t of a lane is the bit
    of cycle t + 1, packed and unpacked one bit at a time."""
    length = len(streams[0])
    lanes = [sum(bit << t for t, bit in enumerate(s.bits)) for s in streams]
    return [
        UnaryStream(tuple((lane >> t) & 1 for t in range(length)))
        for lane in evaluate(network, lanes)
    ]


class TestCasCount:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 1), (8, 24), (16, 80), (32, 240), (256, 4608), (np.int64(8), 24)],
    )
    def test_known_counts(self, n, expected):
        assert cas_count(n) == expected

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 12, 2.5, 4.0])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError):
            cas_count(n)


class TestNetworkStructure:
    def test_count_matches_formula(self):
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            assert build_bitonic_network(n).cas_blocks == cas_count(n)

    def test_no_lane_twice_per_stage(self):
        for n in (2, 4, 8, 16, 32):
            for stage in build_bitonic_network(n).stages:
                lanes = [lane for pair in stage for lane in pair]
                assert len(lanes) == len(set(lanes))

    def test_rejects_bad_sizes(self):
        # a count past the cap, or one that is no integer, is refused and not cached
        cached = build_bitonic_network.cache_info().currsize
        for n in (6, "4", 2048):
            with pytest.raises(ValueError):
                build_bitonic_network(n)
        assert build_bitonic_network.cache_info().currsize == cached

    def test_built_once_per_size(self):
        assert build_bitonic_network(16) is build_bitonic_network(16)
        assert build_bitonic_network(8) is not build_bitonic_network(16)


def one_block(low: int, high: int) -> CasNetwork:
    return CasNetwork(n_inputs=2, stages=(((low, high),),))


def check_min_on_low_max_on_high(low, high):
    # lane-wise AND/OR keeps streams right-aligned and splits min/max: every
    # pair of right-aligned lanes at widths 1..6, through the kernel
    for m in range(1, 7):
        lanes = [encode_right_aligned(v, m).lane for v in range(1 << m)]
        for va, vb in itertools.product(range(1 << m), repeat=2):
            out = evaluate(one_block(low, high), [lanes[va], lanes[vb]])
            assert out[low] == lanes[min(va, vb)]
            assert out[high] == lanes[max(va, vb)]


class TestCasApply:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0, 0, (0, 0)), (0, 1, (0, 1)), (1, 0, (0, 1)), (1, 1, (1, 1))],
    )
    def test_ascending_truth_table(self, a, b, expected):
        assert evaluate(one_block(0, 1), [a, b]) == list(expected)

    def test_descending_swaps(self):
        # low > high: the AND lands on lane 1 and the OR on lane 0
        check_min_on_low_max_on_high(1, 0)

    def test_streams_split_to_min_and_max(self):
        a = encode_right_aligned(4, 3)
        b = encode_right_aligned(6, 3)
        low = tuple(x & y for x, y in zip(a.bits, b.bits))
        high = tuple(x | y for x, y in zip(a.bits, b.bits))
        assert sum(low) == 4 and sum(high) == 6

    def test_and_or_min_max_exhaustive(self):
        check_min_on_low_max_on_high(0, 1)


class TestBatcherSort:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            batcher_sort([1, 2, 3], 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            batcher_sort([1, 8], 3)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_zero_one_proof_bitsliced(self, n):
        # bit j of lane i is bit i of j, so one evaluate call carries all 2**n
        # zero-one vectors: lane i repeats 2**i zeros then 2**i ones
        everything = (1 << (1 << n)) - 1
        lanes = [
            everything // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
            for i in range(n)
        ]
        out = evaluate(build_bitonic_network(n), lanes)
        # vector j is sorted iff no lane holds a 1 that the lane above lacks
        assert all(out[i] & ~out[i + 1] == 0 for i in range(n - 1))
        # and no 1 is lost or made: lane i is 1 in every vector with at
        # least n - i ones
        assert [lane.bit_count() for lane in out] == [
            sum(math.comb(n, k) for k in range(n - i, n + 1)) for i in range(n)
        ]

    @pytest.mark.parametrize("n,width", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
    def test_spans_equal_per_cycle_exhaustive(self, n, width):
        for values in itertools.product(range(1 << width), repeat=n):
            assert batcher_sort(values, width) == per_cycle_sort(values, width)

    def test_builds_no_stream(self, monkeypatch):
        # the cost must not follow 2**width: no 2**width-bit stream is made
        def refuse(value, width):
            raise AssertionError("batcher_sort encoded a stream")

        for module in (batcher, bitstream):
            monkeypatch.setattr(module, "encode_right_aligned", refuse, raising=False)
        assert batcher_sort([(1 << 32) - 1, 1, 0, 1], 32) == [0, 1, 1, (1 << 32) - 1]

    def test_batch_sorts_at_its_width_cap(self):
        assert batcher_sort_batch([65535, 0], 16) == [0, 65535]


class TestSortStreams:
    def test_output_streams_sorted_and_aligned(self):
        values = [3, 0, 7, 5]
        network = build_bitonic_network(4)
        streams = [encode_right_aligned(v, 3) for v in values]
        outputs = sort_streams(network, streams)
        assert [decode(s).value for s in outputs] == sorted(values)
        assert outputs == [encode_right_aligned(v, 3) for v in sorted(values)]

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
            ins = [s.bits for s in streams]
            outs = [s.bits for s in sort_streams(network, streams)]
            for t in range(3):
                column = [b[t] for b in ins]
                assert [b[t] for b in outs] == sorted(column)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equals_per_bit_packing(self, n):
        # unaligned streams of every length up to 70, so packed lanes cross
        # byte and machine-word boundaries; bits given as ints or as bools
        rng = random.Random(n)
        network = build_bitonic_network(n)
        for length in range(71):
            for kind in (int, bool):
                streams = [
                    UnaryStream(tuple(kind(rng.getrandbits(1)) for _ in range(length)))
                    for _ in range(n)
                ]
                assert sort_streams(network, streams) == per_bit_sort_streams(
                    network, streams
                )


def flip_first_bit(stream):
    """A stream rebuilt with its first bit flipped, as the benchmark's
    wrong-stream probe builds one: that probe is a real gate only if this
    constructs and decodes one off."""
    bits = stream.bits
    return type(stream)((1 - bits[0],) + bits[1:])


@pytest.mark.parametrize("m", [1, 3, 8])
def test_a_stream_with_its_first_bit_flipped_decodes_one_off(m):
    # from encode_right_aligned and from sort_streams, the two producers the
    # benchmark's network op hands to the probe; 0 and 2**m - 1 at the ends
    rng = random.Random(m)
    values = [0, (1 << m) - 1, *(rng.randrange(1 << m) for _ in range(14))]
    streams = [encode_right_aligned(v, m) for v in values]
    for stream in [*streams, *sort_streams(build_bitonic_network(16), streams)]:
        assert abs(decode(flip_first_bit(stream)).value - decode(stream).value) == 1


def test_blocks_are_exact_int_pairs():
    # evaluate unpacks each block on CPython's exact-tuple path, which a
    # tuple subclass (a NamedTuple) misses
    for n in (1 << k for k in range(1, 11)):
        for stage in build_bitonic_network(n).stages:
            for pair in stage:
                assert type(pair) is tuple and len(pair) == 2
                assert type(pair[0]) is int and type(pair[1]) is int
