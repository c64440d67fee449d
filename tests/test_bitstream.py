import itertools
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from unarysort.batcher import batcher_sort, batcher_sort_batch
from unarysort.bench import BenchConfig
from unarysort.cost import Architecture, resources
from unarysort.generators import FsmGenerator, counter_generate, fsm_generate
from unarysort.max_sorter import MaxSortEngine, sort_descending
from unarysort.min_sorter import MinSortEngine, sort_ascending
from unarysort.bitstream import (
    BinaryValue,
    UnaryStream,
    check_count,
    check_word,
    decode,
    emission_str,
    encode_right_aligned,
    written_str,
)


class TestBinaryValue:
    def test_bounds_accepted(self):
        BinaryValue(0, 1)
        BinaryValue((1 << 32) - 1, 32)


@pytest.mark.parametrize("value,width,message", [
    (0, 0, "width must be in 1..32, got 0"),
    (0, 33, "width must be in 1..32, got 33"),
    (-1, 3, "value -1 not representable in 3 bits"),
    (8, 3, "value 8 not representable in 3 bits"),
    # a non-integer word or width is refused, never shifted or counted down
    (2.5, 3, "value 2.5 not representable in 3 bits"),
    (Fraction(5, 2), 3, "value 5/2 not representable in 3 bits"),
    (Decimal("2.5"), 3, "value 2.5 not representable in 3 bits"),
    (1, 2.5, "width must be in 1..32, got 2.5"),
])
@pytest.mark.parametrize("make", [
    check_word, BinaryValue, FsmGenerator, fsm_generate, counter_generate,
    encode_right_aligned,
    lambda value, width: MinSortEngine([0, value], width),
    lambda value, width: MaxSortEngine([0, value], width),
], ids=["check_word", "BinaryValue", "FsmGenerator", "fsm_generate", "counter_generate",
        "encode_right_aligned", "MinSortEngine", "MaxSortEngine"])
def test_one_word_rule(make, value, width, message):
    with pytest.raises(ValueError) as caught:
        make(value, width)
    assert str(caught.value) == message


# the width is tested before the word is shifted: a shift by -1 raises a
# message of its own, and one by 2.5 a TypeError
@pytest.mark.parametrize("width", [0, 33, -1, 10**9, 2.5])
@pytest.mark.parametrize("make", [
    lambda width: check_word(0, width),
    lambda width: BenchConfig(m=width),
    *(lambda width, arch=arch: resources(arch, 8, width) for arch in Architecture),
], ids=["check_word", "BenchConfig", *(f"resources-{arch.value}" for arch in Architecture)])
def test_one_width_rule(make, width):
    with pytest.raises(ValueError) as caught:
        make(width)
    assert str(caught.value) == f"width must be in 1..32, got {width}"


# the count is tested before any word: each word here is unrepresentable at width 3
@pytest.mark.parametrize("n", [0, 1, 1025])
@pytest.mark.parametrize("make", [
    lambda values, width: check_count(len(values)),
    MinSortEngine, MaxSortEngine, batcher_sort, batcher_sort_batch,
], ids=["check_count", "MinSortEngine", "MaxSortEngine", "batcher_sort", "batcher_sort_batch"])
def test_one_count_rule(make, n):
    with pytest.raises(ValueError) as caught:
        make([8] * n, 3)
    assert str(caught.value) == f"input count must be in 2..1024, got {n}"


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_an_engine_checks_each_word_once(engine_cls, monkeypatch):
    checked = []

    def counted(value, width):
        checked.append(value)
        check_word(value, width)

    for name, module in list(sys.modules.items()):
        if name.startswith("unarysort") and hasattr(module, "check_word"):
            monkeypatch.setattr(module, "check_word", counted)
    engine_cls([5, 0, 7, 5], 3)
    assert sorted(checked) == [0, 5, 5, 7]


@pytest.mark.parametrize("engine_cls,sort,expected", [
    (MinSortEngine, sort_ascending, [0, 1, 3]),
    (MaxSortEngine, sort_descending, [3, 1, 0]),
], ids=["min", "max"])
def test_an_engine_takes_integer_words_only(engine_cls, sort, expected):
    # a min-sorter remainder of 2.5 steps to 0.5, then -0.5, and never reaches
    # 0, so an engine that took it would never finish
    with pytest.raises(ValueError, match="value 2.5 not representable in 3 bits"):
        engine_cls([2.5, 1], 3)
    with pytest.raises(ValueError, match="value 2.5 not representable in 3 bits"):
        sort([2.5, 1], 3)
    outputs, _ = sort([np.int64(3), True, 0], 2)
    assert outputs == expected


class TestEncode:
    def test_half_scale(self):
        # written form 00001111: four ones emitted first
        s = encode_right_aligned(4, 3)
        assert s.bits == (1, 1, 1, 1, 0, 0, 0, 0)
        assert written_str(s) == "00001111"

    def test_three_quarters(self):
        assert written_str(encode_right_aligned(6, 3)) == "00111111"

    def test_zero(self):
        assert encode_right_aligned(0, 3).bits == (0,) * 8

    def test_length_is_power_of_two(self):
        # every word is 2**m cycles long, right-aligned: its ones emitted first
        for m in range(1, 9):
            for v in range(1 << m):
                assert encode_right_aligned(v, m).bits == (1,) * v + (0,) * ((1 << m) - v)


class TestDecode:
    def test_all_ones_not_representable(self):
        with pytest.raises(ValueError, match="not representable"):
            decode(UnaryStream((1,) * 8))

    @pytest.mark.parametrize("length", [0, 1, 3, 6, 12])
    def test_non_power_of_two_rejected(self, length):
        with pytest.raises(ValueError):
            decode(UnaryStream((0,) * length))

    def test_order_independent(self):
        # decode only counts ones, wherever they sit; the counter generator
        # relies on this
        for bits in every_bit_tuple(8):
            if len(bits) in (2, 4, 8) and sum(bits) < len(bits):
                width = len(bits).bit_length() - 1
                assert decode(UnaryStream(bits)) == BinaryValue(sum(bits), width)


def every_bit_tuple(max_length):
    for length in range(max_length + 1):
        yield from itertools.product((0, 1), repeat=length)


class TestPackedLane:
    def test_bits_round_trip_exhaustive(self):
        for bits in every_bit_tuple(10):
            for kind in (int, bool):
                stream = UnaryStream(tuple(map(kind, bits)))
                assert stream.bits == bits and type(stream.bits) is tuple
                assert all(type(b) is int for b in stream.bits)
                assert len(stream) == stream.length == len(bits)
                assert stream.lane.bit_count() == sum(bits)

    def test_lane_bit_t_is_cycle_t_plus_one(self):
        assert UnaryStream((1, 0, 0, 1, 1)).lane == 0b11001
        rng = random.Random(6)
        for length in range(71):
            lane = rng.getrandbits(length)
            stream = UnaryStream.packed(lane, length)
            assert stream.lane == lane and len(stream) == length
            assert stream.bits == tuple(lane >> t & 1 for t in range(length))
            assert UnaryStream(stream.bits) == stream

    @pytest.mark.parametrize("length", [0, 1, 8, 70])
    def test_packed_refuses_a_lane_outside_its_length(self, length):
        rng = random.Random(length)
        for lane in (-1, 1 << length, rng.getrandbits(length + 1) | 1 << length):
            with pytest.raises(ValueError, match="non-negative integer below"):
                UnaryStream.packed(lane, length)

    def test_set_test_decides_the_accepted_bits(self):
        # 1.0 == 1 and hashes alike, so the set test accepts it, as it always has
        assert UnaryStream((1.0, 0)) == UnaryStream((1, 0))
        assert UnaryStream((np.int64(1), np.True_, False)).bits == (1, 1, 0)
        with pytest.raises(TypeError):
            UnaryStream(([1], 0))

    def test_strings_equal_per_bit_joins(self):
        for bits in every_bit_tuple(8):
            stream = UnaryStream(bits)
            assert emission_str(stream) == "".join(str(b) for b in stream.bits)
            assert written_str(stream) == "".join(str(b) for b in reversed(stream.bits))
        assert emission_str(UnaryStream(())) == written_str(UnaryStream(())) == ""


class TestDisplay:
    def test_bad_bits_rejected(self):
        for bits in ((0, 2, 1), (1, -1), (2,), (-1,)):
            with pytest.raises(ValueError):
                UnaryStream(bits)
        assert UnaryStream((True, False, 0, 1)).lane.bit_count() == 2


class TestRoundTrip:
    def test_exhaustive_round_trip(self):
        # every representable word, value and width, survives encode/decode,
        # widths 1..12
        for m in range(1, 13):
            for v in range(1 << m):
                assert decode(encode_right_aligned(v, m)) == BinaryValue(v, m)
