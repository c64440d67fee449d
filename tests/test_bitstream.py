import pytest

from unarysort.generators import FsmGenerator
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.bitstream import (
    BinaryValue,
    UnaryStream,
    check_word,
    decode,
    emission_str,
    encode_right_aligned,
    is_right_aligned,
    stream_length,
    written_str,
)


class TestBinaryValue:
    @pytest.mark.parametrize("value,width", [(-1, 3), (8, 3), (1, 0), (1, 33)])
    def test_rejects_out_of_range(self, value, width):
        with pytest.raises(ValueError):
            BinaryValue(value, width)

    def test_bounds_accepted(self):
        BinaryValue(0, 1)
        BinaryValue((1 << 32) - 1, 32)


def _load(value, width):
    unit = FsmGenerator(0, 1)
    unit.width = width  # the register width load checks against
    unit.load(value)


@pytest.mark.parametrize("value,width,message", [
    (0, 0, "width must be in 1..32, got 0"),
    (0, 33, "width must be in 1..32, got 33"),
    (-1, 3, "value -1 not representable in 3 bits"),
    (8, 3, "value 8 not representable in 3 bits"),
])
@pytest.mark.parametrize("make", [
    check_word, BinaryValue, FsmGenerator, _load,
    lambda value, width: MinSortEngine([0, value], width),
    lambda value, width: MaxSortEngine([0, value], width),
], ids=["check_word", "BinaryValue", "FsmGenerator", "FsmGenerator.load",
        "MinSortEngine", "MaxSortEngine"])
def test_one_word_rule(make, value, width, message):
    with pytest.raises(ValueError) as caught:
        make(value, width)
    assert str(caught.value) == message


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
        for m in range(1, 8):
            assert len(encode_right_aligned(1, m)) == stream_length(m) == 1 << m


class TestDecode:
    def test_popcount(self):
        assert decode(UnaryStream((1, 1, 1, 1, 0, 0, 0, 0))) == BinaryValue(4, 3)

    def test_all_ones_not_representable(self):
        with pytest.raises(ValueError, match="not representable"):
            decode(UnaryStream((1,) * 8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decode(UnaryStream(()))

    @pytest.mark.parametrize("length", [1, 3, 6, 12])
    def test_non_power_of_two_rejected(self, length):
        with pytest.raises(ValueError):
            decode(UnaryStream((0,) * length))

    def test_order_independent(self):
        # decode only counts ones; the counter generator relies on this
        assert decode(UnaryStream((0, 0, 0, 0, 1, 1, 1, 1))).value == 4


class TestAlignment:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            ((1, 1, 0, 0), True),
            ((1, 0, 1, 0), False),
            ((0, 0, 0, 0), True),
            ((0, 1), False),
        ],
    )
    def test_is_right_aligned(self, bits, expected):
        assert is_right_aligned(UnaryStream(bits)) is expected


class TestDisplay:
    def test_written_is_reverse_of_emission(self):
        s = encode_right_aligned(3, 3)
        assert emission_str(s) == "11100000"
        assert written_str(s) == emission_str(s)[::-1]

    def test_bad_bits_rejected(self):
        for bits in ((0, 2, 1), (1, -1), (2,), (-1,)):
            with pytest.raises(ValueError):
                UnaryStream(bits)
        assert UnaryStream((True, False, 0, 1)).popcount == 2


class TestRoundTrip:
    def test_exhaustive_round_trip(self):
        # every representable value survives encode/decode, widths 1..12
        for m in range(1, 13):
            for v in range(1 << m):
                s = encode_right_aligned(v, m)
                assert decode(s).value == v
                assert is_right_aligned(s)

    def test_encode_injective(self):
        for m in range(1, 9):
            streams = {encode_right_aligned(v, m).bits for v in range(1 << m)}
            assert len(streams) == 1 << m
