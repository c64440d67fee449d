"""Core value and bitstream types for unary computing.

A data word with bit-width ``m`` is encoded as a stream of ``2**m`` bits
containing exactly ``value`` ones.  A stream is held packed, as one integer
*lane*: bit ``t`` of the lane is the bit produced in clock cycle ``t + 1``, so
AND and OR act on every cycle at once.  Its ``bits`` tuple, in *emission
order* (``bits[0]`` is cycle 1), is derived from the lane.  A right-aligned
stream emits all of its ones first; written as a binary word (most recent bit
first, see :func:`written_str`) it reads ``0...01...1``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass

MAX_WIDTH = 32
# a word of width m plays out as 2**m bits: the one limit on a stream's length
MAX_STREAM_WIDTH = 16
# a sorter is hardware of N inputs: a network grows as N*log2(N)**2 and a
# search cycle steps N units, so every sorter takes at most this many
MAX_SORT_INPUTS = 1024


def is_int_in(value, low: int, high: float) -> bool:
    """True if ``value`` is an integer (a numpy integer or bool passes) in ``low..high``."""
    try:
        return low <= operator.index(value) <= high
    except TypeError:
        return False


def check_width(width: int) -> None:
    """Raise ValueError unless the width is an integer with ``1 <= width <= 32``."""
    if not is_int_in(width, 1, MAX_WIDTH):
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


def check_count(n: int) -> None:
    """Raise ValueError unless a sorter's input count is an integer in ``2..1024``."""
    if not is_int_in(n, 2, MAX_SORT_INPUTS):
        raise ValueError(f"input count must be in 2..{MAX_SORT_INPUTS}, got {n}")


def check_stream_width(width: int) -> None:
    """Raise ValueError unless the width is valid and at most ``MAX_STREAM_WIDTH``."""
    check_width(width)
    if width > MAX_STREAM_WIDTH:
        raise ValueError(f"stream width must be at most {MAX_STREAM_WIDTH}, got {width}")


def check_word(value: int, width: int) -> None:
    """Raise ValueError unless the width is valid and the value is an integer
    with ``0 <= value < 2**width``."""
    # the width is tested first, so an oversized width never reaches the
    # shift; a non-integer value or width makes the shift raise TypeError
    try:
        if 1 <= width <= MAX_WIDTH and value >> width == 0:
            return
    except TypeError:
        pass
    check_width(width)
    raise ValueError(f"value {value} not representable in {width} bits")


@dataclass(frozen=True)
class BinaryValue:
    """An unsigned data word: ``0 <= value <= 2**width - 1``, 1 <= width <= 32."""

    value: int
    width: int

    def __post_init__(self):
        check_word(self.value, self.width)


@dataclass(frozen=True, init=False)
class UnaryStream:
    """A stream of ``length`` bits packed into ``lane``: bit ``t`` is the bit
    of cycle ``t + 1``.  ``UnaryStream(bits)`` packs bits given in emission
    order; a producer that already holds a lane calls :meth:`packed`."""

    lane: int
    length: int

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if not set(bits) <= {0, 1}:
            raise ValueError("stream bits must be 0 or 1")
        # the bits in written order (most recent first) as a base-2 numeral;
        # bool() turns each bit the set test accepts, 1.0 among them, into 0 or 1
        written = bytes(map(bool, reversed(bits))).translate(bytes.maketrans(b"\0\1", b"01"))
        vars(self).update(lane=int(written or b"0", 2), length=len(bits))

    @classmethod
    def packed(cls, lane: int, length: int) -> UnaryStream:
        """The stream whose bit of cycle ``t + 1`` is ``lane >> t & 1``."""
        if lane < 0 or lane >> length:
            raise ValueError(f"lane must be a non-negative integer below 2**{length}")
        stream = cls.__new__(cls)
        vars(stream).update(lane=lane, length=length)
        return stream

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits in emission order (cycle 1 first), as 0/1 ints."""
        return tuple(map(int, emission_str(self)))

    def __len__(self) -> int:
        return self.length


def encode_right_aligned(value: int, width: int) -> UnaryStream:
    """Reference encoding: exactly ``value`` ones followed by zeros.

    This is the oracle every generator in the package is tested against.
    """
    check_word(value, width)
    return UnaryStream.packed((1 << value) - 1, 1 << width)


def decode(stream: UnaryStream) -> BinaryValue:
    """Recover the encoded word: popcount of the stream, width = log2(length).

    Rejects streams whose length is not a power of two (>= 2) and streams
    whose popcount is not representable (an all-ones stream encodes nothing).
    """
    length = len(stream)
    if length < 2 or length & (length - 1):
        raise ValueError(f"stream length {length} is not a power of two >= 2")
    width = length.bit_length() - 1
    return BinaryValue(stream.lane.bit_count(), width)


def emission_str(stream: UnaryStream) -> str:
    """The stream as a 0/1 string in emission order (cycle 1 leftmost)."""
    return written_str(stream)[::-1]


def written_str(stream: UnaryStream) -> str:
    """The stream as a 0/1 string in written order (most recent bit first).

    A right-aligned stream reads ``0...01...1`` in this form.
    """
    # the sentinel bit above the stream keeps its leading zeros
    return bin(stream.lane | 1 << stream.length)[3:]
