"""Core value and bitstream types for unary computing.

A data word with bit-width ``m`` is encoded as a stream of ``2**m`` bits
containing exactly ``value`` ones.  Streams are stored in *emission order*:
``bits[0]`` is the bit produced in clock cycle 1.  A right-aligned stream
emits all of its ones first; written as a binary word (most recent bit
first, see :func:`written_str`) it reads ``0...01...1``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

MAX_WIDTH = 32


def check_width(width: int) -> None:
    """Raise ValueError unless the width is an integer with ``1 <= width <= 32``."""
    try:
        if 1 <= operator.index(width) <= MAX_WIDTH:  # a numpy integer or bool passes
            return
    except TypeError:
        pass
    raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


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


@dataclass(frozen=True)
class UnaryStream:
    """A bit sequence in emission order (cycle 1 first)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not set(self.bits) <= {0, 1}:
            raise ValueError("stream bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    @property
    def popcount(self) -> int:
        return sum(self.bits)


def encode_right_aligned(value: int, width: int) -> UnaryStream:
    """Reference encoding: exactly ``value`` ones followed by zeros.

    This is the oracle every generator in the package is tested against.
    """
    check_word(value, width)
    return UnaryStream((1,) * value + (0,) * ((1 << width) - value))


def decode(stream: UnaryStream) -> BinaryValue:
    """Recover the encoded word: popcount of the stream, width = log2(length).

    Rejects streams whose length is not a power of two (>= 2) and streams
    whose popcount is not representable (an all-ones stream encodes nothing).
    """
    length = len(stream)
    if length < 2 or length & (length - 1):
        raise ValueError(f"stream length {length} is not a power of two >= 2")
    width = length.bit_length() - 1
    return BinaryValue(stream.popcount, width)


def emission_str(stream: UnaryStream) -> str:
    """The stream as a 0/1 string in emission order (cycle 1 leftmost)."""
    return "".join(str(b) for b in stream)


def written_str(stream: UnaryStream) -> str:
    """The stream as a 0/1 string in written order (most recent bit first).

    A right-aligned stream reads ``0...01...1`` in this form.
    """
    return "".join(str(b) for b in reversed(stream.bits))
