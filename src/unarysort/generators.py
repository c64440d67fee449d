"""Unary number generators.

Two circuits that turn a binary word into a unary bitstream, one bit per
clock cycle:

* :class:`FsmGenerator` - the comparison-free design: an M-bit remainder
  register, a conditional decrement, and an OR-reduction flag from which
  the two-state FSM is derived.  Emits the ones first (right-aligned).
* :func:`counter_generate` - the conventional design: a shared down counter
  and a magnitude comparator per input.  Emits the ones last; same
  popcount, opposite arrival order.
"""

from __future__ import annotations

from .bitstream import UnaryStream, check_stream_width, check_word


class FsmGenerator:
    """Comparison-free unary stream generator.

    Holds the input word in an M-bit remainder register and emits one bit
    per :meth:`step`: the OR-reduction of the remainder's bits, 1 while it
    is nonzero, and each emitted 1 decrements it.  The FSM's two states are
    read off the remainder, not stored: emitting while it is nonzero, else
    the absorbing done state, which emits zeros.  After ``2**width`` steps the
    emitted bits form the right-aligned encoding of the value.

    Parameters
    ----------
    value : int
        Word to convert, ``0 <= value <= 2**width - 1``.
    width : int
        Register width in bits.
    """

    __slots__ = ("remainder",)

    def __init__(self, value: int, width: int):
        check_word(value, width)
        self.remainder = value

    def step(self) -> int:
        """Advance one clock cycle; returns the emitted bit (1 while bits remain)."""
        if self.remainder:
            self.remainder -= 1
            return 1
        return 0


def fsm_generate(value: int, width: int) -> UnaryStream:
    """Run an :class:`FsmGenerator` for a full stream of ``2**width`` bits."""
    unit = FsmGenerator(value, width)
    check_stream_width(width)
    return UnaryStream(tuple(unit.step() for _ in range(1 << width)))


def counter_generate(value: int, width: int) -> UnaryStream:
    """Conventional generator: emit ``value > counter`` as a shared counter
    counts down from ``2**width - 1`` to 0.

    The ones arrive in the last ``value`` cycles, so in emission order the
    stream is the reverse of :func:`fsm_generate`'s; both encode the same
    popcount.
    """
    check_word(value, width)
    check_stream_width(width)
    length = 1 << width
    return UnaryStream(
        tuple(1 if value > counter else 0 for counter in range(length - 1, -1, -1))
    )

