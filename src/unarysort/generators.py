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

from enum import Enum

from .bitstream import (
    UnaryStream,
    check_word,
    decode,
    is_right_aligned,
    stream_length,
)


class GeneratorState(Enum):
    EMITTING = "emitting"  # output is 1 while bits remain
    DONE = "done"          # absorbing; output is 0 until reload


class FsmGenerator:
    """Comparison-free unary stream generator.

    Holds the input word in an M-bit remainder register and emits one bit
    per :meth:`step`.  While the remainder is nonzero the OR-reduction of
    its bits (``or_out``) is 1 and each emitted 1 decrements it.  The FSM
    state is derived from it, not stored: EMITTING while it is nonzero,
    else the absorbing DONE, which emits zeros.  After ``2**width`` steps
    the emitted bits form the right-aligned encoding of the value.

    Parameters
    ----------
    value : int
        Word to convert, ``0 <= value <= 2**width - 1``.
    width : int
        Register width in bits.
    """

    def __init__(self, value: int, width: int):
        self.width = width
        self.load(value)

    def load(self, value: int) -> None:
        """Load a word into the remainder register."""
        check_word(value, self.width)
        self.remainder = value

    @property
    def state(self) -> GeneratorState:
        """EMITTING while bits remain, else DONE."""
        return GeneratorState.EMITTING if self.remainder else GeneratorState.DONE

    @property
    def or_out(self) -> int:
        """OR-reduction of the remainder register: 1 while bits remain."""
        return 1 if self.remainder else 0

    def step(self) -> int:
        """Advance one clock cycle; returns the emitted bit, ``or_out``."""
        if self.remainder:
            self.remainder -= 1
            return 1
        return 0


def fsm_generate(value: int, width: int) -> UnaryStream:
    """Run an :class:`FsmGenerator` for a full stream of ``2**width`` bits."""
    unit = FsmGenerator(value, width)
    return UnaryStream(tuple(unit.step() for _ in range(stream_length(width))))


def counter_generate(value: int, width: int) -> UnaryStream:
    """Conventional generator: emit ``value > counter`` as a shared counter
    counts down from ``2**width - 1`` to 0.

    The ones arrive in the last ``value`` cycles, so in emission order the
    stream is the reverse of :func:`fsm_generate`'s; both encode the same
    popcount.
    """
    check_word(value, width)
    length = stream_length(width)
    return UnaryStream(
        tuple(1 if value > counter else 0 for counter in range(length - 1, -1, -1))
    )


def streams_equivalent(a: UnaryStream, b: UnaryStream) -> bool:
    """True iff both streams are aligned and decode to the same value.

    Bit order may differ between generator conventions (ones first vs ones
    last); value equality is the contract.
    """
    if len(a) != len(b):
        raise ValueError(f"stream lengths differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("empty streams cannot be compared")
    # aligned means ones first or ones last: right-aligned one way round
    aligned = all(
        is_right_aligned(s) or is_right_aligned(UnaryStream(s.bits[::-1]))
        for s in (a, b)
    )
    return aligned and decode(a).value == decode(b).value
