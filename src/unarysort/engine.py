"""Two-phase controller shared by the iterative sorters.

Both iterative architectures wrap the same hardware around their unary
number generator: one detection flip-flop and one output mask per input, a
popcount of the newly latched bits, a priority encoder that picks the write
order among ties, and the output memory.  The controller alternates two
phases:

* SEARCH: the generators advance one cycle and every in-play unit whose
  detector fires latches.  Any detection switches to DRAIN.
* DRAIN: generation stalls and one pending result is written per cycle,
  lowest index first; the value is read from state frozen at detection.

A subclass supplies only the detector: :meth:`IterativeEngine._fire` runs
one generation cycle and :meth:`IterativeEngine._value` retrieves the
detected value.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitstream import BinaryValue
from .trace import CycleTrace, Phase, TraceEvent


def priority_encode(detected: Sequence[int]) -> int:
    """Lowest set index among the detected bits; ties resolve low-index-first."""
    for i, b in enumerate(detected):
        if b:
            return i
    raise ValueError("no detection: priority encoder input is all zeros")


class IterativeEngine:
    """Cycle-accurate model of an iterative extreme-detection sorter.

    Parameters
    ----------
    values : sequence of int
        Unsorted input words, at least two.
    width : int
        Data width in bits.

    Call :meth:`tick` to advance one clock, or :meth:`run` to completion.
    Engines share nothing and may run side by side; tick a given engine
    from one caller at a time.
    """

    arch: str

    def __init__(self, values: Sequence[int], width: int):
        if len(values) < 2:
            raise ValueError("need at least two inputs to sort")
        for v in values:
            BinaryValue(v, width)
        self.width = width
        self.n = len(values)
        self.detected = [False] * self.n   # detection flip-flops
        self.masked = [False] * self.n     # written to output; out of play
        self.pending: list[int] = []       # detected, awaiting their write cycle
        self.phase = Phase.SEARCH
        self.elapsed = 0                   # generation cycles; frozen in DRAIN
        self.cycle = 0                     # global clock
        self.out_ptr = 0
        self.outputs: list[int | None] = [None] * self.n
        self.trace = CycleTrace(arch=self.arch, n_inputs=self.n)

    def _fire(self) -> tuple[int, ...]:
        """Advance the generators one cycle; indices of in-play units that fire."""
        raise NotImplementedError

    def _value(self) -> int:
        """The value detected in the current tie group."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        return self.out_ptr == self.n

    def tick(self) -> None:
        """Advance one clock cycle."""
        if self.done:
            # post-completion ticks are no-ops, flagged in the trace; the
            # clock itself keeps counting
            self.cycle += 1
            self.trace.append(
                TraceEvent(self.cycle, Phase.IDLE, self.elapsed, 0, (), ())
            )
            return
        if self.phase is Phase.SEARCH:
            self._search_cycle()
        else:
            self._drain_cycle()

    def _search_cycle(self) -> None:
        self.cycle += 1
        self.elapsed += 1
        newly = self._fire()
        for i in newly:
            self.detected[i] = True
        if newly:
            self.pending = list(newly)
            self.phase = Phase.DRAIN
        self.trace.append(
            TraceEvent(self.cycle, Phase.SEARCH, self.elapsed, len(newly), newly, ())
        )

    def _drain_cycle(self) -> None:
        self.cycle += 1
        onehot = [0] * self.n
        for i in self.pending:
            onehot[i] = 1
        index = priority_encode(onehot)
        self.pending.remove(index)
        value = self._value()
        address = self.out_ptr
        self.outputs[address] = value
        self.out_ptr += 1
        self.masked[index] = True
        if not self.pending:
            self.phase = Phase.SEARCH
        self.trace.append(
            TraceEvent(
                self.cycle, Phase.DRAIN, self.elapsed, 0, (), ((address, value),)
            )
        )

    def run(self) -> list[int]:
        """Tick until every input has been written; returns the sorted outputs."""
        while not self.done:
            self.tick()
        return list(self.outputs)
