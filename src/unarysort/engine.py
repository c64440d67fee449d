"""Two-phase controller shared by the iterative sorters.

Both iterative architectures wrap the same hardware around their unary
number generator: one detection flip-flop per input, a popcount of the
newly latched bits, a priority encoder over the tie group, and the output
memory.  Each clock edge is one :meth:`IterativeEngine.tick`, which runs
one of three phases and logs one trace event:

* SEARCH: the generators advance one cycle and every undetected unit whose
  detector fires latches.  Any detection switches to DRAIN.
* DRAIN: generation stalls and one result is written per cycle until the
  tie group's count runs out; the value is read from state frozen at
  detection.
* IDLE: every result has been written; the clock still counts and the
  tick is logged, but nothing else changes.

A subclass supplies only the detector: :meth:`IterativeEngine._fire` runs
one generation cycle and :meth:`IterativeEngine._value` retrieves the
detected value.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitstream import BinaryValue
from .trace import CycleTrace, Phase, TraceEvent


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
        self.detected = [False] * self.n   # detection flip-flops; set means out of play
        self.pending = 0                   # writes left in the current tie group
        self.elapsed = 0                   # generation cycles; frozen in DRAIN
        self.cycle = 0                     # global clock
        self.out_ptr = 0
        self.outputs: list[int | None] = [None] * self.n
        self.trace = CycleTrace(arch=self.arch, n_inputs=self.n)

    def _fire(self) -> tuple[int, ...]:
        """Advance the generators one cycle; indices of undetected units that fire."""
        raise NotImplementedError

    def _value(self) -> int:
        """The value detected in the current tie group."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        return self.out_ptr == self.n

    @property
    def phase(self) -> Phase:
        """DRAIN while the current tie group has writes left, else SEARCH."""
        return Phase.DRAIN if self.pending else Phase.SEARCH

    def tick(self) -> None:
        """Advance one clock cycle."""
        self.cycle += 1
        newly, writes = (), ()
        if self.done:
            # post-completion ticks are no-ops, flagged in the trace
            phase = Phase.IDLE
        elif self.pending:
            # tied units hold one value and generation stalls while they
            # drain, so which of them the priority encoder picks changes no
            # output and no trace event; the count alone is modelled
            # (cost.py counts the encoder)
            phase = Phase.DRAIN
            self.pending -= 1
            value = self._value()
            writes = ((self.out_ptr, value),)
            self.outputs[self.out_ptr] = value
            self.out_ptr += 1
        else:
            phase = Phase.SEARCH
            self.elapsed += 1
            newly = self._fire()
            for i in newly:
                self.detected[i] = True
            self.pending = len(newly)
        self.trace.append(TraceEvent(self.cycle, phase, self.elapsed, newly, writes))

    def run(self) -> list[int]:
        """Tick until every input has been written; returns the sorted outputs."""
        while not self.done:
            self.tick()
        return list(self.outputs)
