"""Two-phase controller shared by the iterative sorters.

Both iterative architectures wrap the same hardware around their unary
number generator: one detection flip-flop per input, a popcount of the
newly latched bits, a priority encoder over the tie group, and the output
memory.  Each clock edge is one :meth:`IterativeEngine.tick`, which runs
the phase decided by :attr:`IterativeEngine.phase` alone and logs one event:

* SEARCH: the generators advance one cycle and every undetected unit whose
  detector fires latches.  Any detection switches to DRAIN.
* DRAIN: generation stalls and one result is written per cycle until the
  tie group's count runs out; the value is read from state frozen at
  detection.
* IDLE: every result has been written; the clock still counts and the
  tick is logged, but nothing else changes.

Search is capped at :data:`SEARCH_BUDGET` generation cycles, one tick
each: a run that needs more (up to 2**32 at width 32) raises
:class:`ValueError` instead of hanging.  Drain cycles, one per input, are
not capped.

A subclass supplies only the detector: :meth:`IterativeEngine._fire` runs
one generation cycle and :meth:`IterativeEngine._value` retrieves the
detected value.

Only units in play are stepped: :attr:`IterativeEngine.in_play` lists them
and is rebuilt only in a search cycle that detects something.  Each is
stepped once per search cycle by a ``FsmGenerator.step`` or ``max_bit``
call looked up when it is made, because ``perfbench/run.py --self-test``
counts those calls against the unit-cycles it reads off the trace.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitstream import check_word
from .trace import CycleTrace, Phase, TraceEvent

SEARCH, DRAIN, IDLE = Phase.SEARCH, Phase.DRAIN, Phase.IDLE

# the most generation cycles a width-16 input needs (min detects 2**16 - 1,
# max detects 0, both at cycle 2**16), so every width up to 16 sorts
SEARCH_BUDGET = 1 << 16


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
            check_word(v, width)
        self.width = width
        self.n = len(values)
        self.in_play = list(range(self.n))  # inputs whose detection flip-flop is clear
        self.pending = 0                    # writes left in the current tie group
        self.elapsed = 0                    # generation cycles; frozen in DRAIN
        self.cycle = 0                      # global clock
        self.out_ptr = 0
        self.outputs: list[int | None] = [None] * self.n
        self.trace = CycleTrace(arch=self.arch, n_inputs=self.n)

    def _fire(self) -> tuple[int, ...]:
        """Advance the units in play one cycle; indices of those that fire."""
        raise NotImplementedError

    def _value(self) -> int:
        """The value detected in the current tie group."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        return self.out_ptr == self.n

    @property
    def phase(self) -> Phase:
        """IDLE after the last write, DRAIN while writes are pending, else SEARCH."""
        if self.out_ptr == self.n:
            return IDLE
        return DRAIN if self.pending else SEARCH

    def tick(self) -> None:
        """Advance one clock cycle."""
        phase = self.phase
        newly, writes = (), ()
        if phase is SEARCH:
            if self.elapsed == SEARCH_BUDGET:
                raise ValueError(f"search needs more than {SEARCH_BUDGET} generation "
                                 f"cycles at width {self.width}; widths up to 16 fit")
            self.elapsed += 1
            newly = self._fire()
            if newly:
                fired = set(newly)
                self.in_play = [i for i in self.in_play if i not in fired]
            self.pending = len(newly)
        elif phase is DRAIN:
            # tied units hold one value and generation stalls while they
            # drain, so which of them the priority encoder picks changes no
            # output and no trace event; the count alone is modelled
            # (cost.py counts the encoder)
            self.pending -= 1
            value = self._value()
            writes = ((self.out_ptr, value),)
            self.outputs[self.out_ptr] = value
            self.out_ptr += 1
        # an IDLE tick (after completion) is a no-op, flagged in the trace
        self.cycle += 1
        self.trace.append(TraceEvent(self.cycle, phase, self.elapsed, newly, writes))

    def run(self) -> list[int]:
        """Tick until every input has been written; returns the sorted outputs."""
        while not self.done:
            self.tick()
        return list(self.outputs)
