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

Search is capped at :data:`SEARCH_BUDGET` generation cycles.  The inputs fix
the search length, so one that needs more (up to 2**32 at width 32) is
refused when the engine is built.  Drain cycles, one per input, are not capped.

A subclass supplies only the detector: :meth:`IterativeEngine._fire` runs
one generation cycle and :meth:`IterativeEngine._value` retrieves the
detected value.  It also checks the input words and then its search length.

Only units in play are stepped: :attr:`IterativeEngine.in_play` lists them
and is rebuilt only in a search cycle that detects something.  Each is
stepped once per search cycle by a ``FsmGenerator.step`` or ``max_bit``
call looked up when it is made, because ``perfbench/run.py --self-test``
counts those calls against the unit-cycles it reads off the trace.
:meth:`IterativeEngine.run` runs the cycles a loop of ``tick()`` runs, but
logs only those that detect or write; ``trace.events`` fills the gaps.
"""

from __future__ import annotations

from collections.abc import Sequence

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
        self.width = width
        self.n = len(values)
        self.in_play = list(range(self.n))  # inputs whose detection flip-flop is clear
        self.pending = 0                    # writes left in the current tie group
        self.elapsed = 0                    # generation cycles; frozen in DRAIN
        self.cycle = 0                      # global clock
        self.out_ptr = 0
        self.outputs: list[int | None] = [None] * self.n
        self.trace = CycleTrace(arch=self.arch, n_inputs=self.n)

    def _admit(self, search_cycles: int) -> None:
        """Refuse an input whose search needs more than SEARCH_BUDGET cycles."""
        if search_cycles > SEARCH_BUDGET:
            raise ValueError(f"search needs more than {SEARCH_BUDGET} generation "
                             f"cycles at width {self.width}; widths up to 16 fit")

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

    def _search(self) -> tuple[int, ...]:
        """One generation cycle, unlogged; returns the indices that fire."""
        self.elapsed += 1
        newly = self._fire()
        if newly:
            fired = set(newly)
            self.in_play = [i for i in self.in_play if i not in fired]
            self.pending = len(newly)
        return newly

    def tick(self) -> None:
        """Advance one clock cycle."""
        phase = self.phase
        newly, writes = (), ()
        if phase is SEARCH:
            newly = self._search()
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
        """Clock until every input has been written; returns the sorted outputs."""
        while not self.done:
            if self.pending:
                self.tick()
                continue
            start, newly = self.elapsed, ()
            while not newly:
                newly = self._search()
            self.cycle += self.elapsed - start  # past the quiet cycles, unlogged
            self.trace.append(TraceEvent(self.cycle, SEARCH, self.elapsed, newly, ()))
        return list(self.outputs)
