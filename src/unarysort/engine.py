"""Two-phase controller shared by the iterative sorters.

Both iterative architectures wrap the same hardware around their unary
number generator, and the engine holds its registers and nothing else:
``in_play`` (the inputs whose detection flip-flop is clear), ``pending``
(the tie group's popcount, latched at detection: the writes it has left),
``elapsed`` (the generation counter) and ``out_ptr`` (the output pointer).
There is no clock register: each cycle advances the counter or writes one
result, so :attr:`IterativeEngine.cycle` is derived, ``elapsed + out_ptr``.
The controller has the paper's two phases, and
:attr:`IterativeEngine.phase` alone decides which one the next clock runs:

* SEARCH: the generators advance one cycle and every undetected unit whose
  detector fires latches.  Any detection switches to DRAIN.
* DRAIN: generation stalls and one result is written per cycle until the
  tie group's count runs out; the value is read from state frozen at
  detection.

``_search`` logs the last of its search cycles, and ``_drain`` a tie group's
writes, one cycle each, as one record.  A subclass checks the input words,
then its search length, and supplies the detector: ``_fire`` runs
generation cycles in one local loop, either exactly one or every cycle up
to and including the first that detects, and ``_value`` retrieves the
detected value.  Search is capped at :data:`SEARCH_BUDGET` generation
cycles: the inputs fix its length, so one that needs more (up to 2**32 at
width 32) is refused when the engine is built.  Drain cycles are not capped.

Only units in play are evaluated, each once per search cycle by a
``FsmGenerator.step`` or ``max_bit`` call looked up when it is made, because
``perfbench/run.py --self-test`` counts those calls against the unit-cycles
it reads off the trace.  :attr:`IterativeEngine.in_play` lists them in
ascending order and changes only in a search cycle that detects something.
A tie group of up to :data:`WIDE_GROUP` units is deleted from it in place,
each unit found by bisection, so a detection costs Python work in proportion
to its group, not to the units in play; a wider group is filtered out in
one pass.
:meth:`IterativeEngine.tick` runs one cycle, ``_drain(1)`` or a one-cycle
``_search``, and raises ``ValueError`` once every input has been written.
:meth:`IterativeEngine.run` finishes a tie group a ``tick()`` left pending,
then alternates ``_search`` up to the next detection with ``_drain`` of the
whole group, so it logs only the cycles that detect and one record per
group; ``trace.events`` fills the gaps and splits the groups.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from .trace import CycleTrace, Phase, TraceEvent

# the most generation cycles a width-16 input needs (min detects 2**16 - 1,
# max detects 0, both at cycle 2**16), so every width up to 16 sorts
SEARCH_BUDGET = 1 << 16

# a tie group of at most this many units leaves in_play by one ``del`` each,
# in place: a deletion is one memmove of the tail, so a group of k units
# moves about k * n / 2 pointers, which is quadratic for one huge group; a
# wider group is filtered out in one pass instead
WIDE_GROUP = 64


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
        self.out_ptr = 0                    # output pointer: results written
        self.outputs: list[int | None] = [None] * self.n
        self.trace = CycleTrace(arch=self.arch, n_inputs=self.n)

    def _admit(self, search_cycles: int) -> None:
        """Refuse an input whose search needs more than SEARCH_BUDGET cycles."""
        if search_cycles > SEARCH_BUDGET:
            raise ValueError(f"search needs more than {SEARCH_BUDGET} generation "
                             f"cycles at width {self.width}; widths up to 16 fit")

    def _fire(self, once: bool) -> tuple[int, ...]:
        """Run generation cycles, advancing ``elapsed``: one if ``once``, else
        every cycle up to and including the first that detects.  Returns the
        indices of the units in play that fire in the last of them."""
        raise NotImplementedError

    def _value(self) -> int:
        """The value detected in the current tie group."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        return self.out_ptr == self.n

    @property
    def cycle(self) -> int:
        """The global clock: each cycle advanced ``elapsed`` or wrote one result."""
        return self.elapsed + self.out_ptr

    @property
    def phase(self) -> Phase:
        """DRAIN while writes are pending, else SEARCH."""
        return Phase.DRAIN if self.pending else Phase.SEARCH

    def _search(self, once: bool) -> None:
        """Search cycles (see ``_fire``), the last one logged; latches the units that fire."""
        newly = self._fire(once)
        if newly:
            # newly is an ascending subsequence of in_play
            if len(newly) <= WIDE_GROUP:
                in_play = self.in_play
                for i in newly:
                    del in_play[bisect_left(in_play, i)]
            else:
                gone = set(newly)
                self.in_play = [i for i in self.in_play if i not in gone]
            self.pending = len(newly)
        self.trace.append(TraceEvent(self.elapsed + self.out_ptr, self.elapsed, newly, ()))

    def _drain(self, writes: int) -> None:
        """Write the next ``writes`` (at least one) results of the tie group,
        one cycle each, logged as one record."""
        # tied units hold one value and generation stalls while they drain,
        # so which of them the priority encoder picks changes no output and
        # no trace event; the count alone is modelled (cost.py counts the encoder)
        value, start, outputs = self._value(), self.out_ptr, self.outputs
        end = self.out_ptr = start + writes
        # one plain loop: on Python 3.11 a slice store plus a comprehension made
        # a one-write group (most groups of a random input) cost 45% more
        pairs = []
        for address in range(start, end):
            outputs[address] = value
            pairs.append((address, value))
        self.trace.append(TraceEvent(self.elapsed + start + 1, self.elapsed, (), tuple(pairs)))
        self.pending -= writes

    def tick(self) -> None:
        """Advance one clock cycle; refused once every input has been written."""
        if self.done:
            raise ValueError("every input has been written")
        if self.pending:
            self._drain(1)
        else:
            self._search(once=True)

    def run(self) -> list[int]:
        """Clock until every input has been written; returns the sorted outputs."""
        while not self.done:
            if not self.pending:  # else finish the group a tick() left mid-drain
                self._search(once=False)
            self._drain(self.pending)
        return list(self.outputs)
