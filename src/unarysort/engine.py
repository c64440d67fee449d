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
then its search length, and supplies the detector: ``_fire(once)`` runs
generation cycles in one local loop, advancing ``elapsed``, either exactly
one or every cycle up to and including the first that detects, and returns
the indices of the units in play that fire in the last of them, in
``in_play`` order; ``_value()`` retrieves the detected value.  Search is
capped at :data:`SEARCH_BUDGET` generation cycles, the length of a stream
at ``bitstream.MAX_STREAM_WIDTH``: the inputs fix its length, so one that
needs more (up to 2**32 at width 32) is refused when the engine is built,
as is a count outside 2..``bitstream.MAX_SORT_INPUTS`` = 1024 (by
``check_count``, before any word is checked).  Drain is not capped.

Only units in play are evaluated, each once per search cycle by a
``FsmGenerator.step`` or ``max_bit`` call looked up when it is made, because
``perfbench/run.py --self-test`` counts those calls against the unit-cycles
it reads off the trace.  :attr:`IterativeEngine.in_play` lists them in
detection order, which each sorter sets once when it is built: ascending
value for min, descending for max, ties by ascending index.  The detection
flip-flops have no order, so this is a host-side choice; it makes the units
that fire in a search cycle the head of the list, and a detection removes
that head with one slice deletion, after checking that it is the group.
:meth:`IterativeEngine.tick` runs one cycle, ``_drain(1)`` or a one-cycle
``_search``, and raises ``ValueError`` once every input has been written.
:meth:`IterativeEngine.run` finishes a tie group a ``tick()`` left pending,
then alternates ``_search`` up to the next detection with ``_drain`` of the
whole group, so it logs only the cycles that detect and one record per
group; ``trace.events`` is a view that fills the gaps and splits the groups.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitstream import MAX_STREAM_WIDTH, check_count
from .trace import CycleTrace, Phase, TraceEvent

# the most generation cycles an input at the stream-width limit needs (min
# detects 2**m - 1, max detects 0, both at cycle 2**m), so every width up to it sorts
SEARCH_BUDGET = 1 << MAX_STREAM_WIDTH


class IterativeEngine:
    """Cycle-accurate model of an iterative extreme-detection sorter.

    Parameters
    ----------
    values : sequence of int
        Unsorted input words, 2 to ``bitstream.MAX_SORT_INPUTS``.
    width : int
        Data width in bits.

    Call :meth:`tick` to advance one clock, or :meth:`run` to completion;
    :meth:`sort` builds one and runs it.
    Engines share nothing and may run side by side; tick a given engine
    from one caller at a time.
    """

    arch: str

    def __init__(self, values: Sequence[int], width: int):
        check_count(len(values))
        self.width = width
        self.n = len(values)
        # inputs whose detection flip-flop is clear; each sorter puts them in
        # detection order, a host-side choice (the flip-flops have no order)
        # that makes each detection remove the head of the list
        self.in_play = list(range(self.n))
        self.pending = 0                    # writes left in the current tie group
        self.elapsed = 0                    # generation cycles; frozen in DRAIN
        self.out_ptr = 0                    # output pointer: results written
        self.outputs: list[int | None] = [None] * self.n
        self.trace = CycleTrace(arch=self.arch, n_inputs=self.n)

    def _admit(self, search_cycles: int) -> None:
        """Refuse an input whose search needs more than SEARCH_BUDGET cycles."""
        if search_cycles > SEARCH_BUDGET:
            raise ValueError(f"search needs more than {SEARCH_BUDGET} generation "
                             f"cycles at width {self.width}; widths up to {MAX_STREAM_WIDTH} fit")

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
            # newly is an ordered subsequence of in_play: the head iff it ends there
            k = len(newly)
            if self.in_play[k - 1] != newly[-1]:
                raise RuntimeError(f"units {newly} fired out of detection order")
            del self.in_play[:k]
            self.pending = k
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

    @classmethod
    def sort(cls, values: Sequence[int], width: int) -> tuple[list[int], CycleTrace]:
        """Build the engine and run it; returns (outputs, trace)."""
        engine = cls(values, width)
        return engine.run(), engine.trace
