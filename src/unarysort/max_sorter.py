"""Descending-order baseline sorter built on the conventional generators.

One shared M-bit counter descends from ``2**width - 1``; each input drives
a magnitude comparator, and the first comparator to fire marks the current
maximum.  Detection, tie draining and tracing are the shared
:class:`~unarysort.engine.IterativeEngine`; the retrieved value is simply
the counter value at detection.
"""

from __future__ import annotations

from collections.abc import Sequence
# max_bit is the magnitude comparator, 1 (True) iff value >= counter.  It is a
# builtin so that no Python frame is paid per compare.  No other package module
# may bind operator.ge: the benchmark's self-test counts compares by replacing
# max_bit under every package name bound to it, and would count those calls too.
from operator import ge as max_bit

from .bitstream import check_word
from .engine import IterativeEngine
from .trace import CycleTrace


class MaxSortEngine(IterativeEngine):
    """Cycle-accurate model of the descending-order sorter.

    The shared down counter is ``2**width - elapsed``: ``2**width - 1`` in
    the first search cycle, one less in each one after, and frozen while
    results drain, so it still holds the detected value during the writes.
    """

    arch = "max"

    def __init__(self, values: Sequence[int], width: int):
        super().__init__(values, width)
        for v in values:
            check_word(v, width)
        self._admit((1 << width) - min(values))  # the smallest input is detected last
        self.values = list(values)
        self.in_play.sort(key=self.values.__getitem__, reverse=True)  # stable: ties ascend

    # bound in this class body, so that wrapping MaxSortEngine.run (as the
    # benchmark's per-layer spans do) wraps this sorter and not the min sorter
    run = IterativeEngine.run

    def _fire(self, once: bool) -> tuple[int, ...]:
        values, in_play, elapsed, newly = self.values, self.in_play, self.elapsed, []
        top = 1 << self.width
        while True:
            elapsed += 1
            counter = top - elapsed  # the shared down counter
            for i in in_play:
                if max_bit(values[i], counter):
                    newly.append(i)
            if newly or once:
                self.elapsed = elapsed
                return tuple(newly)

    def _value(self) -> int:
        return (1 << self.width) - self.elapsed  # the counter, frozen at detection


def sort_descending(
    values: Sequence[int], width: int
) -> tuple[list[int], CycleTrace]:
    """Sort by iteratively detecting the maximum; returns (outputs, trace)."""
    engine = MaxSortEngine(values, width)
    outputs = engine.run()
    return outputs, engine.trace
