"""Descending-order baseline sorter built on the conventional generators.

One shared M-bit counter descends from ``2**width - 1``; each input drives
a magnitude comparator, and the first comparator to fire marks the current
maximum.  Detection, tie draining and tracing are the shared
:class:`~unarysort.engine.IterativeEngine`; the retrieved value is simply
the counter value at detection.
"""

from __future__ import annotations

from collections.abc import Sequence

from .engine import IterativeEngine
from .trace import CycleTrace


def max_bit(value: int, counter: int) -> int:
    """Comparator output against the shared down counter: 1 iff value >= counter."""
    return 1 if value >= counter else 0


class MaxSortEngine(IterativeEngine):
    """Cycle-accurate model of the descending-order sorter.

    The shared down counter is ``2**width - elapsed``: ``2**width - 1`` in
    the first search cycle, one less in each one after, and frozen while
    results drain, so it still holds the detected value during the writes.
    """

    arch = "max"

    def __init__(self, values: Sequence[int], width: int):
        super().__init__(values, width)
        self.values = list(values)

    # bound in this class body, so that wrapping MaxSortEngine.run (as the
    # benchmark's per-layer spans do) wraps this sorter and not the min sorter
    run = IterativeEngine.run

    @property
    def counter(self) -> int:
        """The shared down counter."""
        return (1 << self.width) - self.elapsed

    def _fire(self) -> tuple[int, ...]:
        counter, values = self.counter, self.values
        return tuple([i for i in self.in_play if max_bit(values[i], counter)])

    def _value(self) -> int:
        return self.counter  # frozen at the detection cycle


def sort_descending(
    values: Sequence[int], width: int
) -> tuple[list[int], CycleTrace]:
    """Sort by iteratively detecting the maximum; returns (outputs, trace)."""
    engine = MaxSortEngine(values, width)
    outputs = engine.run()
    return outputs, engine.trace
