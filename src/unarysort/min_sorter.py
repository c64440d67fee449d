"""Ascending-order comparison-free sorting engine.

A bank of :class:`~unarysort.generators.FsmGenerator` units plays out the
inputs as right-aligned unary streams in lockstep.  The smallest input is
the first stream to emit a 0.  The detected value is reconstructed from the
generation-cycle counter (the unit's remainder is already zero), so
detecting at generation cycle ``c`` retrieves ``c - 1``.  Detection, tie
draining and tracing are the shared
:class:`~unarysort.engine.IterativeEngine`.

While results drain to the output memory the generators stall, one write
per cycle; ties therefore cost one extra cycle each but never lose the
frozen cycle counter.  A full sort of N inputs takes ``max(values) + 1``
generation cycles plus N write cycles.
"""

from __future__ import annotations

from collections.abc import Sequence

from .engine import IterativeEngine
from .generators import FsmGenerator


class MinSortEngine(IterativeEngine):
    """Cycle-accurate model of the ascending-order sorter: an FSM generator
    bank in front of the shared two-phase controller."""

    arch = "min"

    def __init__(self, values: Sequence[int], width: int):
        super().__init__(values, width)
        self.units = [FsmGenerator(v, width) for v in values]  # each checks its word
        self._admit(max(values) + 1)  # the largest input is detected last
        self.in_play.sort(key=values.__getitem__)  # stable: ties ascend

    # bound in this class body, so that wrapping MinSortEngine.run (as the
    # benchmark's per-layer spans do) wraps this sorter and not the max sorter
    run = IterativeEngine.run

    def _fire(self, once: bool) -> tuple[int, ...]:
        units, in_play, elapsed, newly = self.units, self.in_play, self.elapsed, []
        while True:
            elapsed += 1
            for i in in_play:
                if not units[i].step():
                    newly.append(i)
            if newly or once:
                self.elapsed = elapsed
                return tuple(newly)

    def _value(self) -> int:
        # the detected unit emitted a 1 in each generation cycle before its first 0
        return self.elapsed - 1


sort_ascending = MinSortEngine.sort  # sorts by iteratively detecting the minimum
