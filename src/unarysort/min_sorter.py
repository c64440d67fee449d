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
from .trace import CycleTrace


def retrieve_value(elapsed_cycle: int, width: int) -> int:
    """Reconstruct a detected value from the generation-cycle count.

    The detected unit's register holds 0, so the value is the number of
    ones it emitted: ``elapsed_cycle - 1``.
    """
    if elapsed_cycle < 1:
        raise ValueError("detection cannot happen before the first cycle")
    value = elapsed_cycle - 1
    if value >= (1 << width):
        raise RuntimeError(
            f"retrieved value {value} exceeds {width}-bit range; simulation bug"
        )
    return value


class MinSortEngine(IterativeEngine):
    """Cycle-accurate model of the ascending-order sorter: an FSM generator
    bank in front of the shared two-phase controller."""

    arch = "min"

    def __init__(self, values: Sequence[int], width: int):
        super().__init__(values, width)
        self.units = [FsmGenerator(v, width) for v in values]

    # bound in this class body, so that wrapping MinSortEngine.run (as the
    # benchmark's per-layer spans do) wraps this sorter and not the max sorter
    run = IterativeEngine.run

    def _fire(self) -> tuple[int, ...]:
        units = self.units
        return tuple([i for i in self.in_play if not units[i].step()])

    def _value(self) -> int:
        return retrieve_value(self.elapsed, self.width)


def sort_ascending(
    values: Sequence[int], width: int
) -> tuple[list[int], CycleTrace]:
    """Sort by iteratively detecting the minimum; returns (outputs, trace)."""
    engine = MinSortEngine(values, width)
    outputs = engine.run()
    return outputs, engine.trace
