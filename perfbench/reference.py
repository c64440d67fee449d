"""Reference kernel: how fast the host is running, measured beside every timed op.

On a shared virtual machine the host's speed drifts.  On a 2-vCPU Intel
Xeon VM, the same op took up to 1.7 times longer for tens of seconds at a
time, because of other tenants.  Raw medians then differed by 15-25%
between runs of identical code.  So every host time the benchmark reports
is scaled to a reference speed:

    reported = measured * REF_S / k

Here ``k`` is the mean time of a fixed pure-Python kernel run right before
and right after the measured interval.  An op is timed step by step (one
sort, or one Batcher mode), with the kernel between steps, so that a change
of host speed in the middle of a long op skews only one step.  The kernel
does the same kind of work as the simulators: method calls, attribute
updates and small list and tuple allocations.  It never calls the package, so
no change to the program can move it.  ``REF_S`` is the kernel's time on that
VM when it was undisturbed (Python 3.11.7), so reported times read as
seconds on that host at full speed.  Scaling cut the run-to-run spread of the
median op time from 15-23% to 1-4%.  The raw figures are printed with every
result as well.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 250e-6


class _Unit:
    def __init__(self, value: int):
        self.remainder = value
        self.done = False

    def step(self) -> int:
        bit = 1 if self.remainder else 0
        self.remainder -= bit
        return bit


def kernel() -> float:
    """Seconds taken by one fixed pass of the reference kernel."""
    start = perf_counter()
    units = [_Unit(v) for v in range(0, 64, 2)]
    events = []
    for cycle in range(40):
        fresh = [0] * len(units)
        for i, unit in enumerate(units):
            if unit.step() == 0 and not unit.done:
                unit.done = True
                fresh[i] = 1
        events.append((cycle, tuple(i for i, b in enumerate(fresh) if b)))
    return perf_counter() - start


class Speed:
    """Scale factors for consecutive timed intervals, one kernel between each pair."""

    def __init__(self):
        self.before = kernel()

    def reset(self) -> None:
        """Re-measure after untimed work, such as a set-up probe."""
        self.before = kernel()

    def scale(self) -> float:
        """Factor for the interval that just ended; it also starts the next one."""
        after = kernel()
        factor = 2 * REF_S / (self.before + after)
        self.before = after
        return factor
