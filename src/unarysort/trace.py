"""Per-cycle event logging shared by the sorting engines."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum


class Phase(Enum):
    SEARCH = "search"  # generators advance, detector scans for the next extreme
    DRAIN = "drain"    # generation stalls, one pending result written per cycle
    IDLE = "idle"      # tick arrived after completion; logged, nothing happens


@dataclass
class TraceEvent:
    """One tick's record.  Nothing mutates it; it is not frozen because every
    tick builds one, and a frozen dataclass costs twice as much to build."""

    cycle: int                          # global clock, one per tick (idle ones too)
    phase: Phase
    elapsed: int                        # generation cycles so far (frozen in DRAIN)
    detected: tuple[int, ...]           # indices of inputs newly detected this cycle
    writes: tuple[tuple[int, int], ...]  # (output address, value) pairs

    @property
    def detected_count(self) -> int:
        """Popcount of the newly latched detection flip-flops."""
        return len(self.detected)


CSV_HEADER = "arch,cycle,state,detected_count,detected_indices,writes"


@dataclass
class CycleTrace:
    """Ordered event log of one engine run."""

    arch: str
    n_inputs: int
    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        if self.events and event.cycle <= self.events[-1].cycle:
            raise ValueError("trace cycles must strictly increase")
        self.events.append(event)

    def writes(self) -> list[tuple[int, int]]:
        """All (address, value) pairs in write order."""
        return [w for e in self.events for w in e.writes]

    @property
    def complete(self) -> bool:
        return len(self.writes()) == self.n_inputs

    def total_cycles(self) -> int:
        """Cycles consumed by the run: generation plus output-write cycles.

        Idle ticks recorded after completion are not counted.
        """
        if not self.complete:
            raise ValueError("trace is incomplete: not all outputs were written")
        return sum(1 for e in self.events if e.phase is not Phase.IDLE)

    def csv_rows(self) -> list[str]:
        arch, rows = self.arch, [CSV_HEADER]
        for e in self.events:
            # most rows are quiet search cycles, with neither field to join
            detected = ";".join(map(str, e.detected)) if e.detected else ""
            writes = ";".join(f"{a}:{v}" for a, v in e.writes) if e.writes else ""
            rows.append(f"{arch},{e.cycle},{e.phase.value},{len(e.detected)},"
                        f"{detected},{writes}")
        return rows

    def to_csv(self, fileobj: io.TextIOBase) -> None:
        for row in self.csv_rows():
            fileobj.write(row + "\n")
