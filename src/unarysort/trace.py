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
    length = 1                          # cycles logged, as a QuietSpan logs several

    @property
    def detected_count(self) -> int:
        """Popcount of the newly latched detection flip-flops."""
        return len(self.detected)


@dataclass
class QuietSpan:
    """``length`` search cycles that detect nothing, from ``cycle`` and ``elapsed`` on."""

    cycle: int
    elapsed: int
    length: int
    phase, detected, writes = Phase.SEARCH, (), ()  # as in each of its events

    def expand(self) -> list[TraceEvent]:
        return [TraceEvent(self.cycle + k, Phase.SEARCH, self.elapsed + k, (), ())
                for k in range(self.length)]


CSV_HEADER = "arch,cycle,state,detected_count,detected_indices,writes"


@dataclass
class CycleTrace:
    """Ordered record log of one engine run."""

    arch: str
    n_inputs: int
    records: list[TraceEvent | QuietSpan] = field(default_factory=list)

    def append(self, record: TraceEvent | QuietSpan) -> None:
        if self.records and record.cycle < self.records[-1].cycle + self.records[-1].length:
            raise ValueError("trace cycles must strictly increase")
        self.records.append(record)

    @property
    def events(self) -> list[TraceEvent]:
        """One event per cycle: the records, their spans expanded in place by the first read."""
        if any(type(r) is QuietSpan for r in self.records):
            self.records[:] = [e for r in self.records
                               for e in (r.expand() if type(r) is QuietSpan else (r,))]
        return self.records

    def writes(self) -> list[tuple[int, int]]:
        """All (address, value) pairs in write order."""
        return [w for r in self.records for w in r.writes]

    @property
    def complete(self) -> bool:
        return len(self.writes()) == self.n_inputs

    def total_cycles(self) -> int:
        """Cycles consumed by the run: generation plus output-write cycles.

        Idle ticks recorded after completion are not counted.
        """
        if not self.complete:
            raise ValueError("trace is incomplete: not all outputs were written")
        return sum(r.length for r in self.records if r.phase is not Phase.IDLE)

    def csv_rows(self) -> list[str]:
        arch, rows = self.arch, [CSV_HEADER]
        for r in self.records:
            if type(r) is QuietSpan:
                rows += [f"{arch},{c},search,0,," for c in range(r.cycle, r.cycle + r.length)]
                continue
            detected = ";".join(map(str, r.detected)) if r.detected else ""
            writes = ";".join(f"{a}:{v}" for a, v in r.writes) if r.writes else ""
            rows.append(f"{arch},{r.cycle},{r.phase.value},{len(r.detected)},"
                        f"{detected},{writes}")
        return rows

    def to_csv(self, fileobj: io.TextIOBase) -> None:
        for row in self.csv_rows():
            fileobj.write(row + "\n")
