"""Trace records of the two-phase sorting engines: SEARCH cycles and DRAIN tie groups."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum


class Phase(Enum):
    SEARCH = "search"  # generators advance, detector scans for the next extreme
    DRAIN = "drain"    # generation stalls, one pending result written per cycle


@dataclass(slots=True)
class TraceEvent:
    """One record: a search cycle, or a tie group's run of drain cycles.

    What a record holds decides its phase and the cycles it stands for.  One
    that writes is DRAIN, detects nothing and stands for one drain cycle per
    write, from ``cycle`` on; one that writes nothing is one SEARCH cycle.
    Nothing mutates a record.  It is slotted because every logged search cycle
    and tie group builds one, and slots make it smaller and quicker to read;
    it is not frozen because a frozen dataclass sets each field through
    ``object.__setattr__`` and costs about four times as much to build."""

    cycle: int                          # global clock of its first cycle
    elapsed: int                        # generation cycles so far (frozen in DRAIN)
    detected: tuple[int, ...]           # indices of inputs newly detected this cycle
    writes: tuple[tuple[int, int], ...]  # (output address, value) pairs

    @property
    def phase(self) -> Phase:
        """DRAIN if the record writes, else SEARCH."""
        return Phase.DRAIN if self.writes else Phase.SEARCH

    @property
    def detected_count(self) -> int:
        """Popcount of the newly latched detection flip-flops."""
        return len(self.detected)

    @property
    def last_cycle(self) -> int:
        """The last cycle the record stands for: one per write, at least one."""
        return self.cycle + len(self.writes) - 1 if self.writes else self.cycle


CSV_HEADER = "arch,cycle,state,detected_count,detected_indices,writes"


@dataclass
class CycleTrace:
    """Ordered record log of one engine run, read by the one rule of
    :class:`TraceEvent`: what a record holds decides its phase and cycles.

    A gap between records (or before the first) is that many quiet search
    cycles, each one generation cycle past the cycle before it: between
    detections only the generation counter changes.  ``tick()`` logs every
    cycle, each write its own record; ``run()`` logs only the search cycles
    that detect, and each tie group as one record of all its writes.
    """

    arch: str
    n_inputs: int
    records: list[TraceEvent] = field(default_factory=list)

    def append(self, record: TraceEvent) -> None:
        if record.writes and record.detected:  # csv_rows() would drop the detection
            raise ValueError("a trace record may detect or write, not both")
        if self.records and record.cycle <= self.records[-1].last_cycle:
            raise ValueError("trace cycles must strictly increase")
        self.records.append(record)

    @property
    def events(self) -> list[TraceEvent]:
        """One event per cycle: a new list of the records with their gaps
        filled and their tie groups split into single writes, built on each
        read.  The records are left as they are."""
        events, cycle, elapsed = [], 0, 0
        for r in self.records:
            events += [TraceEvent(cycle + k, elapsed + k, (), ())
                       for k in range(1, r.cycle - cycle)]
            if len(r.writes) > 1:
                events += [TraceEvent(c, r.elapsed, (), (w,))
                           for c, w in enumerate(r.writes, r.cycle)]
            else:
                events.append(r)
            cycle, elapsed = r.last_cycle, r.elapsed
        return events

    def writes(self) -> list[tuple[int, int]]:
        """All (address, value) pairs in write order."""
        return [w for r in self.records for w in r.writes]

    def total_cycles(self) -> int:
        """Cycles the run took, generation plus output-write: the last record's."""
        if len(self.writes()) != self.n_inputs:
            raise ValueError("trace is incomplete: not all outputs were written")
        return self.records[-1].last_cycle

    def csv_rows(self) -> list[str]:
        arch, rows, cycle = self.arch, [CSV_HEADER], 0
        for r in self.records:
            rows += [f"{arch},{c},search,0,," for c in range(cycle + 1, r.cycle)]
            if r.writes:
                rows += [f"{arch},{c},drain,0,,{a}:{v}"
                         for c, (a, v) in enumerate(r.writes, r.cycle)]
            else:
                detected = ";".join(map(str, r.detected)) if r.detected else ""
                rows.append(f"{arch},{r.cycle},search,{len(r.detected)},{detected},")
            cycle = r.last_cycle
        return rows

    def to_csv(self, fileobj: io.TextIOBase) -> None:
        for row in self.csv_rows():
            fileobj.write(row + "\n")
