import dataclasses
import io

import pytest

from unarysort.bench import detection_cycles
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import CSV_HEADER, CycleTrace, Phase, QuietSpan, TraceEvent

from test_engine_trace import SMALL_VECTORS, TIE_HEAVY_VECTORS


def reference_csv_rows(trace: CycleTrace) -> list[str]:
    """The trace CSV as first written: every field joined on every row."""
    rows = [CSV_HEADER]
    for e in trace.events:
        detected = ";".join(str(i) for i in e.detected)
        writes = ";".join(f"{addr}:{value}" for addr, value in e.writes)
        rows.append(
            f"{trace.arch},{e.cycle},{e.phase.value},{e.detected_count},"
            f"{detected},{writes}"
        )
    return rows


def test_cycles_strictly_increase():
    trace = CycleTrace(arch="min", n_inputs=2)
    trace.append(TraceEvent(1, Phase.SEARCH, 1, (), ()))
    with pytest.raises(ValueError):
        trace.append(TraceEvent(1, Phase.SEARCH, 1, (), ()))
    trace.append(TraceEvent(2, Phase.SEARCH, 2, (), ()))
    trace.append(QuietSpan(3, 3, 3))  # cycles 3, 4 and 5
    for cycle in (3, 5):  # at or before the span's end
        with pytest.raises(ValueError):
            trace.append(TraceEvent(cycle, Phase.SEARCH, cycle, (0,), ()))
        with pytest.raises(ValueError):
            trace.append(QuietSpan(cycle, cycle, 1))
    trace.append(TraceEvent(6, Phase.SEARCH, 6, (0,), ()))
    assert [e.cycle for e in trace.events] == [1, 2, 3, 4, 5, 6]
    assert [e.elapsed for e in trace.events] == [1, 2, 3, 4, 5, 6]


def test_events_expands_the_spans_once_in_place():
    engine = MinSortEngine([4, 6, 4], 3)
    engine.run()
    trace = engine.trace
    assert [type(r) for r in trace.records[:3]] == [QuietSpan, TraceEvent, TraceEvent]
    events = trace.events
    assert trace.events is events is trace.records
    assert all(isinstance(e, TraceEvent) for e in events) and len(events) == 10


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_an_edit_to_events_is_seen_by_every_reader(engine_cls):
    # the benchmark's wrong-output probe edits a run's events in place and
    # relies on the gate seeing the edit
    engine = engine_cls([4, 6, 4], 3)
    engine.run()
    trace = engine.trace
    cycles = trace.total_cycles()
    k = next(i for i, e in enumerate(trace.events) if e.writes)
    trace.events[k] = dataclasses.replace(trace.events[k], elapsed=99, writes=((0, 5),))
    assert trace.writes()[0] == (0, 5)
    assert detection_cycles(trace)[0] == 99
    assert trace.csv_rows()[k + 1].endswith(",0:5")
    trace.events[-1] = dataclasses.replace(trace.events[-1], phase=Phase.IDLE)
    assert trace.total_cycles() == cycles - 1


def test_detected_count_is_the_popcount_of_detected():
    event = TraceEvent(5, Phase.SEARCH, 5, (0, 2), ())
    assert len(dataclasses.fields(event)) == 5
    assert event.detected_count == 2
    assert dataclasses.replace(event, detected=(1,)).detected_count == 1
    with pytest.raises(AttributeError):
        event.detected_count = 3


def test_csv_schema():
    engine = MinSortEngine([4, 6, 4], 3)
    engine.run()
    rows = engine.trace.csv_rows()
    assert rows[0] == CSV_HEADER
    assert rows[5] == "min,5,search,2,0;2,"
    assert rows[6] == "min,6,drain,0,,0:4"
    buf = io.StringIO()
    engine.trace.to_csv(buf)
    assert buf.getvalue().splitlines() == rows


def test_writes_in_order():
    engine = MinSortEngine([2, 0, 1], 2)
    engine.run()
    assert engine.trace.writes() == [(0, 0), (1, 1), (2, 2)]
    assert engine.trace.complete


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_csv_equals_reference(engine_cls):
    for values, width in SMALL_VECTORS + TIE_HEAVY_VECTORS:
        engine = engine_cls(values, width)
        engine.run()
        assert engine.trace.csv_rows() == reference_csv_rows(engine.trace), (values, width)
    engine = engine_cls([4, 6, 4], 3)
    engine.run()
    for _ in range(3):  # idle ticks after completion
        engine.tick()
    assert engine.trace.events[-1].phase is Phase.IDLE
    assert engine.trace.csv_rows() == reference_csv_rows(engine.trace)
