import dataclasses
import io

import pytest

from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import CSV_HEADER, CycleTrace, Phase, TraceEvent

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
    assert [e.cycle for e in trace.events] == [1, 2]


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
