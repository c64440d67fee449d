import dataclasses
import io

import pytest

from unarysort.min_sorter import MinSortEngine
from unarysort.trace import CSV_HEADER, CycleTrace, Phase, TraceEvent


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
