import dataclasses
import io

import pytest

from unarysort.bench import detection_cycles
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import CSV_HEADER, CycleTrace, Phase, TraceEvent


def test_cycles_strictly_increase():
    trace = CycleTrace(arch="min", n_inputs=2)
    trace.append(TraceEvent(1, 1, (), ()))
    with pytest.raises(ValueError):
        trace.append(TraceEvent(1, 1, (), ()))
    trace.append(TraceEvent(2, 2, (), ()))
    trace.append(TraceEvent(6, 6, (0,), ()))  # cycles 3, 4 and 5 are quiet
    for cycle in (2, 6):  # at or before the last logged cycle
        with pytest.raises(ValueError):
            trace.append(TraceEvent(cycle, 6, (), ((0, 5),)))
    assert [e.cycle for e in trace.events] == [1, 2, 3, 4, 5, 6]
    assert [e.elapsed for e in trace.events] == [1, 2, 3, 4, 5, 6]


def test_events_is_built_on_each_read_and_leaves_the_records_alone():
    engine = MinSortEngine([4, 6, 4], 3)
    engine.run()
    trace = engine.trace
    records = trace.records
    # the tie group of inputs 0 and 2 is one record standing for cycles 6 and 7
    assert [r.cycle for r in records] == [5, 6, 9, 10]
    assert [len(r.writes) for r in records] == [0, 2, 0, 1]
    assert [r.phase for r in records] == [Phase.SEARCH, Phase.DRAIN,
                                          Phase.SEARCH, Phase.DRAIN]
    kept = list(records)
    events = trace.events
    assert trace.records is records and len(records) == 4
    assert all(r is k for r, k in zip(records, kept))
    assert trace.events == events and trace.events is not events
    assert [e.cycle for e in events] == list(range(1, 11))
    assert all(len(e.writes) <= 1 for e in events)
    assert [e.writes for e in events[5:7]] == [((0, 4),), ((1, 4),)]


def test_a_record_that_detects_and_writes_is_refused():
    # no engine builds one, and csv_rows() would drop its detection
    trace = CycleTrace(arch="min", n_inputs=1)
    with pytest.raises(ValueError, match="^a trace record may detect or write, not both$"):
        trace.append(TraceEvent(2, 2, (0,), ((0, 1),)))
    assert trace.records == []


def test_a_record_inside_the_previous_tie_group_is_refused():
    trace = CycleTrace(arch="min", n_inputs=3)
    trace.append(TraceEvent(5, 5, (0, 2), ()))
    trace.append(TraceEvent(6, 5, (), ((0, 4), (1, 4))))  # cycles 6 and 7
    with pytest.raises(ValueError):
        trace.append(TraceEvent(7, 6, (), ()))
    trace.append(TraceEvent(8, 6, (1,), ()))
    assert [e.cycle for e in trace.events] == list(range(1, 9))


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_an_edit_to_records_is_seen_by_every_reader(engine_cls):
    # every reader walks the records, so none keeps a copy an edit misses
    engine = engine_cls([4, 6, 4], 3)
    outputs = engine.run()
    trace = engine.trace
    cycles = trace.total_cycles()
    k, r = next((k, r) for k, r in enumerate(trace.records) if r.writes)
    trace.records[k] = dataclasses.replace(r, elapsed=99, writes=((0, 5),) + r.writes[1:])
    assert trace.writes() == [(0, 5), *enumerate(outputs[1:], start=1)]  # in rank order
    assert detection_cycles(trace)[0] == 99
    assert trace.csv_rows()[r.cycle].endswith(",0:5")  # row 0 is the header
    assert trace.events[r.cycle - 1].writes == ((0, 5),)
    assert trace.total_cycles() == cycles
    # a record appended one cycle late; it copies a drain record but writes
    # nothing, so it reads as one more search cycle
    last = trace.records[-1]
    late = dataclasses.replace(last, cycle=last.last_cycle + 1, writes=())
    assert (last.phase, late.phase) == (Phase.DRAIN, Phase.SEARCH)
    trace.append(late)
    assert trace.total_cycles() == cycles + 1
    assert trace.csv_rows()[-1] == f"{trace.arch},{late.cycle},search,0,,"
    assert trace.events[-1] is late and len(trace.events) == cycles + 1


def test_detected_count_is_the_popcount_of_detected():
    event = TraceEvent(5, 5, (0, 2), ())
    assert len(dataclasses.fields(event)) == 4
    assert event.detected_count == 2
    assert dataclasses.replace(event, detected=(1,)).detected_count == 1
    with pytest.raises(AttributeError):
        event.detected_count = 3
    # the phase is read off the writes, never stored
    assert event.phase is Phase.SEARCH
    assert TraceEvent(6, 5, (), ((0, 4), (1, 4))).phase is Phase.DRAIN
    with pytest.raises(AttributeError):
        event.phase = Phase.DRAIN


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
