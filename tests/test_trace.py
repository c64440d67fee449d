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


def test_events_fills_the_quiet_cycles_once_in_place():
    engine = MinSortEngine([4, 6, 4], 3)
    engine.run()
    trace = engine.trace
    # the tie group of inputs 0 and 2 is one record standing for cycles 6 and 7
    assert [r.cycle for r in trace.records] == [5, 6, 9, 10]
    assert [len(r.writes) for r in trace.records] == [0, 2, 0, 1]
    assert [r.phase for r in trace.records] == [Phase.SEARCH, Phase.DRAIN,
                                                Phase.SEARCH, Phase.DRAIN]
    events = trace.events
    assert trace.events is events is trace.records
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


def test_a_gap_after_a_drain_continues_the_frozen_elapsed():
    # the min sorter's run on [4, 1] at m=3: the drain holds elapsed 2, and
    # the quiet cycles 4 and 5 after it are generation cycles 3 and 4
    trace = CycleTrace(arch="min", n_inputs=2)
    trace.append(TraceEvent(2, 2, (1,), ()))
    trace.append(TraceEvent(3, 2, (), ((0, 1),)))
    trace.append(TraceEvent(6, 5, (0,), ()))
    trace.append(TraceEvent(7, 5, (), ((1, 4),)))
    assert trace.total_cycles() == 7
    assert trace.csv_rows()[1:] == [
        "min,1,search,0,,", "min,2,search,1,1,", "min,3,drain,0,,0:1",
        "min,4,search,0,,", "min,5,search,0,,", "min,6,search,1,0,", "min,7,drain,0,,1:4"]
    assert [(e.cycle, e.phase, e.elapsed) for e in trace.events] == [
        (1, Phase.SEARCH, 1), (2, Phase.SEARCH, 2), (3, Phase.DRAIN, 2),
        (4, Phase.SEARCH, 3), (5, Phase.SEARCH, 4), (6, Phase.SEARCH, 5),
        (7, Phase.DRAIN, 5)]
    reference = MinSortEngine([4, 1], 3)
    while not reference.done:
        reference.tick()
    assert trace.events == reference.trace.events


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
    # the benchmark's wrong-cycles probe appends a record one cycle late; it
    # copies a drain record but writes nothing, so it reads as a search cycle
    last = trace.events[-1]
    late = dataclasses.replace(last, cycle=last.cycle + 1, writes=())
    assert (last.phase, late.phase) == (Phase.DRAIN, Phase.SEARCH)
    trace.append(late)
    assert trace.total_cycles() == cycles + 1
    assert trace.csv_rows()[-1] == f"{trace.arch},{late.cycle},search,0,,"


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


def test_writes_in_order():
    engine = MinSortEngine([2, 0, 1], 2)
    engine.run()
    assert engine.trace.writes() == [(0, 0), (1, 1), (2, 2)]
    assert engine.trace.total_cycles() == 6  # max + 1 generation cycles, then 3 writes
