"""Whole traces of both iterative sorters against a closed-form event list.

Every input vector with N in {2, 3, 4} and m in {1, 2, 3} is sorted by both
engines (10,072 runs), and each run's ``trace.events`` must equal the list
built here from the detection-time laws alone.  Seeded wide vectors with
few distinct values add tie groups of up to hundreds of inputs.

``run()`` is also compared with a loop of ``tick()``, the reference model,
on the same vectors: it may differ only in leaving quiet search cycles
unlogged, as gaps between the cycles it logs, and in logging each tie
group's writes as one record.  A ``run()`` that takes over
after any number of ticks must end where the tick loop ends.  Whichever
way it ran, each record's cycle must follow from the records alone: its
generation cycle plus the writes logged before it.  Each tick
logs one record, in the phase (SEARCH or DRAIN) the engine reported before
it; the loop stops at ``done``, because a tick after the last write is
refused.
"""

import itertools
import random

import pytest

from unarysort import bench
from unarysort import engine as engine_module
from unarysort import max_sorter
from unarysort.generators import FsmGenerator
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import TraceEvent


def detection_cycles(arch: str, values: list[int], width: int) -> list[int]:
    """Value v is detected at elapsed v + 1 (min) or 2**m - v (max)."""
    if arch == "min":
        return [v + 1 for v in values]
    return [(1 << width) - v for v in values]


def expected_events(arch: str, values: list[int], width: int) -> list[TraceEvent]:
    """Each tie group in one SEARCH event at its detection cycle, indices
    ascending; then one DRAIN per index."""
    detect_at = detection_cycles(arch, values, width)
    events, cycle, address = [], 0, 0
    for elapsed in range(1, max(detect_at) + 1):
        group = tuple(i for i, t in enumerate(detect_at) if t == elapsed)
        cycle += 1
        events.append(TraceEvent(cycle, elapsed, group, ()))
        for i in group:
            cycle += 1
            events.append(TraceEvent(cycle, elapsed, (), ((address, values[i]),)))
            address += 1
    return events


def counted(fn, calls: list[int]):
    """``fn``, adding one to ``calls[0]`` on each call."""
    def wrapper(*args):
        calls[0] += 1
        return fn(*args)
    return wrapper


SMALL_VECTORS = [
    (values, width)
    for n in (2, 3, 4)
    for width in (1, 2, 3)
    for values in itertools.product(range(1 << width), repeat=n)
]

# at most 2**m distinct values over N inputs: every group drains N / 2**m
# writes on average, and m=1, N=256 drains groups of about 128
_rng = random.Random(41)
TIE_HEAVY_VECTORS = [
    ([_rng.randrange(1 << width) for _ in range(n)], width)
    for n in (16, 64, 256)
    for width in (1, 2, 3, 4)
    for _ in range(50)
]


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_every_small_vector(engine_cls):
    runs = 0
    for values, width in SMALL_VECTORS:
        engine = engine_cls(values, width)
        engine.run()
        assert engine.trace.events == expected_events(
            engine_cls.arch, list(values), width
        ), (engine_cls.arch, values, width)
        runs += 1
    assert runs == 5036


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_phase_is_the_phase_the_next_tick_logs(engine_cls):
    # read before every tick; each tick logs one record, in that phase
    for values, width in SMALL_VECTORS:
        engine = engine_cls(values, width)
        while not engine.done:
            phase = engine.phase
            engine.tick()
            records = engine.trace.records
            assert len(records) == engine.cycle, (values, width)
            assert records[-1].phase is phase, (values, width)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_seeded_tie_heavy_vectors(engine_cls):
    for values, width in TIE_HEAVY_VECTORS:
        engine = engine_cls(values, width)
        engine.run()
        assert engine.trace.events == expected_events(
            engine_cls.arch, values, width
        ), (engine_cls.arch, values, width)


def fail_empty_search(engine_cls, monkeypatch):
    """Make a search begun with no unit in play, which would never end, fail."""
    fire = engine_cls._fire

    def bounded(self, once):
        assert self.in_play, "search begun with no unit in play"
        return fire(self, once)

    monkeypatch.setattr(engine_cls, "_fire", bounded)


def ticked(engine_cls, values, width, ticks=None):
    """The reference run: one ``tick()`` per clock until every input is
    written, or ``ticks`` of them."""
    engine = engine_cls(values, width)
    while not engine.done and (ticks is None or engine.cycle < ticks):
        engine.tick()
    return engine


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_each_unit_evaluated_until_its_detection(engine_cls, monkeypatch):
    # a unit is stepped (min) or compared (max) in every search cycle up to
    # and including the one that detects it, and never after: by run(), by
    # the tick loop, and by a run() that resumes half way through the ticks
    calls = [0]
    if engine_cls is MinSortEngine:
        monkeypatch.setattr(FsmGenerator, "step", counted(FsmGenerator.step, calls))
    else:
        monkeypatch.setattr(max_sorter, "max_bit", counted(max_sorter.max_bit, calls))
    fail_empty_search(engine_cls, monkeypatch)
    for values, width in SMALL_VECTORS + TIE_HEAVY_VECTORS:
        expected = sum(detection_cycles(engine_cls.arch, values, width))
        calls[0] = 0
        engine_cls(values, width).run()
        assert calls[0] == expected, ("run", values, width)
        calls[0] = 0
        cycles = ticked(engine_cls, values, width).cycle
        assert calls[0] == expected, ("ticks", values, width)
        calls[0] = 0
        ticked(engine_cls, values, width, ticks=cycles // 2).run()
        assert calls[0] == expected, ("resumed", values, width)


def assert_clock_rule(engine, context):
    """Each record's cycle follows from the records alone: a SEARCH record's
    is its generation cycle plus the writes logged before it, and a DRAIN
    record's is its generation cycle plus its first address, plus one; the
    engine's clock ends on the trace's last cycle."""
    written = 0
    for r in engine.trace.records:
        if r.writes:
            assert r.cycle == r.elapsed + r.writes[0][0] + 1, (context, r)
            written += len(r.writes)
        else:
            assert r.cycle == r.elapsed + written, (context, r)
    assert engine.done and engine.cycle == engine.trace.total_cycles(), context


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_each_record_is_logged_at_elapsed_plus_writes_before_it(engine_cls):
    # by run(), by the tick loop, and by a run() resumed half way through the ticks
    for values, width in SMALL_VECTORS + TIE_HEAVY_VECTORS:
        engine = engine_cls(values, width)
        engine.run()
        assert_clock_rule(engine, ("run", values, width))
        reference = ticked(engine_cls, values, width)
        assert_clock_rule(reference, ("ticks", values, width))
        engine = ticked(engine_cls, values, width, ticks=reference.cycle // 2)
        engine.run()
        assert_clock_rule(engine, ("resumed", values, width))


def interleaved_group(size: int) -> tuple[list[int], int]:
    """``size`` units of value 2 at width 2, each after a unit of 0, 1 or 3 in turn."""
    return [v for k in range(size) for v in ((0, 1, 3)[k % 3], 2)], 2


# interleaved groups; a group at the front, at the back, and one that empties
# in_play; the widest group deleted unit by unit and the narrowest filtered
# out in one pass; one unit per group, in shuffled order
IN_PLAY_CASES = [([3, 0, 3, 1, 3, 0], 2), ([0, 0, 5, 6, 7], 3), ([5, 6, 7, 1, 1], 3),
                 ([2, 2, 2, 2], 2),
                 interleaved_group(engine_module.WIDE_GROUP),
                 interleaved_group(engine_module.WIDE_GROUP + 1),
                 (random.Random(64).sample(range(64), 64), 6)]


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_in_play_is_the_undetected_units_ascending(engine_cls):
    # after every tick, and after a run() from the start
    for values, width in IN_PLAY_CASES + TIE_HEAVY_VECTORS:
        engine = engine_cls(values, width)
        while not engine.done:
            engine.tick()
            detected = {i for r in engine.trace.records for i in r.detected}
            assert engine.in_play == [i for i in range(engine.n) if i not in detected], (
                "tick", values, width, engine.cycle)
        engine = engine_cls(values, width)
        engine.run()
        assert engine.in_play == [], ("run", values, width)


def assert_run_matches_ticks(engine_cls, values, width):
    engine = engine_cls(values, width)
    outputs = engine.run()
    reference = ticked(engine_cls, values, width)
    records = engine.trace.records
    # every quiet search cycle is a gap between records
    assert all(r.detected or r.writes for r in records)
    # read off the records before events fills the gaps
    assert engine.trace.csv_rows() == reference.trace.csv_rows()
    assert engine.trace.total_cycles() == reference.trace.total_cycles()
    assert bench.detection_cycles(engine.trace) == bench.detection_cycles(reference.trace)
    assert outputs == reference.outputs
    assert engine.trace.events == reference.trace.events


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_run_logs_what_ticks_log(engine_cls):
    for values, width in SMALL_VECTORS + TIE_HEAVY_VECTORS:
        assert_run_matches_ticks(engine_cls, values, width)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_run_resumes_where_ticks_stopped(engine_cls, monkeypatch):
    # run() after any number of ticks finishes what they began, a tie group
    # left mid-drain first
    fail_empty_search(engine_cls, monkeypatch)
    vectors = [(v, w) for v, w in SMALL_VECTORS if len(v) <= 3] + TIE_HEAVY_VECTORS[::50]
    for values, width in vectors:
        reference = ticked(engine_cls, values, width)
        for k in range(reference.cycle + 1):
            engine = ticked(engine_cls, values, width, ticks=k)
            assert engine.run() == reference.outputs, (values, width, k)
            assert engine.trace.csv_rows() == reference.trace.csv_rows(), (values, width, k)
            assert engine.trace.events == reference.trace.events, (values, width, k)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine],
                         ids=["min", "max"])
def test_refused_exactly_when_search_exceeds_budget(engine_cls, monkeypatch):
    # the search length is known from the inputs, so an input is refused at
    # construction, before any unit is evaluated, and an admitted one finishes
    monkeypatch.setattr(engine_module, "SEARCH_BUDGET", 4)
    calls = [0]
    monkeypatch.setattr(FsmGenerator, "step", counted(FsmGenerator.step, calls))
    monkeypatch.setattr(max_sorter, "max_bit", counted(max_sorter.max_bit, calls))
    refused = 0
    for values, width in SMALL_VECTORS:
        calls[0] = 0
        if max(detection_cycles(engine_cls.arch, list(values), width)) > 4:
            with pytest.raises(ValueError, match=(
                    f"^search needs more than 4 generation cycles at width {width}; "
                    "widths up to 16 fit$")):
                engine_cls(values, width)
            assert calls[0] == 0, values
            refused += 1
        else:
            assert engine_cls(values, width).run() == sorted(
                values, reverse=engine_cls.arch == "max"), values
    assert refused == 4336  # the m=3 vectors holding a value detected after cycle 4
