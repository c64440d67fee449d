"""Whole traces of both iterative sorters against a closed-form event list.

Every input vector with N in {2, 3, 4} and m in {1, 2, 3} is sorted by both
engines (10,072 runs), and each run's ``trace.events`` must equal the list
built here from the detection-time laws alone.  Seeded wide vectors with
few distinct values add tie groups of up to hundreds of inputs.
"""

import itertools
import random

import pytest

from unarysort import engine as engine_module
from unarysort import max_sorter
from unarysort.generators import FsmGenerator
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import Phase, TraceEvent


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
        events.append(TraceEvent(cycle, Phase.SEARCH, elapsed, group, ()))
        for i in group:
            cycle += 1
            events.append(
                TraceEvent(cycle, Phase.DRAIN, elapsed, (), ((address, values[i]),))
            )
            address += 1
    return events


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
    # read before every tick, up to two idle ticks past completion
    for values, width in SMALL_VECTORS:
        engine = engine_cls(values, width)
        idle = 0
        while idle < 2:
            phase = engine.phase
            idle += engine.done
            engine.tick()
            assert engine.trace.events[-1].phase is phase, (values, width)


@pytest.mark.parametrize("engine_cls, fits, too_long", [
    (MinSortEngine, [3, 0], [4, 0]),   # min detects v at cycle v + 1
    (MaxSortEngine, [0, 3], [0, 7]),   # max detects 0 at cycle 2**m
])
def test_search_budget(engine_cls, fits, too_long, monkeypatch):
    monkeypatch.setattr(engine_module, "SEARCH_BUDGET", 4)
    assert sorted(engine_cls(fits, 2).run()) == sorted(fits)
    engine = engine_cls(too_long, 3)
    with pytest.raises(ValueError, match="more than 4 generation cycles at width 3"):
        engine.run()
    assert engine.elapsed == 4 and engine.cycle == len(engine.trace.events)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_seeded_tie_heavy_vectors(engine_cls):
    for values, width in TIE_HEAVY_VECTORS:
        engine = engine_cls(values, width)
        engine.run()
        assert engine.trace.events == expected_events(
            engine_cls.arch, values, width
        ), (engine_cls.arch, values, width)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_each_unit_evaluated_until_its_detection(engine_cls, monkeypatch):
    # a unit is stepped (min) or compared (max) in every search cycle up to
    # and including the one that detects it, and never after
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    if engine_cls is MinSortEngine:
        monkeypatch.setattr(FsmGenerator, "step", counted(FsmGenerator.step))
    else:
        monkeypatch.setattr(max_sorter, "max_bit", counted(max_sorter.max_bit))
    for values, width in SMALL_VECTORS + TIE_HEAVY_VECTORS:
        calls[0] = 0
        engine_cls(values, width).run()
        assert calls[0] == sum(detection_cycles(engine_cls.arch, values, width)), (
            values, width)
