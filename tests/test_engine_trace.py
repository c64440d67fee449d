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
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import Phase, TraceEvent


def expected_events(arch: str, values: list[int], width: int) -> list[TraceEvent]:
    """Value v is detected at elapsed v + 1 (min) or 2**m - v (max); each tie
    group in one SEARCH event, indices ascending; then one DRAIN per index."""
    if arch == "min":
        detect_at = [v + 1 for v in values]
    else:
        detect_at = [(1 << width) - v for v in values]
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
    # at most 2**m distinct values over N inputs: every group drains N / 2**m
    # writes on average, and m=1, N=256 drains groups of about 128
    rng = random.Random(41)
    for n in (16, 64, 256):
        for width in (1, 2, 3, 4):
            for _ in range(50):
                values = [rng.randrange(1 << width) for _ in range(n)]
                engine = engine_cls(values, width)
                engine.run()
                assert engine.trace.events == expected_events(
                    engine_cls.arch, values, width
                ), (engine_cls.arch, values, width)
