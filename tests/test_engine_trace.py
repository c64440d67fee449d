"""Whole traces of both iterative sorters against a closed-form event list.

Every input vector with N in {2, 3, 4} and m in {1, 2, 3} is sorted by both
engines (10,072 runs), and each run's ``trace.events`` must equal the list
built here from the detection-time laws alone.
"""

import itertools

import pytest

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
        events.append(TraceEvent(cycle, Phase.SEARCH, elapsed, len(group), group, ()))
        for i in group:
            cycle += 1
            events.append(
                TraceEvent(cycle, Phase.DRAIN, elapsed, 0, (), ((address, values[i]),))
            )
            address += 1
    return events


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_every_small_vector(engine_cls):
    runs = 0
    for n in (2, 3, 4):
        for width in (1, 2, 3):
            for values in itertools.product(range(1 << width), repeat=n):
                engine = engine_cls(values, width)
                engine.run()
                assert engine.trace.events == expected_events(
                    engine_cls.arch, list(values), width
                ), (engine_cls.arch, values, width)
                runs += 1
    assert runs == 5036
