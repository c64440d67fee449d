"""The FSM min sorter and the comparator max sorter differ only in their unary number
generator, so each behaviour they share is one test over ``bench.ENGINES`` (ids min/max)."""

import importlib
import operator
import pkgutil
import sys

import pytest

import unarysort
from unarysort.bench import ENGINES
from unarysort.max_sorter import max_bit
from unarysort.trace import Phase

ARCHS = pytest.mark.parametrize("arch", ENGINES)
S, D = Phase.SEARCH, Phase.DRAIN

# the worked example 4, 6, 4 at m=3: (cycle, phase, elapsed, detected, writes) per cycle
WORKED = {
    "min": [(1, S, 1, (), ()), (2, S, 2, (), ()), (3, S, 3, (), ()), (4, S, 4, (), ()),
            (5, S, 5, (0, 2), ()), (6, D, 5, (), ((0, 4),)), (7, D, 5, (), ((1, 4),)),
            (8, S, 6, (), ()), (9, S, 7, (1,), ()), (10, D, 7, (), ((2, 6),))],
    "max": [(1, S, 1, (), ()), (2, S, 2, (1,), ()), (3, D, 2, (), ((0, 6),)),
            (4, S, 3, (), ()), (5, S, 4, (0, 2), ()), (6, D, 4, (), ((1, 4),)),
            (7, D, 4, (), ((2, 4),))],
}


@pytest.mark.parametrize("values, orders", [([4, 6, 4], ([0, 2, 1], [1, 0, 2])),
                                            ([0, 0], ([0, 1], [0, 1]))], ids=["4-6-4", "zeros"])
def test_registers_at_construction(values, orders):
    engine = ENGINES["min"](values, 3)
    assert [u.remainder for u in engine.units] == values
    assert (engine.elapsed, engine.phase, engine.pending) == (0, S, 0)
    # in detection order: ascending value, ties by index; descending for max
    assert (engine.in_play, ENGINES["max"](values, 3).in_play) == orders


@ARCHS
def test_worked_example(arch):
    engine = ENGINES[arch]([4, 6, 4], 3)
    assert engine.run() == sorted([4, 6, 4], reverse=arch == "max")
    trace = engine.trace
    assert [(e.cycle, e.phase, e.elapsed, e.detected, e.writes)
            for e in trace.events] == WORKED[arch]
    assert trace.total_cycles() == len(WORKED[arch])
    assert trace.arch == arch
    assert all(row.startswith(f"{arch},") for row in trace.csv_rows()[1:])


@ARCHS
def test_incomplete_trace_is_refused(arch):
    engine = ENGINES[arch]([4, 6, 4], 3)
    engine.tick()
    with pytest.raises(ValueError, match="incomplete"):
        engine.trace.total_cycles()


@ARCHS
def test_tick_after_completion_is_refused(arch):
    # whether run() or a tick loop finished it, the engine refuses a
    # further tick and changes nothing
    for by_run in (True, False):
        engine = ENGINES[arch]([4, 6, 4], 3)
        if by_run:
            engine.run()
        while not engine.done:
            engine.tick()
        state = (list(engine.trace.records), list(engine.outputs), engine.cycle, engine.elapsed)
        with pytest.raises(ValueError, match="^every input has been written$"):
            engine.tick()
        assert (engine.trace.records, engine.outputs, engine.cycle, engine.elapsed) == state
        assert engine.trace.total_cycles() == len(WORKED[arch])


def test_detected_units_are_done():
    engine = ENGINES["min"]([5, 2, 2, 7], 3)
    while not engine.done:
        engine.tick()
        for i in set(range(engine.n)).difference(engine.in_play):
            assert engine.units[i].remainder == 0


@pytest.mark.parametrize("value, fires", [(6, [1] * 7 + [0]), (0, [1] + [0] * 7), (7, [1] * 8)],
                         ids=["fires_at_its_value", "zero_waits_for_zero", "top_fires_first"])
def test_max_bit(value, fires):
    # 1 iff the value is at least the shared down counter (here 0 to 7)
    assert [max_bit(value, counter) for counter in range(8)] == fires


def test_max_bit_is_the_builtin_compare():
    # a Python def would pay a frame per unit per search cycle
    assert max_bit is operator.ge
    # the benchmark's compare count replaces operator.ge under every package
    # name bound to it, so only max_sorter may bind it
    for info in pkgutil.iter_modules(unarysort.__path__, "unarysort."):
        importlib.import_module(info.name)
    bound = [(name, attr) for name, module in sorted(sys.modules.items())
             if name.startswith("unarysort.")
             for attr, obj in vars(module).items() if obj is operator.ge]
    assert bound == [("unarysort.max_sorter", "max_bit")]
