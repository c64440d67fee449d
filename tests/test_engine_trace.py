"""The two checks every iterative sorter run goes through.

:func:`check_run` compares one ``run()`` with the closed form, record by
record: the min sorter detects value v in generation cycle v + 1 and the max
sorter in 2**m - v, so ``run()`` logs, for each distinct detection cycle t
in ascending order, one SEARCH record of the tied indices (ascending) at t
plus the writes before it, then one DRAIN record of the group's writes.  It
costs O(N log N), so it runs at any width the search budget admits.

:func:`check_against_ticks` ticks a vector once through ``tick()``, the
reference model, checking every tick, then requires ``run()`` from cycle 0,
from half way and, where asked, from every tick count to end where the ticks
end.  ``run()`` may differ only in leaving quiet search cycles unlogged, as
gaps, and in logging each tie group's writes as one record.  Here both run
on every vector with N in {2, 3, 4} and m in {1, 2, 3} and on seeded wide
vectors with few distinct values.  ``test_sorters.py`` runs
:func:`check_run` on each engine over seeded draws of up to eight inputs, and
``test_mutants.py`` and ``test_properties.py`` call both checks on their own.
:class:`InterleavedReads` clocks and reads an engine in any order and
requires the tick-only result.
"""

import contextlib
import itertools
import random

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from unarysort import bench
from unarysort import engine as engine_module
from unarysort import max_sorter
from unarysort.generators import FsmGenerator
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine
from unarysort.trace import Phase, TraceEvent


def detection_cycles(arch: str, values, width: int) -> list[int]:
    """Value v is detected at elapsed v + 1 (min) or 2**m - v (max)."""
    if arch == "min":
        return [v + 1 for v in values]
    return [(1 << width) - v for v in values]


def expected_records(values, detect_at: list[int]) -> list[TraceEvent]:
    """The records ``run()`` logs, built from the detection cycles alone."""
    groups: dict[int, list[int]] = {}
    for i in sorted(range(len(values)), key=detect_at.__getitem__):  # stable: ties ascend
        groups.setdefault(detect_at[i], []).append(i)
    records, written = [], 0
    for t, group in groups.items():
        records.append(TraceEvent(t + written, t, tuple(group), ()))
        records.append(TraceEvent(t + written + 1, t, (), tuple(
            (written + k, values[i]) for k, i in enumerate(group))))
        written += len(group)
    return records


def check_run(engine_cls, values, width: int):
    """One ``run()`` against the closed form; returns the finished engine."""
    arch, context = engine_cls.arch, (engine_cls.arch, values, width)
    detect_at = detection_cycles(arch, values, width)
    engine = engine_cls(values, width)
    outputs = engine.run()
    trace = engine.trace
    assert trace.records == expected_records(values, detect_at), context
    assert outputs == engine.outputs == sorted(values, reverse=arch == "max"), context
    assert engine.in_play == [], context
    assert trace.total_cycles() == max(detect_at) + len(values), context
    # both sorters write their outputs in detection order
    assert bench.detection_cycles(trace) == sorted(detect_at), context
    return engine


@contextlib.contextmanager
def counting(engine_cls):
    """Count unit evaluations, ``FsmGenerator.step`` and ``max_bit`` calls,
    in the one-item list it yields, and fail a search begun with no unit in
    play, which would never end.  Not a fixture: hypothesis refuses
    function-scoped ones."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    step, bit, fire = FsmGenerator.step, max_sorter.max_bit, engine_cls._fire

    def bounded(self, once):
        assert self.in_play, "search begun with no unit in play"
        return fire(self, once)

    # set by hand: mock.patch costs more than a small vector's run
    FsmGenerator.step, max_sorter.max_bit, engine_cls._fire = counted(step), counted(bit), bounded
    try:
        yield calls
    finally:
        FsmGenerator.step, max_sorter.max_bit, engine_cls._fire = step, bit, fire


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


def check_against_ticks(engine_cls, values, width: int, resume_every: bool = False) -> None:
    """Tick ``values`` once, checking each tick; then ``run()`` from cycle 0
    (through :func:`check_run`), from half way through the ticks and, if
    ``resume_every``, after every number of ticks: each ends where the ticks end."""
    context = (engine_cls.arch, values, width)
    detect_at = detection_cycles(engine_cls.arch, values, width)
    evaluations = sum(detect_at)  # each unit once per search cycle up to its detection
    with counting(engine_cls) as calls:
        reference = engine_cls(values, width)
        # in_play is kept in detection order, ties by index
        undetected = sorted(range(len(values)), key=detect_at.__getitem__)
        evaluated, generation = 0, 0
        while not reference.done:
            phase = reference.phase
            reference.tick()
            records = reference.trace.records
            assert records[-1].phase is phase, (*context, reference.cycle)
            assert len(records) == reference.cycle, (*context, reference.cycle)
            if phase is Phase.SEARCH:  # each undetected unit evaluated once
                evaluated += len(undetected)
                generation += 1
                undetected = [i for i in undetected if detect_at[i] > generation]
            assert reference.in_play == undetected, (*context, reference.cycle)
            assert calls[0] == evaluated, (*context, reference.cycle)
        assert calls[0] == evaluations, context
        assert_clock_rule(reference, ("ticks", *context))
        trace = reference.trace
        rows, detections, events = trace.csv_rows(), bench.detection_cycles(trace), trace.events
        cycles = reference.cycle
        for ticks in range(cycles + 1) if resume_every else (0, cycles // 2):
            calls[0] = 0
            if ticks:
                engine = engine_cls(values, width)
                for _ in range(ticks):
                    engine.tick()
                outputs = engine.run()
            else:
                engine = check_run(engine_cls, values, width)
                outputs = engine.outputs
            run_context = ("run", *context, ticks)
            trace = engine.trace
            # a short trace fails here before total_cycles() refuses it; events
            # is a new list built from the records on each read and edits nothing
            assert outputs == reference.outputs, run_context
            assert trace.csv_rows() == rows, run_context
            assert trace.total_cycles() == cycles, run_context
            assert bench.detection_cycles(trace) == detections, run_context
            assert calls[0] == evaluations, run_context
            assert_clock_rule(engine, run_context)
            assert trace.events == events, run_context


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


# on the vectors that resume after every number of ticks, run() finishes
# what the ticks began, a tie group left mid-drain first
@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_every_small_vector(engine_cls):
    assert len(SMALL_VECTORS) == 5036
    for values, width in SMALL_VECTORS:
        check_against_ticks(engine_cls, values, width, resume_every=len(values) <= 3)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_seeded_tie_heavy_vectors(engine_cls):
    for k, (values, width) in enumerate(TIE_HEAVY_VECTORS):
        check_against_ticks(engine_cls, values, width, resume_every=k % 50 == 0)


def interleaved_group(size: int) -> tuple[list[int], int]:
    """``size`` units of value 2 at width 2, each after a unit of 0, 1 or 3 in turn."""
    return [v for k in range(size) for v in ((0, 1, 3)[k % 3], 2)], 2


# interleaved groups; a group at the front, at the back, and one that empties
# in_play; two wide groups, interleaved with other values; one unit per
# group, in shuffled order
IN_PLAY_CASES = [([3, 0, 3, 1, 3, 0], 2), ([0, 0, 5, 6, 7], 3), ([5, 6, 7, 1, 1], 3),
                 ([2, 2, 2, 2], 2), interleaved_group(64), interleaved_group(65),
                 (random.Random(64).sample(range(64), 64), 6)]


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine])
def test_in_play_is_the_undetected_units_in_detection_order(engine_cls):
    for values, width in IN_PLAY_CASES:
        check_against_ticks(engine_cls, values, width)


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine],
                         ids=["min", "max"])
@pytest.mark.parametrize("clock", ["tick", "run"])
def test_a_unit_firing_out_of_detection_order_is_refused(engine_cls, clock, monkeypatch):
    # input 1, of value 2, fires alone in the first search cycle, ahead of
    # input 0 (min) or input 2 (max); it is not the head of in_play, so the
    # detection is refused before any unit leaves in_play
    values = [1, 2, 3]
    if engine_cls is MinSortEngine:
        step = FsmGenerator.step
        monkeypatch.setattr(FsmGenerator, "step",
                            lambda unit: 0 if unit.remainder == 2 else step(unit))
    else:
        bit = max_sorter.max_bit
        monkeypatch.setattr(max_sorter, "max_bit",
                            lambda value, counter: 1 if value == 2 else bit(value, counter))
    engine = engine_cls(values, 3)
    in_play = list(engine.in_play)
    with pytest.raises(RuntimeError, match=r"^units \(1,\) fired out of detection order$"):
        getattr(engine, clock)()
    assert engine.in_play == in_play and engine.pending == 0
    assert engine.trace.records == []


@pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine],
                         ids=["min", "max"])
def test_refused_exactly_when_search_exceeds_budget(engine_cls, monkeypatch):
    # the search length is known from the inputs, so an input is refused at
    # construction, before any unit is evaluated, and an admitted one finishes
    monkeypatch.setattr(engine_module, "SEARCH_BUDGET", 4)
    refused = 0
    with counting(engine_cls) as calls:
        for values, width in SMALL_VECTORS:
            calls[0] = 0
            if max(detection_cycles(engine_cls.arch, values, width)) > 4:
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


def reference_run(engine_cls, values, width: int):
    """What a tick-only run of ``values`` leaves: outputs, CSV rows, total
    cycles, detection cycles and events."""
    engine = engine_cls(values, width)
    while not engine.done:
        engine.tick()
    trace = engine.trace
    return (engine.outputs, trace.csv_rows(), trace.total_cycles(),
            bench.detection_cycles(trace), trace.events)


@st.composite
def small_vectors(draw):
    width = draw(st.integers(1, 4))
    return draw(st.lists(st.integers(0, (1 << width) - 1), min_size=2, max_size=8)), width


class InterleavedReads(RuleBasedStateMachine):
    """``tick()``, ``run()`` and the trace's readers in any order end where
    the ticks alone end: no read changes what a later clock or read sees."""

    @initialize(engine_cls=st.sampled_from([MinSortEngine, MaxSortEngine]),
                vector=small_vectors())
    def build(self, engine_cls, vector):
        self.engine = engine_cls(*vector)
        self.reference = reference_run(engine_cls, *vector)
        self.outputs, self.rows, _, _, self.events = self.reference

    @precondition(lambda self: not self.engine.done)
    @rule()
    def tick(self):
        self.engine.tick()

    @rule()
    def run(self):
        assert self.engine.run() == self.outputs

    @rule()
    def read_events(self):
        # ticks log every cycle and run() ends the run, so what is logged so
        # far is the reference's first cycles
        assert self.engine.trace.events == self.events[:self.engine.cycle]

    @rule()
    def read_csv_rows(self):
        assert self.engine.trace.csv_rows() == self.rows[:self.engine.cycle + 1]

    @rule()
    def read_phase(self):
        if not self.engine.done:
            assert self.engine.phase is self.events[self.engine.cycle].phase

    @invariant()
    def ends_as_the_ticks_end(self):
        if self.engine.done:
            trace = self.engine.trace
            assert (self.engine.outputs, trace.csv_rows(), trace.total_cycles(),
                    bench.detection_cycles(trace), trace.events) == self.reference


TestInterleavedReads = InterleavedReads.TestCase
