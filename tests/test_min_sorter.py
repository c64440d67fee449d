import random

import pytest

from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine, retrieve_value, sort_ascending
from unarysort.trace import Phase, TraceEvent


class TestRetrieveValue:
    def test_detection_at_five_means_four(self):
        assert retrieve_value(5, 3) == 4

    def test_first_cycle(self):
        assert retrieve_value(1, 3) == 0

    def test_last_cycle(self):
        assert retrieve_value(8, 3) == 7

    def test_overflow_is_a_bug(self):
        with pytest.raises(RuntimeError):
            retrieve_value(9, 3)

    def test_before_first_cycle(self):
        with pytest.raises(ValueError):
            retrieve_value(0, 3)


class TestEngineConstruction:
    def test_too_few_inputs(self):
        with pytest.raises(ValueError):
            MinSortEngine([], 3)
        with pytest.raises(ValueError):
            MinSortEngine([1], 3)

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            MinSortEngine([1, 8], 3)

    def test_loads_units(self):
        engine = MinSortEngine([4, 6, 4], 3)
        assert [u.remainder for u in engine.units] == [4, 6, 4]
        assert engine.elapsed == 0
        assert engine.phase is Phase.SEARCH
        assert engine.in_play == [0, 1, 2] and engine.pending == 0

    def test_zero_inputs_start_inactive(self):
        engine = MinSortEngine([0, 0], 3)
        assert [u.or_out for u in engine.units] == [0, 0]


class TestWorkedExample:
    """Three inputs 4, 6, 4 at width 3: the two equal minima are detected
    together in generation cycle 5 and drain over the next two cycles."""

    def test_full_trace(self):
        engine = MinSortEngine([4, 6, 4], 3)
        outputs = engine.run()
        assert outputs == [4, 4, 6]
        log = [
            (e.cycle, e.phase, e.elapsed, e.detected_count, e.detected, e.writes)
            for e in engine.trace.events
        ]
        assert log == [
            (1, Phase.SEARCH, 1, 0, (), ()),
            (2, Phase.SEARCH, 2, 0, (), ()),
            (3, Phase.SEARCH, 3, 0, (), ()),
            (4, Phase.SEARCH, 4, 0, (), ()),
            (5, Phase.SEARCH, 5, 2, (0, 2), ()),
            (6, Phase.DRAIN, 5, 0, (), ((0, 4),)),
            (7, Phase.DRAIN, 5, 0, (), ((1, 4),)),
            (8, Phase.SEARCH, 6, 0, (), ()),
            (9, Phase.SEARCH, 7, 1, (1,), ()),
            (10, Phase.DRAIN, 7, 0, (), ((2, 6),)),
        ]
        assert engine.trace.total_cycles() == 10

    @pytest.mark.parametrize(
        "engine_cls,cycles",
        [pytest.param(MinSortEngine, 10, id="min"),
         pytest.param(MaxSortEngine, 7, id="max")],
    )
    def test_tick_after_completion_is_flagged_noop(self, engine_cls, cycles):
        engine = engine_cls([4, 6, 4], 3)
        engine.run()
        before, elapsed = list(engine.outputs), engine.elapsed
        engine.tick()
        idle = engine.trace.events[-1]
        assert idle == TraceEvent(cycles + 1, Phase.IDLE, elapsed, (), ())
        assert engine.outputs == before and engine.elapsed == elapsed
        assert engine.trace.total_cycles() == cycles  # idle ticks not charged

    def test_zero_detected_first_tick(self):
        engine = MinSortEngine([0, 5], 3)
        engine.tick()
        event = engine.trace.events[-1]
        assert event.elapsed == 1 and event.detected == (0,)
        engine.tick()
        assert engine.trace.writes() == [(0, 0)]


class TestSortProperties:
    def test_already_sorted(self):
        assert sort_ascending([0, 1, 2, 3], 3)[0] == [0, 1, 2, 3]

    def test_random_vectors_match_reference(self):
        rng = random.Random(11)
        for _ in range(500):
            values = [rng.randrange(256) for _ in range(8)]
            outputs, _ = sort_ascending(values, 8)
            assert outputs == sorted(values)

    def test_output_multiset_preserved(self):
        rng = random.Random(5)
        for _ in range(100):
            values = [rng.randrange(16) for _ in range(6)]
            outputs, _ = sort_ascending(values, 4)
            assert sorted(outputs) == sorted(values)

    def test_written_values_non_decreasing(self):
        rng = random.Random(3)
        for _ in range(100):
            values = [rng.randrange(32) for _ in range(5)]
            _, trace = sort_ascending(values, 5)
            written = [v for _, v in trace.writes()]
            assert written == sorted(written)

    def test_detection_time_law(self):
        # value v first emits a 0 in generation cycle v + 1
        rng = random.Random(9)
        for _ in range(200):
            m = rng.randrange(1, 9)
            values = [rng.randrange(1 << m) for _ in range(4)]
            _, trace = sort_ascending(values, m)
            detected_at = {}
            for event in trace.events:
                for i in event.detected:
                    detected_at[i] = event.elapsed
            assert detected_at == {i: v + 1 for i, v in enumerate(values)}

    def test_detected_units_are_done(self):
        from unarysort.generators import GeneratorState

        engine = MinSortEngine([5, 2, 2, 7], 3)
        while not engine.done:
            engine.tick()
            for i in set(range(engine.n)).difference(engine.in_play):
                assert engine.units[i].state is GeneratorState.DONE

    def test_ties_drain_one_per_cycle(self):
        # k equal minima: one detection event with count k, then k writes
        engine = MinSortEngine([3, 3, 3, 7], 3)
        engine.run()
        events = engine.trace.events
        detect = next(e for e in events if e.detected_count)
        assert detect.detected_count == 3 and detect.elapsed == 4
        drains = [e for e in events if e.phase is Phase.DRAIN]
        assert [e.writes[0][1] for e in drains[:3]] == [3, 3, 3]
        assert [e.cycle for e in drains[:3]] == [
            detect.cycle + 1,
            detect.cycle + 2,
            detect.cycle + 3,
        ]


class TestCycleCounts:
    def test_closed_form_random(self):
        # total cycles = (max value + 1) generation + N writes
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randrange(2, 9)
            m = rng.randrange(1, 9)
            values = [rng.randrange(1 << m) for _ in range(n)]
            _, trace = sort_ascending(values, m)
            assert trace.total_cycles() == (max(values) + 1) + n

    def test_all_zeros(self):
        _, trace = sort_ascending([0, 0, 0, 0], 3)
        assert trace.total_cycles() == 1 + 4

    def test_all_max(self):
        _, trace = sort_ascending([7] * 3, 3)
        assert trace.total_cycles() == 8 + 3

    def test_incomplete_trace_rejected(self):
        engine = MinSortEngine([4, 6, 4], 3)
        engine.tick()
        with pytest.raises(ValueError, match="incomplete"):
            engine.trace.total_cycles()
