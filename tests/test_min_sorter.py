import pytest

from unarysort.generators import GeneratorState
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine, sort_ascending
from unarysort.trace import Phase

from test_engine_trace import check_against_ticks, check_run, seeded_vectors


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
        assert [u.state for u in engine.units] == [GeneratorState.DONE] * 2


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
    def test_tick_after_completion_is_refused(self, engine_cls, cycles):
        # whether run() or a tick loop finished it, the engine refuses a
        # further tick and changes nothing
        for by_run in (True, False):
            engine = engine_cls([4, 6, 4], 3)
            if by_run:
                engine.run()
            while not engine.done:
                engine.tick()
            state = (list(engine.trace.records), list(engine.outputs),
                     engine.cycle, engine.elapsed)
            with pytest.raises(ValueError, match="^every input has been written$"):
                engine.tick()
            assert (engine.trace.records, engine.outputs,
                    engine.cycle, engine.elapsed) == state
            assert engine.trace.total_cycles() == cycles

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
        for values, width in seeded_vectors(11, 500, 8, 8):
            check_run(MinSortEngine, values, width)

    def test_output_multiset_preserved(self):
        for values, width in seeded_vectors(5, 100, 6, 4):
            check_run(MinSortEngine, values, width)

    def test_written_values_non_decreasing(self):
        for values, width in seeded_vectors(3, 100, 5, 5):
            check_run(MinSortEngine, values, width)

    def test_detection_time_law(self):
        # value v first emits a 0 in generation cycle v + 1
        for values, width in seeded_vectors(9, 200, 4, range(1, 9)):
            check_run(MinSortEngine, values, width)

    def test_detected_units_are_done(self):
        engine = MinSortEngine([5, 2, 2, 7], 3)
        while not engine.done:
            engine.tick()
            for i in set(range(engine.n)).difference(engine.in_play):
                assert engine.units[i].state is GeneratorState.DONE

    def test_ties_drain_one_per_cycle(self):
        # k equal minima: one detection record, then k writes, one per tick
        check_against_ticks(MinSortEngine, [3, 3, 3, 7], 3, resume_every=True)


class TestCycleCounts:
    def test_closed_form_random(self):
        # total cycles = (max value + 1) generation + N writes
        for values, width in seeded_vectors(21, 300, range(2, 9), range(1, 9)):
            check_run(MinSortEngine, values, width)

    def test_all_zeros(self):
        check_run(MinSortEngine, [0, 0, 0, 0], 3)

    def test_all_max(self):
        check_run(MinSortEngine, [7] * 3, 3)

    def test_incomplete_trace_rejected(self):
        engine = MinSortEngine([4, 6, 4], 3)
        engine.tick()
        with pytest.raises(ValueError, match="incomplete"):
            engine.trace.total_cycles()
