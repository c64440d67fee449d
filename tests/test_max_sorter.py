import pytest

from unarysort.max_sorter import MaxSortEngine, max_bit, sort_descending
from unarysort.trace import Phase

from test_engine_trace import check_run, check_seeded


class TestMaxBit:
    def test_fires_when_counter_reaches_value(self):
        assert max_bit(6, 7) == 0
        assert max_bit(6, 6) == 1

    def test_zero_waits_for_counter_zero(self):
        for counter in range(1, 8):
            assert max_bit(0, counter) == 0
        assert max_bit(0, 0) == 1

    def test_max_value_fires_first_cycle(self):
        assert max_bit(7, 7) == 1


class TestMaxEngine:
    def test_worked_example_descending(self):
        outputs, trace = sort_descending([4, 6, 4], 3)
        assert outputs == [6, 4, 4]
        assert trace.total_cycles() == 7

    def test_worked_example_trace(self):
        engine = MaxSortEngine([4, 6, 4], 3)
        engine.run()
        log = [
            (e.cycle, e.phase, e.elapsed, e.detected, e.writes)
            for e in engine.trace.events
        ]
        assert log == [
            (1, Phase.SEARCH, 1, (), ()),
            (2, Phase.SEARCH, 2, (1,), ()),
            (3, Phase.DRAIN, 2, (), ((0, 6),)),
            (4, Phase.SEARCH, 3, (), ()),
            (5, Phase.SEARCH, 4, (0, 2), ()),
            (6, Phase.DRAIN, 4, (), ((1, 4),)),
            (7, Phase.DRAIN, 4, (), ((2, 4),)),
        ]

    def test_all_zeros_need_full_descent(self):
        check_run(MaxSortEngine, [0, 0], 3)

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            MaxSortEngine([1], 3)
        with pytest.raises(ValueError):
            MaxSortEngine([1, 9], 3)

    def test_arch_tag_in_trace(self):
        engine = MaxSortEngine([1, 2], 2)
        engine.run()
        assert engine.trace.arch == "max"
        assert all(row.startswith("max,") for row in engine.trace.csv_rows()[1:])


class TestCrossArchitecture:
    def test_reverse_of_min_engine(self):
        check_seeded(13, 300, 8, 8)

    def test_detection_time_law(self):
        # value v is detected at generation cycle 2**m - v
        check_seeded(17, 200, 4, range(1, 9))

    def test_closed_form_cycle_count(self):
        # total cycles = (2**m - min value) generation + N writes
        check_seeded(19, 300, range(2, 9), range(1, 9))
