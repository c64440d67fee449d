import pytest

from unarysort.bitstream import decode, encode_right_aligned
from unarysort.generators import FsmGenerator, counter_generate, fsm_generate


class TestFsmUnit:
    def test_load(self):
        unit = FsmGenerator(4, 3)
        assert unit.remainder == 4

    def test_load_zero(self):
        unit = FsmGenerator(0, 3)
        assert unit.remainder == 0  # done from the start
        assert unit.step() == 0
        assert unit.remainder == 0

    def test_load_max(self):
        unit = FsmGenerator(7, 3)
        assert unit.remainder == 7

    def test_step_decrements(self):
        # the subtract-the-emitted-bit recurrence: 4 -> 3 -> 2 -> 1 -> 0
        unit = FsmGenerator(4, 3)
        assert unit.step() == 1
        assert unit.remainder == 3

    def test_last_one_then_zeros(self):
        unit = FsmGenerator(1, 3)
        assert unit.step() == 1
        assert unit.remainder == 0
        assert unit.step() == 0

    def test_done_is_absorbing(self):
        unit = FsmGenerator(0, 3)
        for _ in range(10):
            assert unit.step() == 0
            assert unit.remainder == 0

    def test_exactly_one_transition_when_nonzero(self):
        # emitting -> done once: the emitted bits have one edge, from 1 to 0
        for v in range(1, 16):
            unit = FsmGenerator(v, 4)
            bits = [unit.step() for _ in range(16)]
            assert [(a, b) for a, b in zip(bits, bits[1:]) if a != b] == [(1, 0)]

    def test_deterministic(self):
        a = [FsmGenerator(5, 3).step() for _ in range(1)]
        b = [FsmGenerator(5, 3).step() for _ in range(1)]
        assert a == b


class TestFsmGenerate:
    def test_worked_values(self):
        assert fsm_generate(4, 3).bits == (1, 1, 1, 1, 0, 0, 0, 0)
        assert fsm_generate(6, 3).bits == (1, 1, 1, 1, 1, 1, 0, 0)

    def test_matches_oracle_exhaustive(self):
        for m in range(1, 7):
            for v in range(1 << m):
                assert fsm_generate(v, m) == encode_right_aligned(v, m)

    def test_matches_oracle_wide_words(self):
        # widths 11 and 12 sampled; up to width 10 is swept exhaustively
        # in the acceptance suite
        import random

        rng = random.Random(31)
        for m in (11, 12):
            values = {0, 1, (1 << m) - 1}
            values.update(rng.randrange(1 << m) for _ in range(100))
            for v in values:
                assert fsm_generate(v, m) == encode_right_aligned(v, m)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fsm_generate(8, 3)


class TestCounterGenerate:
    def test_counter_order(self):
        # ones arrive last: counter descends 7..0, bit = (value > counter)
        assert counter_generate(4, 3).bits == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_zero(self):
        assert counter_generate(0, 3).bits == (0,) * 8

    def test_max_value(self):
        assert counter_generate(7, 3).bits == (0, 1, 1, 1, 1, 1, 1, 1)

    def test_decodes_exhaustive(self):
        for m in range(1, 9):
            for v in range(1 << m):
                assert decode(counter_generate(v, m)).value == v
