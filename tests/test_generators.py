from unarysort.bitstream import decode, encode_right_aligned
from unarysort.generators import FsmGenerator, counter_generate, fsm_generate


def every_word(max_width):
    for m in range(1, max_width + 1):
        for v in range(1 << m):
            yield v, m


class TestFsmUnit:
    def test_load(self):
        for v, m in every_word(4):
            assert FsmGenerator(v, m).remainder == v

    def test_load_zero(self):
        # zero is done from the start, at every width
        for m in range(1, 33):
            unit = FsmGenerator(0, m)
            assert unit.remainder == 0
            assert unit.step() == 0
            assert unit.remainder == 0

    def test_load_max(self):
        for m in range(1, 33):
            assert FsmGenerator((1 << m) - 1, m).remainder == (1 << m) - 1

    def test_step_decrements(self):
        # the subtract-the-emitted-bit recurrence, down to the done state
        for v, m in every_word(4):
            unit = FsmGenerator(v, m)
            for t in range((1 << m) + 2):
                unit.step()
                assert unit.remainder == max(v - t - 1, 0)

    def test_last_one_then_zeros(self):
        # step t emits 1 while t < v, then zeros
        for v, m in every_word(4):
            unit = FsmGenerator(v, m)
            assert [unit.step() for _ in range((1 << m) + 2)] == [1] * v + [0] * ((1 << m) + 2 - v)

    def test_done_is_absorbing(self):
        # a unit that has emitted its ones stays done, at the widest word
        for v in range(4):
            unit = FsmGenerator(v, 32)
            for _ in range(v):
                unit.step()
            for _ in range(100):
                assert unit.step() == 0
                assert unit.remainder == 0

    def test_exactly_one_transition_when_nonzero(self):
        # emitting -> done once: the emitted bits have one edge, from 1 to 0
        # (widths 5..8; the bit-by-bit tests above sweep widths 1..4)
        for m in range(5, 9):
            for v in range(1, 1 << m):
                unit = FsmGenerator(v, m)
                bits = [unit.step() for _ in range(1 << m)]
                assert [(a, b) for a, b in zip(bits, bits[1:]) if a != b] == [(1, 0)]


class TestFsmGenerate:
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


class TestCounterGenerate:
    def test_counter_order(self):
        # ones arrive last: the counter descends from 2**m - 1, bit = (value > counter)
        for v, m in every_word(8):
            assert counter_generate(v, m).bits == encode_right_aligned(v, m).bits[::-1]

    def test_zero(self):
        assert counter_generate(0, 3).bits == (0,) * 8

    def test_max_value(self):
        assert counter_generate(7, 3).bits == (0, 1, 1, 1, 1, 1, 1, 1)

    def test_decodes_exhaustive(self):
        for v, m in every_word(8):
            assert decode(counter_generate(v, m)).value == v
