"""Property tests of the sorters, their traces and the CSV readers.

Inputs stay small (N <= 16, m <= 6) so that the whole module runs in a few
seconds; only the span-mode Batcher, whose cost follows N and not 2**m, and
the iterative sorters on inputs whose search stays short also run on wide
words.  Each sorter run goes through ``test_engine_trace``'s two checks.
"""

import itertools
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from unarysort.batcher import batcher_sort, batcher_sort_batch
from unarysort.bench import load_trials
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine

from test_batcher import per_cycle_sort
from test_engine_trace import check_against_ticks, check_run

ENGINES = st.sampled_from([MinSortEngine, MaxSortEngine])


@st.composite
def vectors(draw, min_size=2, max_size=16):
    """(values, width): a width in 1..6 and N unsigned words of that width."""
    width = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, (1 << width) - 1),
                           min_size=min_size, max_size=max_size))
    return values, width


@given(ENGINES, vectors(max_size=5))
def test_every_permutation_gives_the_same_run(engine_cls, vector):
    values, width = vector
    for perm in itertools.permutations(values):
        check_run(engine_cls, perm, width)


@given(ENGINES, vectors())
def test_run_logs_what_ticks_log(engine_cls, vector):
    # check_run() on the run from cycle 0 too: its outputs and trace follow the closed form
    check_against_ticks(engine_cls, *vector)


@st.composite
def wide_admitted_vectors(draw):
    """(engine class, values, width): a width in 17..32 and N in 2..16 words
    of it whose search takes at most 2**10 cycles, well inside the budget:
    below 2**10 for min, at or above 2**m - 2**10 for max."""
    engine_cls = draw(ENGINES)
    width = draw(st.integers(17, 32))
    low = 0 if engine_cls is MinSortEngine else (1 << width) - (1 << 10)
    values = draw(st.lists(st.integers(low, low + (1 << 10) - 1), min_size=2, max_size=16))
    return engine_cls, values, width


@given(wide_admitted_vectors())
def test_wide_run_follows_the_closed_form(vector):
    # a sorter wrong only above width 16 passes every narrower vector
    check_run(*vector)


@given(st.sampled_from([2, 4, 8, 16]).flatmap(lambda n: vectors(n, n)))
def test_network_modes_sort(vector):
    values, width = vector
    assert batcher_sort(values, width) == batcher_sort_batch(values, width) == sorted(values)


@st.composite
def wide_vectors(draw):
    """(values, width): a width in 17..32 and N in {2, 4, ..., 64} words of it."""
    width = draw(st.integers(17, 32))
    n = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    return draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n)), width


@given(wide_vectors())
def test_batcher_sorts_wide_words(vector):
    values, width = vector
    assert batcher_sort(values, width) == sorted(values)


@st.composite
def tied_vectors(draw):
    """(values, width): N in {2, 4, 8, 16} words drawn from at most four
    values, 0 and 2**width - 1 always among them."""
    width = draw(st.integers(1, 6))
    top = (1 << width) - 1
    pool = [0, top, *draw(st.lists(st.integers(0, top), max_size=2))]
    n = draw(st.sampled_from([2, 4, 8, 16]))
    rest = draw(st.lists(st.sampled_from(pool), min_size=n - 2, max_size=n - 2))
    return draw(st.permutations([0, top, *rest])), width


@given(tied_vectors())
def test_spans_equal_per_cycle(vector):
    values, width = vector
    assert batcher_sort(values, width) == per_cycle_sort(values, width)


ROWS = st.lists(st.lists(st.integers(0, 10**12), min_size=1, max_size=8),
                min_size=1, max_size=8)


@given(ROWS)
def test_load_trials_round_trip(rows):
    # a directory per example: hypothesis rejects function-scoped fixtures
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows),
                        encoding="utf-8")
        assert load_trials(path) == rows
