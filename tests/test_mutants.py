"""Seeded mutants of ``run()``: each must fail the engine checks.

A check that passes a wrong engine proves nothing, which is the question
mutation analysis asks (DeMillo, Lipton and Sayward, "Hints on Test Data
Selection", IEEE Computer, 1978).  Each mutant wraps ``MinSortEngine.run`` or
``MaxSortEngine.run`` and edits what the run finished with, its outputs or its
trace records, in one known way.  ``tick()`` is never touched, so a mutant
stays a valid wrong ``run()`` whatever ``run()`` becomes.  Each one must make
:func:`check_run` or :func:`check_against_ticks` raise ``AssertionError`` on
the worked example 4, 6, 4, at width 3 or, for the mutant that is wrong only
above width 16, at width 20.
"""

import dataclasses

import pytest

from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine

from test_engine_trace import check_against_ticks, check_run


def example(engine_cls, width: int) -> list[int]:
    """The worked example at ``width``; for max, moved to the top of the
    range, so that it needs the same few search cycles at any width."""
    shift = 0 if engine_cls is MinSortEngine else (1 << width) - 8
    return [v + shift for v in (4, 6, 4)]


# each edit takes the finished engine, the outputs run() returns, and the
# state run() began from: the records logged before it, the generation count
# and the writes a tick() left pending


def reverse_tie_indices(engine, outputs, began):
    records = engine.trace.records
    k = next(k for k, r in enumerate(records) if len(r.detected) > 1)
    records[k] = dataclasses.replace(records[k], detected=records[k].detected[::-1])


def drop_a_drain_record(engine, outputs, began):
    records = engine.trace.records
    del records[max(k for k, r in enumerate(records) if r.writes)]


def detect_in_a_drain_record(engine, outputs, began):
    # set in place, past append(), which refuses a record that detects and writes
    records = engine.trace.records
    k = next(k for k, r in enumerate(records) if r.writes)
    records[k] = dataclasses.replace(records[k], detected=records[k - 1].detected)


def log_a_record_one_cycle_late(engine, outputs, began):
    records = engine.trace.records
    records[-1] = dataclasses.replace(records[-1], cycle=records[-1].cycle + 1)


def drop_the_pending_group(engine, outputs, began):
    logged, _, pending = began
    if pending:
        for address, _ in engine.trace.records.pop(logged).writes:
            outputs[address] = None


def advance_a_gap_by_one_cycle(engine, outputs, began):
    # the first record g >= 2 cycles after the one before it, so after g - 1
    # quiet cycles, and every later record, moved g - 1 cycles earlier
    records, last = engine.trace.records, 0
    for k, r in enumerate(records):
        if r.cycle - last >= 2:
            shift = r.cycle - last - 1
            records[k:] = [dataclasses.replace(q, cycle=q.cycle - shift) for q in records[k:]]
            return
        last = r.last_cycle


def resume_ignoring_elapsed(engine, outputs, began):
    # a search resumed after ticks counts its generation cycles from zero
    logged, generation, _ = began
    records = engine.trace.records
    records[logged:] = [dataclasses.replace(r, cycle=r.cycle - generation,
                                            elapsed=r.elapsed - generation)
                        for r in records[logged:]]


def off_by_one_above_width_16(engine, outputs, began):
    if engine.width > 16:
        records = engine.trace.records
        for k, r in enumerate(records):
            if r.writes:
                records[k] = dataclasses.replace(
                    r, writes=tuple((a, v + 1) for a, v in r.writes))
        outputs[:] = [v + 1 for v in outputs]


def resumed_every_tick(engine_cls, values, width):
    check_against_ticks(engine_cls, values, width, resume_every=True)


MUTANTS = [
    pytest.param(reverse_tie_indices, check_run, 3, id="reversed-tie-indices"),
    pytest.param(drop_a_drain_record, check_run, 3, id="dropped-drain-record"),
    pytest.param(detect_in_a_drain_record, check_run, 3, id="drain-record-detects"),
    pytest.param(log_a_record_one_cycle_late, check_run, 3, id="record-one-cycle-late"),
    pytest.param(drop_the_pending_group, resumed_every_tick, 3, id="resume-drops-pending-group"),
    pytest.param(off_by_one_above_width_16, check_run, 20, id="off-by-one-above-width-16"),
    pytest.param(advance_a_gap_by_one_cycle, check_run, 3, id="gap-advances-one-cycle"),
    pytest.param(resume_ignoring_elapsed, resumed_every_tick, 3, id="resume-ignores-elapsed"),
]
ENGINES = pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine],
                                  ids=["min", "max"])


@ENGINES
@pytest.mark.parametrize("edit,check,width", MUTANTS)
def test_mutant_fails_the_check(engine_cls, edit, check, width, monkeypatch):
    run = engine_cls.run

    def mutant(self):
        began = len(self.trace.records), self.elapsed, self.pending
        outputs = run(self)
        edit(self, outputs, began)
        return outputs

    monkeypatch.setattr(engine_cls, "run", mutant)
    with pytest.raises(AssertionError):
        check(engine_cls, example(engine_cls, width), width)


@ENGINES
@pytest.mark.parametrize("edit,check,width", MUTANTS)
def test_unmutated_run_passes_the_check(engine_cls, edit, check, width):
    # so that each mutant fails for its edit and not for its example
    check(engine_cls, example(engine_cls, width), width)
