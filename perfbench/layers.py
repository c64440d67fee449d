"""Per-layer spans for the traced run, recorded from outside the package.

The traced run replaces the public names listed in ``TARGETS`` with timing
wrappers for the length of one op and puts the originals back in a
``finally``.  A wrapped function is replaced under every name the package
binds it to (``unarysort.batcher_sort`` and ``unarysort.batcher.batcher_sort``
alike); a wrapped method is replaced on its class.  The untraced run installs
nothing, and ``installed_wrappers`` proves it.

Simulated counts are read from each engine's ``CycleTrace`` as soon as
``run()`` returns; that time is kept out of the enclosing spans but not out
of the op.  ``FsmGenerator.step`` (about 1M calls in a
1000-trial bench) and ``tick`` are deliberately not wrapped, so a future
``run()`` that skips ahead is measured as it is.

The ``cost`` module is not measured: it is closed-form arithmetic that runs
in microseconds, and no performance item targets it.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span); "Class.method" wraps a method on its class.  A
# span's self time adds to the metric "<span>_s" unless SELF_TIME names another.
TARGETS = (
    ("bench", "run_bench", "bench.run_bench"),
    ("bench", "sample_trial", "bench.sample"),
    ("bench", "detection_cycles", "bench.check"),
    ("bench", "oracle_cycles", "bench.check"),
    ("min_sorter", "MinSortEngine.__init__", "min_sorter.construct"),
    ("min_sorter", "MinSortEngine.run", "min_sorter.run"),
    ("max_sorter", "MaxSortEngine.__init__", "max_sorter.construct"),
    ("max_sorter", "MaxSortEngine.run", "max_sorter.run"),
    ("trace", "CycleTrace.csv_rows", "trace.csv"),
    ("trace", "CycleTrace.to_csv", "trace.csv"),
    ("batcher", "build_bitonic_network", "batcher.build"),
    ("batcher", "batcher_sort", "batcher.serial"),
    ("batcher", "sort_streams", "batcher.streams"),
    ("batcher", "batcher_sort_batch", "batcher.batch"),
    ("bitstream", "encode_right_aligned", "bitstream.encode"),
    ("cli", "main", "cli.main"),
)

ENGINES = ("min_sorter", "max_sorter")

# per-layer metrics in report order, with their units
METRICS = {
    "bench.sample_s": "s", "bench.check_s": "s", "bench.self_s": "s",
    "bench.trials": "count",
    "generators.steps": "count",
    **{f"{e}.{k}": u for e in ENGINES for k, u in (
        ("construct_s", "s"), ("run_s", "s"), ("search_cycles", "count"),
        ("drain_cycles", "count"), ("tie_groups", "count"), ("max_tie", "count"),
        ("detect_ratio", "ratio"), ("ns_per_sim_cycle", "ns"))},
    "max_sorter.compares": "count",
    "trace.events": "count", "trace.csv_s": "s", "trace.csv_bytes": "bytes",
    "batcher.build_s": "s", "batcher.build_calls": "count",
    "batcher.serial_s": "s", "batcher.streams_s": "s", "batcher.batch_s": "s",
    "batcher.cas_evals": "count", "batcher.ns_per_cas_eval": "ns",
    "bitstream.encode_s": "s", "bitstream.encode_calls": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "harness.tracing_overhead": "ratio",
}
# simulated and call counts: exact integers that must repeat on every round
COUNTS = tuple(name for name, unit in METRICS.items() if unit in ("count", "bytes"))

MARK = "__perfbench_span__"


def cas_blocks(n: int) -> int:
    """CAS blocks of an N-input bitonic network, N * log2 N * (log2 N + 1) / 4."""
    log_n = n.bit_length() - 1
    return n * log_n * (log_n + 1) // 4


class Span:
    """One wrapped call.  ``harness`` is time spent inside it reading counts
    off finished child calls; ``child`` is the children's time net of that."""

    __slots__ = ("name", "counts", "dur", "child", "harness")

    def __init__(self, name):
        self.name, self.counts = name, {}
        self.dur = self.child = self.harness = 0.0

    @property
    def net_s(self) -> float:
        return self.dur - self.harness

    @property
    def self_s(self) -> float:
        return self.dur - self.harness - self.child


def package_modules(pkg) -> list:
    prefix = pkg.__name__ + "."
    return [pkg] + [m for name, m in sorted(sys.modules.items())
                    if name.startswith(prefix) and m is not None]


def installed_wrappers(pkg) -> list[str]:
    """Names in the package, module or class level, that are span wrappers."""
    found = []
    for mod in package_modules(pkg):
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{name}.{attr}"
                          for attr, meth in vars(obj).items() if hasattr(meth, MARK)]
    return found


class Tracer:
    """Records one span, with its counts, per wrapped call."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _wrap(self, name, fn):
        stack, spans, count = self._stack, self.spans, COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += span.net_s
                spans.append(span)
            if count:
                # counted now, so that no argument or result outlives the call;
                # the time it takes is kept out of every enclosing span
                begin = perf_counter()
                span.counts = count(args, result)
                spent = perf_counter() - begin
                for outer in stack:
                    outer.harness += spent
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        return patched(self.pkg, [(mod, attr, lambda fn, span=span: self._wrap(span, fn))
                                  for mod, attr, span in TARGETS])


@contextmanager
def patched(pkg, replacements):
    """Replace package names for the duration of the block, restoring in ``finally``.

    Each replacement is ``(module, attribute, make)``, where ``make(original)``
    returns the stand-in.  "Class.method" replaces the method on its class;
    a function is replaced under every package name bound to it.
    """
    patches = []  # (owner, name, original)
    try:
        modules = package_modules(pkg)
        for mod_name, attr, make in replacements:
            mod = getattr(pkg, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = vars(owner)[meth]
                patches.append((owner, meth, original))
                setattr(owner, meth, make(original))
                continue
            original = getattr(mod, attr)
            stand_in = make(original)
            for owner in modules:
                for name, obj in list(vars(owner).items()):
                    if obj is original:
                        patches.append((owner, name, original))
                        setattr(owner, name, stand_in)
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def engine_counts(layer: str, engine) -> dict:
    """Simulated counts of one finished engine run, read from its trace."""
    search = drain = detecting = ties = max_tie = unit_evals = written = 0
    events = engine.trace.events
    for e in events:
        phase = e.phase.value
        if phase == "search":
            search += 1
            unit_evals += engine.n - written  # units still in play this cycle
            if e.detected_count:
                detecting += 1
                ties += e.detected_count > 1
                max_tie = max(max_tie, e.detected_count)
        elif phase == "drain":
            drain += 1
            written += len(e.writes)
    units = "generators.steps" if layer == "min_sorter" else "max_sorter.compares"
    return {f"{layer}.search_cycles": search, f"{layer}.drain_cycles": drain,
            f"{layer}.detecting": detecting, f"{layer}.tie_groups": ties,
            f"{layer}.max_tie": max_tie, units: unit_evals, "trace.events": len(events)}


SELF_TIME = {"bench.run_bench": "bench.self_s", "cli.main": "cli.self_s"}
# span -> counts of one call, from its arguments and result
COUNTERS = {
    "bench.run_bench": lambda args, result: {"bench.trials": args[0].trials},
    "min_sorter.run": lambda args, result: engine_counts("min_sorter", args[0]),
    "max_sorter.run": lambda args, result: engine_counts("max_sorter", args[0]),
    "trace.csv": lambda args, result: (  # csv_rows returns the rows, to_csv None
        {} if result is None else {"trace.csv_bytes": sum(len(row) + 1 for row in result)}),
    "batcher.build": lambda args, result: {"batcher.build_calls": 1},
    "batcher.serial": lambda args, result: {
        "batcher.cas_evals": cas_blocks(len(args[0])) << args[1]},
    "batcher.streams": lambda args, result: {
        "batcher.cas_evals": cas_blocks(len(args[1])) * len(args[1][0])},
    "batcher.batch": lambda args, result: {"batcher.cas_evals": cas_blocks(len(args[0]))},
    "bitstream.encode": lambda args, result: {"bitstream.encode_calls": 1},
}


class RoundTotals:
    """Sums of span self-times and counts over one round of traced ops."""

    def __init__(self):
        self.t: dict[str, float] = {}
        self.c: dict[str, int] = {}

    def add(self, spans: list[Span], scale: float) -> None:
        """Add one op's spans; ``scale`` takes its times to reference speed."""
        for s in spans:
            times = {SELF_TIME.get(s.name, s.name + "_s"): s.self_s}
            if s.name == "cli.main":
                times["cli.main_s"] = s.net_s
            for key, value in times.items():
                self.t[key] = self.t.get(key, 0.0) + value * scale
            for key, value in s.counts.items():
                merge = max if key.endswith(".max_tie") else int.__add__
                self.c[key] = merge(self.c.get(key, 0), value)

    def counts(self) -> dict[str, int]:
        return {k: self.c.get(k, 0) for k in COUNTS}

    def times(self) -> dict[str, float]:
        """Times and the ratios built on them; layers the workload skips read 0."""
        t = {k: self.t.get(k, 0.0) for k, u in METRICS.items() if u == "s"}
        c = self.counts()
        for e in ENGINES:
            search = c[f"{e}.search_cycles"]
            cycles = search + c[f"{e}.drain_cycles"]
            t[f"{e}.detect_ratio"] = self.c.get(f"{e}.detecting", 0) / search if search else 0.0
            t[f"{e}.ns_per_sim_cycle"] = t[f"{e}.run_s"] / cycles * 1e9 if cycles else 0.0
        cas = c["batcher.cas_evals"]
        cas_s = t["batcher.serial_s"] + t["batcher.streams_s"] + t["batcher.batch_s"]
        t["batcher.ns_per_cas_eval"] = cas_s / cas * 1e9 if cas else 0.0
        return t


def summarise(rounds: list[RoundTotals], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over complete rounds, and any count that did not repeat.

    Counts are those of the first round; every later round must match them
    exactly.  Times are the median over rounds.
    """
    first = rounds[0].counts()
    drift = sorted({k for r in rounds[1:] for k, v in r.counts().items() if v != first[k]})
    times = [r.times() for r in rounds]
    values = dict(first)
    for key in times[0]:
        values[key] = statistics.median(t[key] for t in times)
    values["harness.tracing_overhead"] = overhead
    return {k: {"value": values[k], "unit": u} for k, u in METRICS.items()}, drift
