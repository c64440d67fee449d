"""Structural hardware-cost model for the three sorter architectures.

The model counts blocks visible in the architectures and weights them with
coarse gate-equivalent factors.  It is deliberately transparent: the counts
are listed per architecture below, and only *orderings* between scores are
meaningful.  Absolute synthesis results (area in um^2, power) depend on the
cell library and tool flow and are out of scope.

Counting conventions, per architecture with N inputs of width M:

* Common to both iterative sorters: N M-bit value registers (the FSM design
  decrements them in place, the comparator design holds them for compare
  and readout), N detection flip-flops, N*M output memory bits, one M-bit
  cycle counter (generation counter vs shared down counter), an N-input
  detection adder, an N-input priority encoder, pointer/controller bits,
  and per input M comparator-class cells and M OR inputs: the FSM design's
  conditional-decrement ripple and OR-reduction tree, or the comparator
  design's magnitude comparator and its combine chain (a borrow chain and
  a compare chain are the same granularity).
* Min sorter (FSM generators) adds one shared M-bit adder that rebuilds
  the detected value from the cycle counter.  No value multiplexer: values
  come from the adder.
* Max sorter (comparator generators) adds, because values are read out of
  the input registers, an N-to-1 M-bit-wide value multiplexer.
* Batcher network: the CAS blocks plus the 2N stream endpoints it cannot
  work without: N comparator-based generators feeding the lanes, one
  shared counter, and N output counters plus output registers to convert
  the sorted streams back to binary.

The structural gap between the iterative sorters is therefore the N*M-input
value mux (max sorter only) against one M-bit adder (min sorter only);
everything else pairs off.  That gap, not the weight choices, drives the
ordering.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from types import MappingProxyType

from .batcher import cas_count
from .bitstream import check_width, is_int_in


class Architecture(Enum):
    MIN_SORTER = "min"      # FSM-generator, ascending
    MAX_SORTER = "max"      # comparator-generator, descending
    BATCHER = "batcher"     # unary CAS network


@dataclass(frozen=True)
class ResourceCount:
    """Block counts derived deterministically from (architecture, N, M)."""

    registers_bits: int = 0
    adder_bits: int = 0
    comparator_bits: int = 0
    or_inputs: int = 0
    encoder_inputs: int = 0
    mux_inputs: int = 0
    cas_blocks: int = 0

    def __post_init__(self):
        for name, count in vars(self).items():
            if count < 0:
                raise ValueError(f"{name} must be >= 0, got {count}")


# Gate-equivalent weight per ResourceCount field, all > 0: typical
# NAND2-equivalent folklore values; only the ordering of weighted scores
# carries meaning.
WEIGHTS = MappingProxyType({
    "registers_bits": 4.0,
    "adder_bits": 5.0,
    "comparator_bits": 3.0,
    "or_inputs": 1.0,
    "encoder_inputs": 2.0,
    "mux_inputs": 1.0,
    "cas_blocks": 2.0,
})

# every count stays below 2**53 up to this N, so the float scores are exact
# (an N past about 2**1000 would not even convert to a float)
MAX_INPUTS = 2**32


def resources(arch: Architecture, n: int, m: int) -> ResourceCount:
    """Block counts for one architecture at configuration (N, M)."""
    if not is_int_in(n, 2, MAX_INPUTS):
        raise ValueError(f"input count must be in 2..{MAX_INPUTS}, got {n}")
    check_width(m)
    if arch is Architecture.BATCHER:
        return ResourceCount(
            registers_bits=(
                n * m      # generator value registers
                + m        # shared down counter
                + n * m    # output counters
                + n * m    # output registers
            ),
            adder_bits=m + n * m,   # counter increment, output counters
            comparator_bits=n * m,  # generator comparators
            or_inputs=n * m,        # comparator combine chains
            cas_blocks=cas_count(n),
        )
    if arch not in (Architecture.MIN_SORTER, Architecture.MAX_SORTER):
        raise ValueError(f"unknown architecture: {arch!r}")
    common = ResourceCount(
        registers_bits=(
            n * m        # value registers
            + n          # detection flip-flops
            + n * m      # output memory
            + m          # cycle counter
            + math.ceil(math.log2(n)) + 1  # output pointer
            + 1          # controller state
        ),
        adder_bits=n + m,       # detection adder tree, cycle-counter increment
        comparator_bits=n * m,  # decrement ripples or magnitude comparators
        or_inputs=n * m,        # OR-reduction trees or comparator combine chains
        encoder_inputs=n,
    )
    if arch is Architecture.MIN_SORTER:
        # value-retrieval adder
        return replace(common, adder_bits=common.adder_bits + m)
    return replace(common, mux_inputs=n * m)  # value readout mux


def gate_equiv(rc: ResourceCount, weights: Mapping[str, float] = WEIGHTS) -> float:
    """Weighted block count; compare scores only against each other."""
    return sum(count * weights[name] for name, count in vars(rc).items())


def score(arch: Architecture, n: int, m: int) -> float:
    return gate_equiv(resources(arch, n, m))


TABLE_N = (8, 16, 32, 64, 128, 256)
TABLE_M = (8, 16, 32)


def cost_table(
    ns: tuple[int, ...] = TABLE_N,
    ms: tuple[int, ...] = TABLE_M,
) -> list[dict]:
    """Model scores per architecture over an (N, M) grid, with ordering verdicts."""
    rows = []
    for n in ns:
        for m in ms:
            s_min = score(Architecture.MIN_SORTER, n, m)
            s_max = score(Architecture.MAX_SORTER, n, m)
            s_bat = score(Architecture.BATCHER, n, m)
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "min_sorter": s_min,
                    "max_sorter": s_max,
                    "batcher": s_bat,
                    "cas_blocks": cas_count(n),
                    "ordering_ok": s_min < s_max < s_bat,
                }
            )
    return rows
