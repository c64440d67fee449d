"""Bitonic compare-and-swap network operating on unary streams.

In the unary domain a compare-and-swap block needs no arithmetic: for two
right-aligned streams, bitwise AND yields the stream of the smaller value
and bitwise OR the larger, lane by lane.  An N-input network uses
``N * log2(N) * (log2(N) + 1) / 4`` CAS blocks.

The three evaluation modes share one AND/OR kernel, :func:`evaluate`, called
once on lanes packed into integers: one bit per span of unchanging inputs in
the bit-serial mode, one bit per cycle in both whole-stream modes.
AND/OR keep every lane right-aligned, so each mode reads a lane by popcount.
A CAS block is a plain ``(low, high)`` tuple of lanes: CPython unpacks an
exact tuple in the kernel's loop on a fast path that a NamedTuple misses.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

from .bitstream import UnaryStream, check_word, is_int_in

# a network holds N*log2(N)*(log2(N)+1)/4 CAS blocks and is cached per N, so
# the input count of a sort (and of `network --n`) is capped
MAX_NETWORK_INPUTS = 1024
# a batch lane holds 2**width bits, one per cycle, so its width is capped
MAX_BATCH_WIDTH = 16


@dataclass(frozen=True)
class CasNetwork:
    """Stages of CAS blocks; within a stage no lane appears twice.

    A block is a ``(low, high)`` pair of lanes: the AND (the smaller value)
    goes to lane ``low`` and the OR (the larger) to lane ``high``, so the
    block is descending iff ``low > high``.
    """

    n_inputs: int
    stages: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def cas_blocks(self) -> int:
        return sum(len(stage) for stage in self.stages)

    def describe(self) -> str:
        """Plain-text dump of the stage list, one stage per line."""
        lines = [f"inputs={self.n_inputs} stages={len(self.stages)} cas={self.cas_blocks}"]
        for si, stage in enumerate(self.stages):
            pairs = " ".join(
                f"({min(low, high)},{max(low, high)},{'asc' if low < high else 'desc'})"
                for low, high in stage
            )
            lines.append(f"stage {si}: {pairs}")
        return "\n".join(lines)


def _check_n(n: int) -> int:
    if not is_int_in(n, 2, math.inf) or n & (n - 1):
        raise ValueError(f"input count must be a power of two >= 2, got {n}")
    return operator.index(n).bit_length() - 1


def cas_count(n: int) -> int:
    """CAS blocks in an N-input bitonic network: N*log2(N)*(log2(N)+1)/4."""
    log_n = _check_n(n)
    return n * log_n * (log_n + 1) // 4


@cache
def build_bitonic_network(n: int) -> CasNetwork:
    """Standard bitonic construction; sorts ascending by lane index."""
    n = 1 << _check_n(n)  # a plain int: the cache holds one network for 4 and np.int64(4)
    stages = []
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            stage = []
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    # ascending where bit k of i is clear, descending where set
                    stage.append((i, partner) if i & k == 0 else (partner, i))
            stages.append(tuple(stage))
            j //= 2
        k *= 2
    network = CasNetwork(n_inputs=n, stages=tuple(stages))
    assert network.cas_blocks == cas_count(n)
    return network


def evaluate(network: CasNetwork, lanes: Sequence[int]) -> list[int]:
    """Carry one value per lane through every CAS block, stage by stage.

    A lane is one integer; AND and OR act on each of its bits alone, so a
    lane may pack one bit per cycle, or per span of cycles.
    """
    lanes = list(lanes)
    for stage in network.stages:
        for low, high in stage:
            a, b = lanes[low], lanes[high]
            lanes[low], lanes[high] = a & b, a | b
    return lanes


def _validate_inputs(values: Sequence[int], width: int) -> None:
    if len(values) > MAX_NETWORK_INPUTS:
        raise ValueError(f"input count must be at most {MAX_NETWORK_INPUTS}, "
                         f"got {len(values)}")
    _check_n(len(values))
    for v in values:
        check_word(v, width)


def batcher_sort(values: Sequence[int], width: int) -> list[int]:
    """Sort by streaming the input bits through the CAS network.

    Lane i's input bit in cycle t is ``v_i > t``: it changes only at the
    distinct input values, so one :func:`evaluate` call carries every span of
    cycles.  Each input lane is a prefix of spans, and AND/OR keep it one, so
    an output lane with j spans set is 1 in cycles ``0 .. starts[j] - 1``.
    """
    _validate_inputs(values, width)
    starts = sorted({0, *values})  # span k covers cycles starts[k] .. starts[k+1] - 1
    span = {v: k for k, v in enumerate(starts)}
    lanes = [(1 << span[v]) - 1 for v in values]  # bit k set iff v > starts[k]
    return [
        starts[lane.bit_count()]
        for lane in evaluate(build_bitonic_network(len(values)), lanes)
    ]


def batcher_sort_batch(values: Sequence[int], width: int) -> list[int]:
    """Whole-stream evaluation: each lane is an integer bitmask with one bit
    per cycle, each CAS a single AND/OR.  Oracle for :func:`batcher_sort`."""
    _validate_inputs(values, width)
    if width > MAX_BATCH_WIDTH:
        raise ValueError(f"batch width must be at most {MAX_BATCH_WIDTH}, got {width}")
    network = build_bitonic_network(len(values))
    lanes = [(1 << v) - 1 for v in values]  # bit t set iff t < v, as emitted
    return [lane.bit_count() for lane in evaluate(network, lanes)]


def sort_streams(
    network: CasNetwork, streams: Sequence[UnaryStream]
) -> list[UnaryStream]:
    """Push whole streams through the network; returns the output streams.

    Each stream's lane, one bit per cycle, goes through :func:`evaluate` as
    it is, so every bit position is sorted on its own, aligned or not.
    """
    if len(streams) != network.n_inputs:
        raise ValueError("stream count does not match network inputs")
    lengths = {s.length for s in streams}
    if len(lengths) > 1:
        raise ValueError(f"streams must have equal lengths, got {sorted(lengths)}")
    length = lengths.pop()
    return [
        UnaryStream.packed(lane, length)
        for lane in evaluate(network, [s.lane for s in streams])
    ]
