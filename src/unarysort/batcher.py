"""Bitonic compare-and-swap network operating on unary streams.

In the unary domain a compare-and-swap block needs no arithmetic: for two
right-aligned streams, bitwise AND yields the stream of the smaller value
and bitwise OR the larger, lane by lane.  An N-input network uses
``N * log2(N) * (log2(N) + 1) / 4`` CAS blocks.

The three evaluation modes share one AND/OR kernel, :func:`evaluate`: the
bit-serial mode calls it once per cycle on 0/1 bits, and the whole-stream
modes call it once on streams packed into integer bitmasks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .bitstream import BinaryValue, UnaryStream, encode_right_aligned, stream_length


class Cas(NamedTuple):
    """One CAS block: the AND (the smaller value) goes to lane ``low``, the
    OR (the larger) to lane ``high``.  A descending block has ``low > high``."""

    low: int
    high: int


@dataclass(frozen=True)
class CasNetwork:
    """Stages of CAS blocks; within a stage no lane appears twice."""

    n_inputs: int
    stages: tuple[tuple[Cas, ...], ...]

    @property
    def cas_blocks(self) -> int:
        return sum(len(stage) for stage in self.stages)

    def describe(self) -> str:
        """Plain-text dump of the stage list, one stage per line."""
        lines = [f"inputs={self.n_inputs} stages={len(self.stages)} cas={self.cas_blocks}"]
        for si, stage in enumerate(self.stages):
            pairs = " ".join(
                f"({min(c)},{max(c)},{'asc' if c.low < c.high else 'desc'})"
                for c in stage
            )
            lines.append(f"stage {si}: {pairs}")
        return "\n".join(lines)


def _check_n(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(f"input count must be a power of two >= 2, got {n}")
    return n.bit_length() - 1


def cas_count(n: int) -> int:
    """CAS blocks in an N-input bitonic network: N*log2(N)*(log2(N)+1)/4."""
    log_n = _check_n(n)
    return n * log_n * (log_n + 1) // 4


def build_bitonic_network(n: int) -> CasNetwork:
    """Standard bitonic construction; sorts ascending by lane index."""
    _check_n(n)
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
                    stage.append(Cas(i, partner) if i & k == 0 else Cas(partner, i))
            stages.append(tuple(stage))
            j //= 2
        k *= 2
    network = CasNetwork(n_inputs=n, stages=tuple(stages))
    assert network.cas_blocks == cas_count(n)
    return network


def evaluate(network: CasNetwork, lanes: Sequence[int]) -> list[int]:
    """Carry one value per lane through every CAS block, stage by stage.

    A lane is one stream bit, or a whole stream packed into an integer
    bitmask; each block's AND and OR gates are the same either way.
    """
    lanes = list(lanes)
    for stage in network.stages:
        for low, high in stage:
            a, b = lanes[low], lanes[high]
            lanes[low], lanes[high] = a & b, a | b
    return lanes


def _validate_inputs(values: Sequence[int], width: int) -> None:
    if not values:
        raise ValueError("no input values")
    _check_n(len(values))
    for v in values:
        BinaryValue(v, width)


def batcher_sort(values: Sequence[int], width: int) -> list[int]:
    """Sort by streaming one bit per cycle through the CAS network.

    Mirrors the hardware: each cycle, every lane carries one stream bit
    combinationally through all stages; output popcounts are the sorted
    values.
    """
    _validate_inputs(values, width)
    streams = [encode_right_aligned(v, width) for v in values]
    network = build_bitonic_network(len(values))
    counts = [0] * len(values)
    for t in range(stream_length(width)):
        lanes = evaluate(network, [s.bits[t] for s in streams])
        for lane, bit in enumerate(lanes):
            counts[lane] += bit
    return counts


def batcher_sort_batch(values: Sequence[int], width: int) -> list[int]:
    """Whole-stream evaluation: each lane is an integer bitmask, each CAS a
    single AND/OR.  Faster functional oracle for :func:`batcher_sort`."""
    _validate_inputs(values, width)
    network = build_bitonic_network(len(values))
    lanes = [(1 << v) - 1 for v in values]  # bit t set iff t < v, as emitted
    return [lane.bit_count() for lane in evaluate(network, lanes)]


def sort_streams(
    network: CasNetwork, streams: Sequence[UnaryStream]
) -> list[UnaryStream]:
    """Push whole streams through the network; returns the output streams.

    Each stream is packed into a bitmask (bit t is the bit of cycle t + 1),
    so every bit position is sorted on its own, aligned or not.
    """
    if len(streams) != network.n_inputs:
        raise ValueError("stream count does not match network inputs")
    lengths = {len(s) for s in streams}
    if len(lengths) > 1:
        raise ValueError(f"streams must have equal lengths, got {sorted(lengths)}")
    length = lengths.pop()
    lanes = [sum(bit << t for t, bit in enumerate(s.bits)) for s in streams]
    return [
        UnaryStream(tuple((lane >> t) & 1 for t in range(length)))
        for lane in evaluate(network, lanes)
    ]
