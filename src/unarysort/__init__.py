"""Cycle-accurate simulation of comparison-free unary sorting hardware."""

__version__ = "0.1.0"

from .batcher import (
    Cas,
    CasNetwork,
    batcher_sort,
    batcher_sort_batch,
    build_bitonic_network,
    cas_count,
    sort_streams,
)
from .bitstream import (
    BinaryValue,
    UnaryStream,
    decode,
    emission_str,
    encode_right_aligned,
    is_right_aligned,
    stream_length,
    written_str,
)
from .cost import (
    Architecture,
    DEFAULT_WEIGHTS,
    ResourceCount,
    WeightSet,
    cost_table,
    gate_equiv,
    resources,
    score,
)
from .generators import (
    FsmGenerator,
    counter_generate,
    fsm_generate,
    streams_equivalent,
)
from .max_sorter import MaxSortEngine, max_bit, sort_descending
from .min_sorter import MinSortEngine, retrieve_value, sort_ascending
from .trace import CycleTrace, Phase, TraceEvent

__all__ = [
    "Architecture",
    "BinaryValue",
    "Cas",
    "CasNetwork",
    "CycleTrace",
    "DEFAULT_WEIGHTS",
    "FsmGenerator",
    "MaxSortEngine",
    "MinSortEngine",
    "Phase",
    "ResourceCount",
    "TraceEvent",
    "UnaryStream",
    "WeightSet",
    "batcher_sort",
    "batcher_sort_batch",
    "build_bitonic_network",
    "cas_count",
    "cost_table",
    "counter_generate",
    "decode",
    "emission_str",
    "encode_right_aligned",
    "fsm_generate",
    "gate_equiv",
    "is_right_aligned",
    "max_bit",
    "resources",
    "retrieve_value",
    "score",
    "sort_ascending",
    "sort_descending",
    "sort_streams",
    "stream_length",
    "streams_equivalent",
    "written_str",
]
