"""Cycle-accurate simulation of comparison-free unary sorting hardware."""

__version__ = "0.1.0"

from .batcher import (
    Cas,
    CasDirection,
    CasNetwork,
    batcher_sort,
    batcher_sort_batch,
    build_bitonic_network,
    cas_apply,
    cas_count,
    sort_streams,
)
from .bitstream import (
    BinaryValue,
    StreamAlignment,
    UnaryStream,
    alignment_of,
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
from .engine import priority_encode
from .generators import (
    FsmGenerator,
    GeneratorState,
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
    "CasDirection",
    "CasNetwork",
    "CycleTrace",
    "DEFAULT_WEIGHTS",
    "FsmGenerator",
    "GeneratorState",
    "MaxSortEngine",
    "MinSortEngine",
    "Phase",
    "ResourceCount",
    "StreamAlignment",
    "TraceEvent",
    "UnaryStream",
    "WeightSet",
    "alignment_of",
    "batcher_sort",
    "batcher_sort_batch",
    "build_bitonic_network",
    "cas_apply",
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
    "priority_encode",
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
