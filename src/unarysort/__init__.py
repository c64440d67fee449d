"""Cycle-accurate simulation of comparison-free unary sorting hardware."""

__version__ = "0.1.0"

from .batcher import (
    batcher_sort,
    batcher_sort_batch,
    build_bitonic_network,
    sort_streams,
)
from .bitstream import decode, emission_str, encode_right_aligned, written_str
from .generators import FsmGenerator, counter_generate, fsm_generate
from .max_sorter import MaxSortEngine, sort_descending
from .min_sorter import MinSortEngine, sort_ascending

__all__ = [
    "FsmGenerator",
    "MaxSortEngine",
    "MinSortEngine",
    "batcher_sort",
    "batcher_sort_batch",
    "build_bitonic_network",
    "counter_generate",
    "decode",
    "emission_str",
    "encode_right_aligned",
    "fsm_generate",
    "sort_ascending",
    "sort_descending",
    "sort_streams",
    "written_str",
]
