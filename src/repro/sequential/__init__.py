"""Sequential MTTKRP algorithms in the two-level memory model (Section V-A/B).

The two-level (fast/slow) memory model of the paper is realised by
:class:`repro.sequential.machine.TwoLevelMemory`: algorithms issue explicit
``load`` and ``store`` instructions and the machine counts the words moved
(and, optionally, checks that the declared working set never exceeds the fast
memory capacity ``M``).

Three executable algorithms are provided:

* :func:`sequential_unblocked_mttkrp` — Algorithm 1 (one element at a time);
* :func:`sequential_blocked_mttkrp` — Algorithm 2 (block size ``b``), the
  communication-optimal algorithm of Theorem 6.1;
* :func:`matmul_sequential_mttkrp` — the matrix-multiplication baseline with
  its blocked-GEMM I/O cost, used for the Section VI-A comparison.
"""

from repro.sequential.machine import TwoLevelMemory, IOCounter
from repro.sequential.block_size import (
    DEFAULT_SPARSE_CHUNK_MEMORY_WORDS,
    max_block_size,
    block_size_is_valid,
    choose_block_size,
    choose_sparse_chunks,
    minimum_memory_for_block,
    sparse_chunk_working_set_words,
)
from repro.sequential.unblocked import sequential_unblocked_mttkrp
from repro.sequential.blocked import sequential_blocked_mttkrp
from repro.sequential.matmul_io import matmul_sequential_mttkrp
from repro.sequential.elementwise import elementwise_unblocked_mttkrp, elementwise_blocked_mttkrp

__all__ = [
    "TwoLevelMemory",
    "IOCounter",
    "max_block_size",
    "block_size_is_valid",
    "choose_block_size",
    "choose_sparse_chunks",
    "sparse_chunk_working_set_words",
    "DEFAULT_SPARSE_CHUNK_MEMORY_WORDS",
    "minimum_memory_for_block",
    "sequential_unblocked_mttkrp",
    "sequential_blocked_mttkrp",
    "matmul_sequential_mttkrp",
    "elementwise_unblocked_mttkrp",
    "elementwise_blocked_mttkrp",
]
