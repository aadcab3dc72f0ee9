#!/usr/bin/env python
"""Sequential blocking study: measured I/O of Algorithms 1 and 2 vs the bounds.

This example executes the counted sequential algorithms over a sweep of
fast-memory sizes ``M`` and shows the Theorem 6.1 story numerically: the
blocked algorithm's measured loads+stores track the lower bound
``max(W_lb1, W_lb2)`` to within a small constant factor, while the unblocked
algorithm and the matmul baseline do not improve with ``M`` in the same way.

It also sweeps the block size ``b`` at a fixed memory size to show that the
paper's choice ``b ~ (alpha*M)^(1/N)`` is the right one (the block-size
ablation).

Run with ``python examples/sequential_blocking_study.py``.
"""

from repro.experiments.sequential_optimality import (
    format_sequential_optimality_table,
    sequential_optimality_rows,
)
from repro.sequential import block_size_is_valid, sequential_blocked_mttkrp
from repro.tensor.random import random_factors, random_tensor


def block_size_ablation(shape=(24, 24, 24), rank=8, memory_words=1024) -> None:
    """Sweep the block size at fixed M and print the measured communication."""
    tensor = random_tensor(shape, seed=0)
    factors = random_factors(shape, rank, seed=1)
    print(f"\nBlock-size ablation at M = {memory_words} (valid sizes satisfy b^N + N*b <= M):")
    print("  b   valid   measured loads+stores")
    for block in (1, 2, 3, 4, 6, 8, 9, 12):
        valid = block_size_is_valid(block, len(shape), memory_words)
        result = sequential_blocked_mttkrp(tensor, factors, 0, block=block, check_memory=False)
        marker = "yes" if valid else "NO "
        print(f"  {block:<3} {marker}     {result.words_moved:>12,}")


def main() -> None:
    rows = sequential_optimality_rows(
        shape=(24, 24, 24),
        rank=8,
        memory_sizes=[64, 128, 256, 512, 1024, 2048, 4096],
        seed=0,
    )
    print(format_sequential_optimality_table(rows))
    block_size_ablation()


if __name__ == "__main__":
    main()
