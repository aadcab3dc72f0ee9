"""Benchmark / reproduction harness for experiment ``tab-seq-optimality`` (Theorem 6.1).

Executes the counted sequential algorithms over a sweep of fast-memory sizes
and reports measured loads+stores against the paper's lower bounds (Eq. (23),
Eq. (24)), the blocked upper bound (Eq. (21)) and the matmul baseline model.
Also includes the block-size ablation (block size ``b`` swept at a fixed ``M``).
"""

from conftest import emit
from repro.experiments.sequential_optimality import (
    format_sequential_optimality_table,
    sequential_optimality_rows,
)
from repro.sequential.blocked import sequential_blocked_mttkrp
from repro.sequential.block_size import choose_block_size, max_block_size
from repro.tensor.random import random_factors, random_tensor

SHAPE = (24, 24, 24)
RANK = 8
MEMORY_SIZES = [64, 128, 256, 512, 1024, 2048]


def test_sequential_optimality_sweep(benchmark):
    """Measured Algorithm 1/2 I/O vs lower bounds over a memory-size sweep."""
    rows = benchmark.pedantic(
        sequential_optimality_rows,
        kwargs={"shape": SHAPE, "rank": RANK, "memory_sizes": MEMORY_SIZES, "seed": 0},
        rounds=1,
        iterations=1,
    )
    emit("Sequential optimality (Theorem 6.1)", format_sequential_optimality_table(rows))
    for row in rows:
        assert row.measured_blocked <= row.upper_bound_eq21 + 1e-9
        if row.lower_bound > 100:
            assert row.optimality_ratio <= 8.0
    benchmark.extra_info["worst_ratio_vs_lower_bound"] = round(
        max(r.optimality_ratio for r in rows if r.lower_bound > 100), 3
    )


def test_block_size_ablation(benchmark):
    """Ablation: measured I/O as a function of the block size at fixed M."""
    memory = 1024
    tensor = random_tensor(SHAPE, seed=1)
    factors = random_factors(SHAPE, RANK, seed=2)
    blocks = [1, 2, 4, max(1, max_block_size(3, memory) // 2), choose_block_size(3, memory, shape=SHAPE)]

    def sweep():
        return {
            b: sequential_blocked_mttkrp(tensor, factors, 0, block=b, check_memory=False).words_moved
            for b in blocks
        }

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"  b={b:<3} loads+stores={w:,}" for b, w in measured.items()]
    emit("Block-size ablation (M = 1024)", "\n".join(lines))
    # the paper's choice (the last entry) should be the cheapest in the sweep
    paper_choice = blocks[-1]
    assert measured[paper_choice] == min(measured.values())


def test_blocked_kernel_runtime(benchmark):
    """Wall-clock of the counted blocked kernel itself (engineering metric)."""
    tensor = random_tensor(SHAPE, seed=3)
    factors = random_factors(SHAPE, RANK, seed=4)
    result = benchmark(
        sequential_blocked_mttkrp, tensor, factors, 0, block=8, check_memory=False
    )
    assert result.words_moved > 0
