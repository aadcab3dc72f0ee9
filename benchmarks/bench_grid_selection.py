"""Benchmark / ablation harness: processor-grid selection.

Compares the paper's ``P_k ∝ I_k`` grid rule against the exhaustive best
integer factorization (what `choose_stationary_grid` computes) and against a
deliberately bad 1-D grid, measuring the resulting communication of the
simulated Algorithm 3.
"""

import numpy as np

from conftest import emit
from repro.parallel.grid_selection import (
    choose_general_grid,
    choose_stationary_grid,
    factorizations,
    stationary_grid_cost,
)
from repro.parallel.stationary import stationary_mttkrp
from repro.tensor.random import random_factors, random_tensor


def test_grid_rule_vs_exhaustive(benchmark):
    """The chosen grid's cost equals the exhaustive minimum over factorizations."""
    shape, rank, n_procs = (32, 16, 8), 8, 32

    def run():
        chosen = choose_stationary_grid(shape, rank, n_procs)
        best = min(stationary_grid_cost(shape, rank, c) for c in factorizations(n_procs, 3))
        return chosen, best

    chosen, best = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stationary_grid_cost(shape, rank, chosen) == best
    emit(
        "Grid selection (exhaustive search)",
        f"  chosen grid for {shape}, P={n_procs}: {chosen} (cost {best:,} words)",
    )


def test_good_vs_bad_grid_measured(benchmark):
    """Measured communication of a balanced grid vs a 1-D grid on the simulator."""
    shape, rank, n_procs = (16, 16, 16), 8, 8
    tensor = random_tensor(shape, seed=0)
    factors = random_factors(shape, rank, seed=1)

    def run():
        good = stationary_mttkrp(tensor, factors, 0, (2, 2, 2)).max_words_communicated
        bad = stationary_mttkrp(tensor, factors, 0, (8, 1, 1)).max_words_communicated
        return good, bad

    good, bad = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Balanced vs 1-D grid (measured, P = 8)",
        f"  balanced (2,2,2): {good:,} words/rank\n  1-D     (8,1,1): {bad:,} words/rank",
    )
    assert good < bad


def test_grid_search_runtime(benchmark):
    """Wall-clock of the exhaustive grid search for P = 256 (engineering metric)."""
    shape, rank = (64, 64, 64), 16
    grid = benchmark(choose_general_grid, shape, rank, 256)
    assert int(np.prod(grid)) == 256
