"""Experiment harnesses that regenerate every figure / comparison of the paper.

Each harness returns plain data structures (lists of dataclasses / dicts) and
has a ``format_*`` companion that renders the same rows as aligned text, so
the benchmarks, the examples, and the ``python -m repro.experiments`` report
all print from one source of truth.  The experiment index is
:data:`repro.experiments.cli.EXPERIMENTS`.
"""

from repro.experiments.figure1 import figure1_projection_report, format_figure1_report
from repro.experiments.figure4 import figure4_rows, format_figure4_table
from repro.experiments.sequential_optimality import (
    sequential_optimality_rows,
    format_sequential_optimality_table,
)
from repro.experiments.parallel_optimality import (
    parallel_optimality_rows,
    format_parallel_optimality_table,
)
from repro.experiments.crossover import crossover_rows, format_crossover_table
from repro.experiments.matmul_comparison import (
    matmul_comparison_rows,
    format_matmul_comparison_table,
)

__all__ = [
    "figure1_projection_report",
    "format_figure1_report",
    "figure4_rows",
    "format_figure4_table",
    "sequential_optimality_rows",
    "format_sequential_optimality_table",
    "parallel_optimality_rows",
    "format_parallel_optimality_table",
    "crossover_rows",
    "format_crossover_table",
    "matmul_comparison_rows",
    "format_matmul_comparison_table",
]
