"""Command-line reproduction driver.

``python -m repro.experiments`` regenerates every paper artifact in one go
and prints (or writes to a file) the same tables that the benchmarks emit,
so a reader can produce the full paper-vs-measured record without pytest.

Individual experiments can be selected by id (the keys of ``EXPERIMENTS``)::

    python -m repro.experiments --only fig4-strong-scaling tab-crossover
    python -m repro.experiments --quick --output report.txt
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.crossover import crossover_rows, format_crossover_table
from repro.experiments.fault_sweep import fault_sweep_rows, format_fault_sweep_table
from repro.experiments.figure1 import format_figure1_report
from repro.experiments.figure4 import figure4_rows, format_figure4_table
from repro.experiments.matmul_comparison import (
    format_matmul_comparison_table,
    matmul_comparison_rows,
)
from repro.experiments.parallel_optimality import (
    format_parallel_optimality_table,
    parallel_optimality_rows,
)
from repro.experiments.sequential_optimality import (
    format_sequential_optimality_table,
    sequential_optimality_rows,
)
from repro.experiments.sketch_crossover import (
    format_sketch_crossover_table,
    sketch_crossover_rows,
)
from repro.experiments.sketch_parallel import (
    format_sketch_parallel_table,
    sketch_parallel_rows,
)


def _run_figure1(quick: bool) -> str:  # noqa: ARG001 - uniform signature
    return format_figure1_report()


def _run_figure4(quick: bool) -> str:
    summary = figure4_rows(log2_p_max=24 if quick else 30)
    return format_figure4_table(summary)


def _run_sequential(quick: bool) -> str:
    memory_sizes = [64, 256, 1024] if quick else [64, 128, 256, 512, 1024, 2048]
    rows = sequential_optimality_rows(memory_sizes=memory_sizes)
    return format_sequential_optimality_table(rows)


def _run_parallel(quick: bool) -> str:
    counts = [2, 4, 8] if quick else [2, 4, 8, 16, 32, 64]
    rows = parallel_optimality_rows(processor_counts=counts)
    return format_parallel_optimality_table(rows)


def _run_crossover(quick: bool) -> str:
    configurations = None
    if quick:
        configurations = [((2**8, 2**8, 2**8), 2**6)]
    rows = crossover_rows(configurations=configurations, log2_p_max=24 if quick else 30)
    return format_crossover_table(rows)


def _run_matmul(quick: bool) -> str:  # noqa: ARG001 - uniform signature
    return format_matmul_comparison_table(matmul_comparison_rows())


def _run_sketch_crossover(quick: bool) -> str:
    if quick:
        rows = sketch_crossover_rows(
            shape=(24, 24, 24),
            rank=4,
            draw_counts=[200, 1000],
            distributions=("leverage", "product-leverage", "tree-leverage"),
        )
    else:
        rows = sketch_crossover_rows()
    return format_sketch_crossover_table(rows)


def _run_fault_sweep(quick: bool) -> str:
    if quick:
        rows = fault_sweep_rows(
            shape=(6, 6, 4),
            rank=2,
            n_sweeps=3,
            kernels=("einsum", "dimtree"),
            fault_counts=(0, 3),
        )
    else:
        rows = fault_sweep_rows()
    return format_fault_sweep_table(rows)


def _run_sketch_parallel(quick: bool) -> str:
    if quick:
        rows = sketch_parallel_rows(
            shape=(8, 9, 10),
            rank=4,
            processor_counts=[2, 6],
            draw_counts=[8, 32],
            distributions=("uniform", "tree-leverage"),
        )
    else:
        rows = sketch_parallel_rows()
    return format_sketch_parallel_table(rows)


#: Experiment id -> harness.
EXPERIMENTS: Dict[str, Callable[[bool], str]] = {
    "fig1-projections": _run_figure1,
    "fig4-strong-scaling": _run_figure4,
    "tab-seq-optimality": _run_sequential,
    "tab-par-optimality": _run_parallel,
    "tab-crossover": _run_crossover,
    "tab-matmul-factors": _run_matmul,
    "sketch-crossover": _run_sketch_crossover,
    "sketch-parallel": _run_sketch_parallel,
    "fault-sweep": _run_fault_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and comparisons.",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        help="run only the listed experiment ids (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use reduced sweeps so everything finishes in a few seconds",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the report to this file instead of stdout",
    )
    return parser


def run_experiments(only: Optional[Sequence[str]] = None, *, quick: bool = False) -> str:
    """Run the selected experiments and return the combined text report."""
    selected = list(only) if only else sorted(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")
    sections: List[str] = []
    for name in selected:
        banner = "=" * max(len(name), 20)
        sections.append(f"{banner}\n{name}\n{banner}\n{EXPERIMENTS[name](quick)}")
    return "\n\n".join(sections) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Subcommand dispatch happens before the flat parser so the established
    # flag-only invocations (e.g. ``--only sketch-parallel --quick``) are
    # untouched; ``trace-report`` owns its own argument parser.
    if argv and argv[0] == "trace-report":
        from repro.experiments.trace_report import trace_report_main

        return trace_report_main(argv[1:])
    args = build_parser().parse_args(argv)
    report = run_experiments(args.only, quick=args.quick)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote report to {args.output}")
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
