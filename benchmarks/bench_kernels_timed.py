"""Timed sparse MTTKRP kernel races: chunked vs. legacy ``np.add.at``.

Records ``benchmarks/BENCH_kernels_timed.json`` (a *timed* record like
``als_dimtree_timing.json``: wall-clock numbers vary run to run, so the file
is gitignored and never byte-checked in CI).  Every row races the unchunked
reference kernel against the chunked kernel (for the threaded rows, at every
requested thread count).  Every candidate takes the median of at
least three repetitions (:func:`repro.observe.median_time`) with
per-repetition p50/p99 sourced from the tracer's span histograms, and then
the wall-clock model of :mod:`repro.costmodel.kernel_timing` is held against
reality:

* the modelled winner must equal the measured winner on **every** row,
* at least one row must have the chunked kernel beating ``np.add.at``, and
* on a multi-core machine, at least one row must have a threaded candidate
  beating serial execution.  On a single-core machine a threaded candidate
  can never genuinely win — the core-count-aware model predicts exactly
  that, so threaded rows there demonstrate the model pricing executor
  dispatch and partial-fold overhead correctly instead; rows that *need*
  real parallelism to be decisive are skipped and recorded with a reason.

Environment knobs (CI-friendly, mirroring the other benchmarks' style):

``BENCH_KERNELS_QUICK=1``
    Run only the decisive quick rows (chunked/unchunked wins, one
    threaded-overhead row).
``BENCH_KERNELS_TIMED_JSON=/path/to.json``
    Output path override.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from conftest import emit
from repro.backend.parallel import effective_cpu_count
from repro.costmodel.kernel_timing import (
    UNCHUNKED_LABEL,
    chunked_label,
    predicted_sparse_timings,
)
from repro.observe.tracer import median_time, trace, tracing
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor, sparse_mttkrp, sparse_mttkrp_unchunked

REPEATS = 3

#: name, shape, nnz, rank, forced (nzchunk, rchunk) or None for the machine
#: model's choice, thread counts to race, minimum cores the row needs to be
#: decisive, and (in the comments) the regime the row demonstrates.
SPARSE_CASES = [
    # Large nonzero count at full rank: the dense (nnz, R) temporary of the
    # legacy path spills fast memory and buffered np.add.at crawls — the
    # regime the chunked kernel exists for.
    ("large-3way", (200, 200, 200), 200_000, 32, None, (1,), 1),
    # Tiny problem with deliberately tiny forced chunks: per-chunk Python
    # overhead dominates and the single-pass path wins.
    ("tiny-forced-chunks", (60, 60, 60), 2_000, 8, (64, 2), (1,), 1),
    # Wider-than-cache mid-rank sweep and a 4-way tensor, both on the machine
    # model's default chunks (full mode only).
    ("wide-3way", (300, 300, 300), 400_000, 16, None, (1,), 1),
    ("4way", (40, 40, 40, 40), 100_000, 24, None, (1,), 1),
    # Forced tiny chunks with 2 threads: hundreds of tasks, each paying
    # dispatch plus a zeroed-and-folded partial accumulator.  On one core
    # the serial chunked path wins decisively (the model prices the thread
    # overhead); with real cores the compute halves and t2 takes the row.
    ("threaded-tiny-chunks", (200, 200, 200), 200_000, 32, (2_000, 8), (1, 2), 1),
    # Default chunks with 2 threads: only ~20 fat tasks, so the serial/t2
    # margin is pure parallel speedup — decisive only with real cores.
    ("threaded-large", (200, 200, 200), 200_000, 32, None, (1, 2), 2),
]

QUICK_CASE_NAMES = (
    "large-3way",
    "tiny-forced-chunks",
    "threaded-tiny-chunks",
)


def _sparse_problem(shape, nnz, rank, seed):
    rng = np.random.default_rng(seed)
    coords = np.stack(
        [rng.integers(0, dim, size=nnz) for dim in shape], axis=1
    )
    values = rng.standard_normal(nnz)
    tensor = SparseTensor(shape=shape, coords=coords, values=values)
    factors = random_factors(shape, rank, seed=seed + 1)
    return tensor, factors


def _race(candidates):
    """Median-time every candidate once warmed; cross-check the results."""
    measured = {}
    percentiles = {}
    reference = None
    with tracing() as session:
        for label, fn in candidates.items():
            # Warm once outside the timed repetitions (einsum path
            # planning) so the medians time the steady state.
            warm = fn()
            if reference is None:
                reference = warm
            else:
                np.testing.assert_allclose(warm, reference, atol=1e-12, rtol=0.0)

            def traced(label=label, fn=fn):
                with trace(label):
                    return fn()

            seconds, _ = median_time(traced, repeats=REPEATS)
            measured[label] = seconds
            summary = session.metrics.histogram_summary(f"span.{label}.seconds")
            percentiles[label] = {"p50": summary["p50"], "p99": summary["p99"]}
    return measured, percentiles


def _race_sparse_row(name, shape, nnz, rank, forced, threads_options, seed):
    tensor, factors = _sparse_problem(shape, nnz, rank, seed)
    nzchunk, rchunk = forced if forced else (None, None)
    mode = 0

    candidates = {UNCHUNKED_LABEL: lambda: sparse_mttkrp_unchunked(tensor, factors, mode)}
    for threads in threads_options:
        candidates[chunked_label(threads)] = lambda t=threads: sparse_mttkrp(
            tensor, factors, mode, nzchunk=nzchunk, rchunk=rchunk, threads=t
        )

    measured, percentiles = _race(candidates)
    predicted = predicted_sparse_timings(
        nnz,
        rank,
        len(shape),
        nzchunk=nzchunk,
        rchunk=rchunk,
        threads_options=threads_options,
        out_rows=shape[mode],
    )
    return {
        "kind": "sparse",
        "case": name,
        "shape": list(shape),
        "nnz": nnz,
        "rank": rank,
        "nzchunk": nzchunk,
        "rchunk": rchunk,
        "threads_options": list(threads_options),
        "median_seconds": measured,
        "span_percentiles": percentiles,
        "predicted_seconds": predicted,
        "measured_winner": min(measured, key=measured.get),
        "predicted_winner": min(predicted, key=predicted.get),
    }


def _winner_threads(label):
    """Thread count encoded in a timing label (1 for serial labels)."""
    if ":t" in label:
        return int(label.rsplit(":t", 1)[1])
    return 1


def test_bench_kernels_timed_json():
    """Race the kernels, record the JSON, and hold the model to its winners."""
    quick = os.environ.get("BENCH_KERNELS_QUICK", "") not in ("", "0")
    cores = effective_cpu_count()

    rows = []
    skipped_rows = []
    for name, shape, nnz, rank, forced, threads_options, min_cores in SPARSE_CASES:
        if quick and name not in QUICK_CASE_NAMES:
            continue
        if cores < min_cores:
            skipped_rows.append(
                {"case": name, "reason": f"needs >= {min_cores} cores, have {cores}"}
            )
            continue
        rows.append(
            _race_sparse_row(name, shape, nnz, rank, forced, threads_options, seed=5)
        )

    target = Path(
        os.environ.get(
            "BENCH_KERNELS_TIMED_JSON",
            Path(__file__).parent / "BENCH_kernels_timed.json",
        )
    )
    payload = {
        "note": "timed record (wall-clock medians): not byte-checked in CI",
        "repeats": REPEATS,
        "quick": quick,
        "cpu_count": cores,
        "rows": rows,
        "skipped_rows": skipped_rows,
    }
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    lines = []
    for row in rows:
        timing = "  ".join(
            f"{label} {seconds * 1e3:9.3f}ms" for label, seconds in row["median_seconds"].items()
        )
        lines.append(
            f"  {row['case']:>20} {timing}  winner={row['measured_winner']}"
            f" (predicted {row['predicted_winner']})"
        )
    for row in skipped_rows:
        lines.append(f"  {row['case']:>20} skipped: {row['reason']}")
    emit("timed MTTKRP kernel races", "\n".join(lines))

    # The cost model must call every recorded row correctly, and the chunked
    # kernel must demonstrably beat the legacy np.add.at path somewhere.
    for row in rows:
        assert row["predicted_winner"] == row["measured_winner"], row["case"]
    assert any(
        row["measured_winner"] != UNCHUNKED_LABEL for row in rows
    ), "no recorded configuration where the chunked kernel wins"
    # Threaded candidates can only genuinely win with real cores; on a
    # single-core machine the model predicts (and the rows confirm) that
    # serial execution keeps every row.
    if cores > 1:
        assert any(
            _winner_threads(row["measured_winner"]) > 1 for row in rows
        ), "multi-core machine but no recorded row where threads > 1 wins"

