"""Wall-clock model of the sparse MTTKRP execution paths.

Unlike the counted models in the rest of this subpackage, this module
predicts *seconds*: which execution path of
:func:`repro.tensor.sparse.sparse_mttkrp` — the legacy ``np.add.at`` kernel
or the chunked scatter kernel, serial or thread-parallel — wins on a given
problem.  The model has deliberately few terms, each tied to a mechanism the
implementation actually exhibits:

* every sparse path streams ``nnz * R`` elements through ``N - 1``
  factor-gather multiplies
  (:attr:`KernelTimingParams.stream_seconds_per_element`);
* the unchunked path's ``np.add.at`` scatter is fast while its dense
  ``(nnz, R)`` temporary fits in cache and an order of magnitude slower once
  it spills (the very blow-up the chunked kernel exists to avoid) — a
  two-level memory model in the spirit of
  :mod:`repro.sequential.block_size`, with the same default capacity;
* the chunked path pays a constant per-element scatter rate (per-column
  ``np.bincount``) plus per-chunk Python-loop and per-scatter-call
  overheads that dominate only when chunks are tiny;
* the thread-parallel chunked path divides the releases-the-GIL compute by
  ``min(threads, cpu_count)`` and pays per-task executor dispatch plus
  zeroing and folding one partial accumulator per task — on a single-core
  machine the model therefore never picks a threaded candidate.

The constants are hard-coded, not calibrated on the running host.
``benchmarks/bench_kernels_timed.py`` races the paths, records
``benchmarks/BENCH_kernels_timed.json``, and asserts that the modelled
winner matches the measured winner on every recorded row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.sequential.block_size import (
    DEFAULT_SPARSE_CHUNK_MEMORY_WORDS,
    choose_sparse_chunks,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "KernelTimingParams",
    "predicted_sparse_mttkrp_seconds",
    "predicted_sparse_timings",
    "predict_sparse_winner",
]

#: Kernel labels used by :func:`predicted_sparse_timings` /
#: :func:`predict_sparse_winner`: the legacy path is ``"unchunked"``, the
#: chunked path is ``"chunked"`` (with a ``:t<threads>`` suffix for
#: thread-parallel chunk execution).
UNCHUNKED_LABEL = "unchunked"


def chunked_label(threads: int = 1) -> str:
    """The timing-table label of the chunked kernel at ``threads``.

    Serial execution is ``"chunked"``; thread-parallel chunk execution
    appends ``":t<threads>"``.
    """
    if threads > 1:
        return f"chunked:t{threads}"
    return "chunked"


def _effective_cores(params: "KernelTimingParams") -> int:
    if params.cpu_count is not None:
        return max(1, int(params.cpu_count))
    from repro.backend.parallel import effective_cpu_count

    return effective_cpu_count()


@dataclass(frozen=True)
class KernelTimingParams:
    """Calibration constants of the sparse-kernel wall-clock model.

    All per-element rates are seconds per double-precision element on the
    calibration machine; see the module docstring for which mechanism each
    term models.
    """

    #: Seconds per element per factor-gather multiply (paid ``N - 1`` times
    #: per element by every path).
    stream_seconds_per_element: float = 1.5e-9
    #: ``np.add.at`` seconds per element while the dense ``(nnz, R)``
    #: temporary fits in ``cache_words``.
    addat_seconds_in_cache: float = 1.0e-9
    #: ``np.add.at`` seconds per element once the temporary spills.
    addat_seconds_out_of_cache: float = 2.1e-8
    #: Per-element scatter rate of the chunked kernel.
    scatter_seconds_per_element: float = 6.0e-9
    #: Fixed cost of one scatter call (one ``np.bincount`` per block column).
    scatter_call_seconds: float = 2.5e-7
    #: Python-loop overhead per (nzchunk, rchunk) block.
    chunk_overhead_seconds: float = 5.0e-7
    #: Cache capacity (words) separating the two ``np.add.at`` regimes;
    #: defaults to the machine model's sparse-chunk budget.
    cache_words: int = DEFAULT_SPARSE_CHUNK_MEMORY_WORDS
    #: Executor dispatch cost per thread task (submit + future result).
    thread_task_seconds: float = 2.0e-5
    #: Per-word cost of zeroing and folding one thread task's partial
    #: accumulator (paid twice per partial word: memset and ordered add).
    thread_fold_seconds_per_element: float = 2.0e-9
    #: Cores available to the thread executor; ``None`` means ask
    #: :func:`repro.backend.parallel.effective_cpu_count` at prediction time.
    #: Threaded candidates only model a speedup for ``min(threads, cpu_count)
    #: > 1`` — on a single-core machine they always lose.
    cpu_count: Optional[int] = None


def _resolved_chunks(
    nnz: int, rank: int, n_modes: int, nzchunk: Optional[int], rchunk: Optional[int]
) -> Tuple[int, int]:
    if nzchunk is None or rchunk is None:
        default_nz, default_r = choose_sparse_chunks(n_modes, rank)
        nzchunk = default_nz if nzchunk is None else nzchunk
        rchunk = default_r if rchunk is None else rchunk
    return check_positive_int(nzchunk, "nzchunk"), check_positive_int(rchunk, "rchunk")


def predicted_sparse_mttkrp_seconds(
    nnz: int,
    rank: int,
    n_modes: int,
    *,
    kernel: str = "chunked",
    nzchunk: Optional[int] = None,
    rchunk: Optional[int] = None,
    threads: int = 1,
    out_rows: Optional[int] = None,
    params: Optional[KernelTimingParams] = None,
) -> float:
    """Modelled wall-clock seconds of one sparse MTTKRP.

    Parameters
    ----------
    nnz, rank, n_modes:
        Problem size: stored nonzeros, CP rank ``R``, tensor order ``N``.
    kernel:
        ``"unchunked"`` (the legacy ``np.add.at`` path) or ``"chunked"``.
    nzchunk, rchunk:
        Chunk sizes of the chunked kernel; defaults come from
        :func:`repro.sequential.block_size.choose_sparse_chunks`, exactly as
        in the implementation.  When both cover the whole problem the
        implementation falls back to the unchunked path bit-for-bit, and so
        does the model.
    threads:
        Thread count of the chunked kernel's z-block tasks.  ``threads > 1``
        divides the GIL-releasing compute by ``min(threads, cpu_count)`` and
        adds per-task dispatch plus the zero/fold cost of one
        ``(out_rows, rchunk)`` partial accumulator per task — the structural
        price of the bitwise-deterministic ordered reduction.
    out_rows:
        Output-mode extent ``I_mode``; required when ``threads > 1`` (it
        sizes the partial accumulators), ignored otherwise.
    params:
        Calibration constants (default :class:`KernelTimingParams`).
    """
    if params is None:
        params = KernelTimingParams()
    nnz = int(nnz)
    if nnz < 0:
        raise ParameterError("nnz must be non-negative")
    rank = check_positive_int(rank, "rank")
    n_modes = check_positive_int(n_modes, "n_modes")
    threads = check_positive_int(threads, "threads")
    if kernel not in ("chunked", UNCHUNKED_LABEL):
        raise ParameterError(f"kernel must be 'chunked' or 'unchunked', got {kernel!r}")
    if nnz == 0:
        return 0.0

    elements = nnz * rank
    stream = params.stream_seconds_per_element * (n_modes - 1) * elements

    if kernel == UNCHUNKED_LABEL:
        rate = (
            params.addat_seconds_in_cache
            if elements <= params.cache_words
            else params.addat_seconds_out_of_cache
        )
        return stream + rate * elements

    nzchunk, rchunk = _resolved_chunks(nnz, rank, n_modes, nzchunk, rchunk)
    if nzchunk >= nnz and rchunk >= rank:
        # The implementation dispatches to the unchunked path verbatim.
        return predicted_sparse_mttkrp_seconds(
            nnz, rank, n_modes, kernel=UNCHUNKED_LABEL, params=params
        )
    n_z = math.ceil(nnz / nzchunk)
    n_r = math.ceil(rank / rchunk)
    # One bincount per block column.
    n_calls = n_z * rank
    compute = (
        stream
        + params.scatter_seconds_per_element * elements
        + params.scatter_call_seconds * n_calls
    )
    overhead = params.chunk_overhead_seconds * n_z * n_r
    if threads == 1:
        return compute + overhead
    if out_rows is None:
        raise ParameterError("out_rows is required for a threaded prediction")
    out_rows = check_positive_int(out_rows, "out_rows")
    n_tasks = n_z * n_r
    # Each task zeroes a (out_rows, min(rchunk, rank)) partial and the
    # coordinator folds it back in submission order: two passes per word.
    partial_words = n_tasks * out_rows * min(rchunk, rank)
    fold = 2.0 * params.thread_fold_seconds_per_element * partial_words
    dispatch = params.thread_task_seconds * n_tasks
    return compute / min(threads, _effective_cores(params)) + overhead + fold + dispatch


def predicted_sparse_timings(
    nnz: int,
    rank: int,
    n_modes: int,
    *,
    nzchunk: Optional[int] = None,
    rchunk: Optional[int] = None,
    threads_options: Sequence[int] = (1,),
    out_rows: Optional[int] = None,
    params: Optional[KernelTimingParams] = None,
) -> Dict[str, float]:
    """Modelled seconds of every candidate kernel, keyed by timing label.

    ``threads_options`` adds one chunked candidate per thread count (see
    :func:`chunked_label`); ``out_rows`` is required as soon as any option
    exceeds 1.
    """
    timings = {
        UNCHUNKED_LABEL: predicted_sparse_mttkrp_seconds(
            nnz, rank, n_modes, kernel=UNCHUNKED_LABEL, params=params
        )
    }
    for threads in threads_options:
        timings[chunked_label(threads)] = predicted_sparse_mttkrp_seconds(
            nnz,
            rank,
            n_modes,
            kernel="chunked",
            nzchunk=nzchunk,
            rchunk=rchunk,
            threads=threads,
            out_rows=out_rows,
            params=params,
        )
    return timings


def predict_sparse_winner(
    nnz: int,
    rank: int,
    n_modes: int,
    *,
    nzchunk: Optional[int] = None,
    rchunk: Optional[int] = None,
    threads_options: Sequence[int] = (1,),
    out_rows: Optional[int] = None,
    params: Optional[KernelTimingParams] = None,
) -> str:
    """The timing label the model expects to win (minimum modelled seconds)."""
    timings = predicted_sparse_timings(
        nnz,
        rank,
        n_modes,
        nzchunk=nzchunk,
        rchunk=rchunk,
        threads_options=threads_options,
        out_rows=out_rows,
        params=params,
    )
    return min(timings, key=timings.get)
