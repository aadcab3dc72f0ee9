"""Thread-parallel task executor shared by the chunked sparse kernel and the
simulated parallel algorithms.

The chunked sparse MTTKRP of :mod:`repro.tensor.sparse` and the per-rank
local MTTKRPs of Algorithms 3 and 4 (:mod:`repro.parallel.stationary`,
:mod:`repro.parallel.general`) decompose their work into *independent*
tasks and run them through :func:`parallel_map`.  The executor's contract is
deliberately stronger than "runs things concurrently":

* **Results are returned in task-index order**, whatever order the tasks
  finished in.
* **The arithmetic performed is identical for every thread count** (including
  the inline ``threads=1`` path): a task computes the same values no matter
  which worker runs it, and any cross-task accumulation goes through
  :func:`ordered_reduce` — a *fixed-order* linear reduction tree that folds
  partial results in task order on the calling thread.  Folding partial ``i``
  into an accumulator that started from partial ``0`` reproduces the serial
  left-to-right accumulation bit for bit (IEEE-754 addition of the first
  operand onto a fresh zero buffer is exact), so the threaded paths are
  bitwise equal to their serial counterparts for any thread count.  This is
  the same determinism discipline the chunked sparse kernel's single-chunk
  fallback already follows, lifted to the thread dimension.

Thread counts resolve through :func:`resolve_threads`: an explicit argument
wins, otherwise the ``REPRO_THREADS`` environment variable, otherwise 1
(serial).  :func:`effective_cpu_count` reports the cores the process may
actually use (CPU affinity aware) — the quantity the sparse wall-clock model
of :mod:`repro.costmodel.kernel_timing` uses to predict whether threading
can pay at all: on a single-core machine it never does, and the model says
so.

Worker tasks must not touch the observability layer (the tracer's span stack
is context-local to the calling thread); callers tally chunk/task counters in
bulk from the coordinating thread instead.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int

__all__ = [
    "THREADS_ENV_VAR",
    "MAX_THREADS",
    "effective_cpu_count",
    "resolve_threads",
    "parallel_map",
    "ordered_reduce",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit thread count is given —
#: the knob the CI threaded leg sets (``REPRO_THREADS=4``).
THREADS_ENV_VAR = "REPRO_THREADS"

#: Upper bound on accepted thread counts: far above any sensible request,
#: low enough that a typo (``REPRO_THREADS=400``) fails loudly instead of
#: spawning hundreds of workers.
MAX_THREADS = 128


def effective_cpu_count() -> int:
    """CPU cores this process may run on (affinity-aware, at least 1)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def resolve_threads(threads: Optional[int] = None) -> int:
    """Resolve a thread-count request to a validated positive integer.

    ``None`` falls back to the :data:`THREADS_ENV_VAR` environment variable
    (itself defaulting to 1 when unset or empty).  A fractional or boolean
    count is rejected, not truncated.  The result is *not*
    clamped to the machine's core count: requesting more threads than cores
    is legal (the kernels stay bitwise identical), merely unprofitable — the
    cost model, not the resolver, is the judge of what pays.
    """
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise ParameterError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
    threads = check_positive_int(threads, "threads")
    if threads > MAX_THREADS:
        raise ParameterError(
            f"threads must be in [1, {MAX_THREADS}], got {threads}"
        )
    return threads


#: Shared executors keyed by worker count.  Pool threads are started once and
#: reused across kernel calls (an MTTKRP inside an ALS sweep runs thousands
#: of times; per-call pool construction would dominate small problems).
_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _executor(workers: int) -> ThreadPoolExecutor:
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-chunk-{workers}"
            )
            _EXECUTORS[workers] = pool
        return pool


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], *, threads: Optional[int] = None
) -> List[R]:
    """Apply ``fn`` to every item, possibly on worker threads; ordered results.

    ``threads`` resolves through :func:`resolve_threads`; a resolved count of
    1 (or fewer items than 2) runs inline on the calling thread — the same
    code path, no executor involved.  Tasks must be independent: they may not
    rely on execution order, and any shared accumulation must happen on the
    caller's side (see :func:`ordered_reduce`).  The first task exception is
    re-raised after all submitted tasks have settled.
    """
    threads = resolve_threads(threads)
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(threads, len(items))
    futures = [_executor(workers).submit(fn, item) for item in items]
    results: List[R] = []
    first_error: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return results


def ordered_reduce(partials: Sequence, combine: Callable) -> object:
    """Fold ``partials`` left to right with ``combine`` (fixed reduction order).

    The reduction tree is linear and fixed by task index — independent of
    which threads produced the partials and of the thread count — so a
    threaded kernel that accumulates through this function is bitwise
    deterministic.  ``combine(accumulator, partial)`` may update the
    accumulator in place and must return it.
    """
    partials = list(partials)
    if not partials:
        raise ParameterError("ordered_reduce needs at least one partial result")
    accumulator = partials[0]
    for partial in partials[1:]:
        accumulator = combine(accumulator, partial)
    return accumulator
