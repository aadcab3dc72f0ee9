"""CP-ALS whose MTTKRPs run on the simulated distributed machine.

This driver measures the communication that the MTTKRP kernels contribute to
a full CP-ALS workload: every mode update performs its MTTKRP with
Algorithm 3 (or Algorithm 4) on a :class:`~repro.parallel.SimulatedMachine`
and the per-iteration word counts are recorded.  The small dense linear
algebra of the normal equations (R x R solves and Gram updates) is treated as
replicated — its communication is lower order, exactly as in the paper's
discussion of the CP-ALS context (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.backend.parallel import resolve_threads
from repro.core.dimtree import check_invalidation
from repro.core.sweep_kernel import SweepKernel, check_kernel_name, check_state_kind
from repro.cp.als import (
    KERNELS,
    PARALLEL_KERNEL_NAMES,
    CPALSResult,
    _kernel_seed,
    cp_als,
)
from repro.exceptions import DistributionError, ParameterError
from repro.observe.tracer import trace
from repro.parallel.grid_selection import choose_general_grid, choose_stationary_grid
from repro.parallel.machine import SimulatedMachine
from repro.resilience.checkpoint import CheckpointState, CheckpointStore
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_positive_int, check_rank

class _SweepWordCounter(SweepKernel):
    """Forward the sweep protocol to the inner kernel; record per-sweep words."""

    def __init__(
        self,
        inner: SweepKernel,
        machine: SimulatedMachine,
        ndim: int,
        words_per_iteration: List[int],
    ) -> None:
        self.inner = inner
        self.machine = machine
        self.ndim = ndim
        self.words_per_iteration = words_per_iteration
        self._calls = 0
        self._words_before = 0

    def begin_sweep(self, iteration: int) -> None:
        self.inner.begin_sweep(iteration)

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        self.inner.factor_updated(mode, factor)

    def mttkrp(self, tensor, factors, mode) -> np.ndarray:
        result = self.inner.mttkrp(tensor, factors, mode)
        self._calls += 1
        if self._calls % self.ndim == 0:
            current = self.machine.max_words_communicated
            self.words_per_iteration.append(current - self._words_before)
            self._words_before = current
        return result

    # -- checkpoint/restore: forward, adding this counter's own call state.
    def capture_state(self) -> Optional[dict]:
        return {
            "kind": "sweep-word-counter",
            "calls": self._calls,
            "inner": self.inner.capture_state(),
        }

    def restore_state(self, state: Optional[dict]) -> None:
        if state is None:
            return
        check_state_kind(state, "sweep-word-counter")
        self._calls = int(state["calls"])
        # Per-sweep deltas of the resumed run are measured from the resumed
        # machine's current ledger, whatever it already accumulated.
        self._words_before = self.machine.max_words_communicated
        self.inner.restore_state(state["inner"])

    def invalidate_caches(self) -> bool:
        return self.inner.invalidate_caches()


@dataclass
class ParallelCPALSResult:
    """Outcome of a simulated-parallel CP-ALS run.

    Attributes
    ----------
    als:
        The underlying sequential-quality :class:`CPALSResult` (fits, model).
    machine:
        The simulated machine accumulating communication over all MTTKRPs.
    words_per_iteration:
        Max-per-rank words communicated in each ALS sweep.
    grids:
        The processor grid used for each mode's MTTKRP.
    algorithm:
        ``"stationary"`` or ``"general"``.
    """

    als: CPALSResult
    machine: SimulatedMachine
    words_per_iteration: List[int] = field(default_factory=list)
    grids: List[Sequence[int]] = field(default_factory=list)
    algorithm: str = "stationary"

    @property
    def total_words(self) -> int:
        """Max-per-rank words communicated over the whole run."""
        return self.machine.max_words_communicated


def parallel_cp_als(
    tensor,
    rank: int,
    n_procs: int,
    *,
    algorithm: str = "stationary",
    kernel: str = "einsum",
    n_iter_max: int = 20,
    tol: float = 1e-7,
    seed: Union[None, int, np.random.Generator] = 0,
    init: Union[str, Sequence[np.ndarray]] = "random",
    invalidation: str = "exact",
    invalidation_tol: float = 1e-2,
    threads: Optional[int] = None,
    machine: Optional[SimulatedMachine] = None,
    fault_schedule=None,
    on_fault: str = "raise",
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[CheckpointState] = None,
) -> ParallelCPALSResult:
    """Run CP-ALS with every MTTKRP executed on the simulated parallel machine.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    rank:
        Target CP rank ``R``.
    n_procs:
        Number of simulated processors ``P``.
    algorithm:
        ``"stationary"`` (Algorithm 3) or ``"general"`` (Algorithm 4).
    kernel:
        A name from :data:`~repro.cp.als.PARALLEL_KERNEL_NAMES`, built by the
        distributed factory of its :data:`~repro.cp.als.KERNELS` entry (the
        table describes each kernel).  ``"einsum"`` runs the selected
        algorithm; every other kernel requires ``algorithm="stationary"``.
        Each name fixes its sampling distribution and draw count, as in
        :func:`~repro.cp.als.cp_als`; for a caller-chosen draw count use
        :func:`repro.sketch.parallel.parallel_randomized_cp_als`.
    n_iter_max, tol, seed, init:
        Passed to the ALS driver.
    invalidation, invalidation_tol:
        Cache-invalidation policy of the dimension-tree kernels
        (``"dimtree"`` / ``"sampled-dimtree"``), mirroring
        :func:`repro.cp.als.cp_als`: ``"residual"`` gates re-gathers, Gram
        All-Reduces, and cached partials on the factor's accumulated
        relative drift instead of invalidating on every replacement.
    threads:
        Thread count for the ``"einsum"`` kernel's per-rank local MTTKRPs
        (``None`` consults ``REPRO_THREADS``, default 1); simulated ranks
        run as independent tasks, so fits, factors, and counted
        communication are bitwise identical for every value.  Validated
        for every kernel; the other kernels ignore it.
    machine:
        A pre-existing :class:`SimulatedMachine` (or
        :class:`~repro.resilience.machine.FaultyMachine`) to accumulate the
        run's communication; a fresh one is created otherwise.  Must have
        exactly ``n_procs`` ranks.
    fault_schedule:
        A :class:`~repro.resilience.faults.FaultSchedule`: the run executes
        on a :class:`~repro.resilience.machine.FaultyMachine` injecting the
        scheduled faults into every collective (mutually exclusive with an
        explicit ``machine``).  Dropped/corrupted attempts are re-driven
        with exponential backoff and charged to the machine's retry ledgers
        — delivered payloads are never corrupted, so fits and factors stay
        bitwise those of the fault-free run.
    on_fault, checkpoint_store, resume_from:
        Forwarded to :func:`repro.cp.als.cp_als` — the poisoned-MTTKRP
        policy and the checkpoint/resume protocol work identically under
        the distributed kernels.

    Returns
    -------
    ParallelCPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    if algorithm not in ("stationary", "general"):
        raise ParameterError("algorithm must be 'stationary' or 'general'")
    spec = KERNELS[check_kernel_name(kernel, PARALLEL_KERNEL_NAMES)]
    if spec.stationary_only and algorithm != "stationary":
        raise ParameterError(
            f"kernel={kernel!r} runs on the stationary distribution; use algorithm='stationary'"
        )
    check_invalidation(invalidation, invalidation_tol)
    threads = resolve_threads(threads)

    if machine is not None and fault_schedule is not None:
        raise ParameterError(
            "pass either a pre-built machine or a fault_schedule, not both "
            "(build a FaultyMachine yourself to combine them)"
        )
    if machine is None:
        if fault_schedule is not None:
            # Lazy import: repro.resilience layers on the parallel machine.
            from repro.resilience.machine import FaultyMachine

            machine = FaultyMachine(n_procs, fault_schedule)
        else:
            machine = SimulatedMachine(n_procs)
    elif machine.n_procs != n_procs:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but n_procs={n_procs}"
        )
    grids: List[Sequence[int]] = []
    if algorithm == "stationary":
        grid = choose_stationary_grid(data.shape, rank, n_procs)
    else:
        grid = choose_general_grid(data.shape, rank, n_procs)
    grids.append(grid)

    words_per_iteration: List[int] = []
    inner = spec.distributed(
        grid, machine, algorithm, _kernel_seed(seed), invalidation, invalidation_tol, threads
    )

    with trace(
        "parallel-als",
        kernel=kernel,
        algorithm=algorithm,
        n_procs=n_procs,
        grid=[int(g) for g in grid],
    ):
        als_result = cp_als(
            data,
            rank,
            n_iter_max=n_iter_max,
            tol=tol,
            seed=seed,
            init=init,
            kernel=_SweepWordCounter(inner, machine, data.ndim, words_per_iteration),
            on_fault=on_fault,
            checkpoint_store=checkpoint_store,
            resume_from=resume_from,
        )
    return ParallelCPALSResult(
        als=als_result,
        machine=machine,
        words_per_iteration=words_per_iteration,
        grids=grids,
        algorithm=algorithm,
    )
