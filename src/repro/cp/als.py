"""Dense CP-ALS with a pluggable MTTKRP kernel.

The alternating least squares algorithm (Section II-A of the paper) fixes all
factor matrices except one and solves the linear least-squares problem for
the free one via the normal equations:

    ``A^(n) <- MTTKRP(X, {A^(k)}, n) @ pinv( hadamard_{k != n} A^(k)T A^(k) )``

The MTTKRP dominates the cost; which kernel evaluates it is selectable so the
same driver exercises the vectorised kernel, the matmul baseline, or a
user-supplied (e.g. counted) kernel.  :data:`KERNELS` is the one table of
named kernels: each entry builds the kernel :func:`cp_als` runs and, where
one exists, the distributed kernel
:func:`repro.cp.parallel_als.parallel_cp_als` runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dimtree import DimensionTreeKernel, check_invalidation
from repro.core.kernels import mttkrp
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.core.sweep_kernel import (
    PerCallKernel,
    SweepKernel,
    as_sweep_kernel,
    check_kernel_name,
)
from repro.cp.initialization import initialize_factors
from repro.exceptions import ConvergenceWarning, FaultError, ParameterError
from repro.observe.instrument import inc as observe_inc
from repro.observe.tracer import trace
from repro.parallel.dimtree import DistributedDimtreeKernel
from repro.parallel.general import general_mttkrp
from repro.parallel.stationary import stationary_mttkrp
from repro.resilience.checkpoint import CheckpointState, CheckpointStore
from repro.tensor.dense import as_ndarray
from repro.tensor.kruskal import KruskalTensor
from repro.utils.validation import check_factor_matrices, check_positive_int, check_rank

#: Signature of a pluggable MTTKRP kernel: (tensor, factors, mode) -> (I_mode, R) array.
MTTKRPKernel = Callable[[np.ndarray, Sequence[Optional[np.ndarray]], int], np.ndarray]

#: Graceful-degradation policies for a poisoned (non-finite) MTTKRP output.
FAULT_POLICIES = ("raise", "retry", "degrade")


def _check_finite(name: str, array: np.ndarray) -> None:
    """Reject NaN/Inf inputs up front (they silently poison every sweep)."""
    if not np.all(np.isfinite(array)):
        raise ParameterError(f"{name} contains non-finite values (NaN or Inf)")


def _solve_normal_equations(gram: np.ndarray, b: np.ndarray, rank: int) -> np.ndarray:
    """Solve the normal equations ``factor @ gram = b``, clean solve first.

    The historical unconditional ``1e-12`` ridge perturbed every factor at
    the regularizer's scale even when the Gram was perfectly conditioned.
    Now the escalation is: clean ``solve``; on ``LinAlgError`` or non-finite
    output, least squares (counted as ``als.solve.fallback``); only if that
    also fails, the ridge (counted as ``als.solve.ridge``).
    """
    try:
        factor = np.linalg.solve(gram.T, b.T).T
        if np.all(np.isfinite(factor)):
            return factor
    except np.linalg.LinAlgError:
        pass
    observe_inc("als.solve.fallback")
    try:
        factor = np.linalg.lstsq(gram.T, b.T, rcond=None)[0].T
        if np.all(np.isfinite(factor)):
            return factor
    except np.linalg.LinAlgError:
        pass
    observe_inc("als.solve.ridge")
    return np.linalg.solve(gram.T + 1e-12 * np.eye(rank), b.T).T


def _recover_mttkrp(
    sweep_kernel: SweepKernel,
    data: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    on_fault: str,
) -> Tuple[np.ndarray, int]:
    """Apply the ``on_fault`` policy to a poisoned (non-finite) MTTKRP.

    Returns the recovered MTTKRP and the number of extra kernel evaluations
    performed.  ``"retry"`` invalidates the kernel's caches through its
    staleness authority and recomputes; if that cannot help (cache-less
    kernel, or the recompute is still poisoned) it degrades — like
    ``"degrade"`` — to the exact einsum kernel on the raw tensor.
    """
    observe_inc("fault.detected")
    if on_fault == "raise":
        raise FaultError(
            f"MTTKRP for mode {mode} produced non-finite values (poisoned "
            "kernel cache?); rerun with on_fault='retry' to recover"
        )
    extra_calls = 0
    with trace("recovery", mode=mode, policy=on_fault):
        observe_inc("recovery.attempt")
        if on_fault == "retry" and sweep_kernel.invalidate_caches():
            b = sweep_kernel.mttkrp(data, factors, mode)
            extra_calls += 1
            if np.all(np.isfinite(b)):
                observe_inc("recovery.recovered")
                return b, extra_calls
        # Graceful degradation: the exact einsum kernel on the raw tensor.
        b = mttkrp(data, factors, mode)
        extra_calls += 1
        if not np.all(np.isfinite(b)):
            raise FaultError(
                f"exact-kernel fallback for mode {mode} still produced "
                "non-finite values; the tensor or factors themselves are corrupted"
            )
        observe_inc("recovery.degraded")
    return b, extra_calls


@dataclass
class CPALSResult:
    """Outcome of a CP-ALS run.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.tensor.kruskal.KruskalTensor` (normalised).
    fits:
        Fit value ``1 - ||X - X_hat|| / ||X||`` after each iteration.
    n_iterations:
        Number of completed ALS sweeps.
    converged:
        Whether the fit change dropped below the tolerance before ``max_iter``.
    mttkrp_calls:
        Total number of MTTKRP invocations performed.
    """

    model: KruskalTensor
    fits: List[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    mttkrp_calls: int = 0

    @property
    def final_fit(self) -> float:
        """Fit after the last iteration (0.0 if no iteration ran)."""
        return self.fits[-1] if self.fits else 0.0


def _kernel_seed(
    seed: Union[None, int, np.random.Generator],
) -> Union[None, np.random.Generator, np.random.SeedSequence]:
    """Independent stream for a sampled kernel's draws (not the init's bits)."""
    if seed is None or isinstance(seed, np.random.Generator):
        return seed
    return np.random.SeedSequence(seed).spawn(1)[0]


@dataclass(frozen=True)
class KernelSpec:
    """How the two ALS drivers build one named MTTKRP kernel.

    ``sequential(seed, invalidation, tol)`` builds the :func:`cp_als` kernel;
    ``distributed(grid, machine, algorithm, seed, invalidation, tol, threads)``
    builds the :func:`~repro.cp.parallel_als.parallel_cp_als` kernel
    (``None``: the kernel has no distributed form).  ``seed`` is the
    kernel's own stream (:func:`_kernel_seed`), so the draws are not the bits
    the initialisation consumes.  A ``stationary_only`` kernel runs on
    Algorithm 3's stationary distribution only, never Algorithm 4's.
    """

    sequential: Callable[..., SweepKernel]
    distributed: Optional[Callable[..., SweepKernel]] = None
    stationary_only: bool = True


def _einsum(seed, invalidation, tol) -> SweepKernel:
    # Looked up at call time, not bound at import, so wrappers installed on
    # this module's ``mttkrp`` see every call.
    return PerCallKernel(lambda tensor, factors, mode: mttkrp(tensor, factors, mode))


def _einsum_distributed(
    grid, machine, algorithm, seed, invalidation, tol, threads
) -> SweepKernel:
    algorithm_mttkrp = stationary_mttkrp if algorithm == "stationary" else general_mttkrp

    def kernel(local_tensor, factors, mode):
        return algorithm_mttkrp(
            local_tensor, factors, mode, grid, machine=machine, threads=threads
        ).assemble()

    return PerCallKernel(kernel)


def _matmul(seed, invalidation, tol) -> SweepKernel:
    return PerCallKernel(mttkrp_via_matmul)


def _dimtree(seed, invalidation, tol) -> SweepKernel:
    # A fresh engine per run: the tree binds to the run's tensor on the first
    # call and caches partial contractions across the whole run.
    return DimensionTreeKernel(invalidation=invalidation, residual_tol=tol)


def _dimtree_distributed(
    grid, machine, algorithm, seed, invalidation, tol, threads
) -> SweepKernel:
    return DistributedDimtreeKernel(
        grid, machine=machine, invalidation=invalidation, residual_tol=tol
    )


def _sampled(name: str, distribution: str) -> KernelSpec:
    """A per-call sampled kernel that resamples on every call from ``distribution``.

    The sketch subsystem is imported lazily: it layers on this driver, so a
    module-level import would be circular.  The kernel's generator is its
    only cross-call state; the adapter holds it so checkpoints capture the
    bit-stream position.
    """

    def sequential(seed, invalidation, tol) -> SweepKernel:
        from repro.sketch.sampled_mttkrp import make_sampled_kernel

        fn = make_sampled_kernel(seed=seed, distribution=distribution)
        return PerCallKernel(fn, rng=fn.rng, kind=name)

    def distributed(grid, machine, algorithm, seed, invalidation, tol, threads) -> SweepKernel:
        from repro.sketch.parallel.sampled_mttkrp import parallel_sampled_mttkrp
        from repro.sketch.sampling import _as_generator

        rng = _as_generator(seed)

        def kernel(local_tensor, factors, mode):
            return parallel_sampled_mttkrp(
                local_tensor, factors, mode, grid,
                distribution=distribution, seed=rng, machine=machine,
            ).assemble()

        return PerCallKernel(kernel, rng=rng, kind=f"parallel-{name}")

    return KernelSpec(sequential, distributed)


def _sampled_dimtree(seed, invalidation, tol) -> SweepKernel:
    # Leverage draws served from the dimension tree's cached partials.
    from repro.core.sampled_dimtree import SampledDimtreeKernel

    return SampledDimtreeKernel(seed=seed, invalidation=invalidation, residual_tol=tol)


def _sampled_dimtree_distributed(
    grid, machine, algorithm, seed, invalidation, tol, threads
) -> SweepKernel:
    from repro.sketch.parallel.sampled_dimtree import DistributedSampledDimtreeKernel

    return DistributedSampledDimtreeKernel(
        grid, machine=machine, seed=seed, invalidation=invalidation, residual_tol=tol
    )


#: The named MTTKRP kernels of both ALS drivers.  ``"einsum"`` is the exact
#: vectorised kernel (Algorithm 3/4 when distributed), ``"matmul"`` the
#: explicit-Khatri-Rao baseline, ``"dimtree"`` the dimension tree that caches
#: partial contractions across a sweep, ``"sampled"`` / ``"sampled-tree"``
#: the per-call sampled kernels drawing from the product-of-factor-leverage
#: and the exact Khatri-Rao leverage distribution (the segment-tree sampler of
#: Bharadwaj et al., arXiv 2301.12584), and ``"sampled-dimtree"`` the fused
#: kernel drawing exact leverage samples from the tree's cached partials.
#: Each name fixes its distribution and draw count in both drivers.
KERNELS: Dict[str, KernelSpec] = {
    "einsum": KernelSpec(_einsum, _einsum_distributed, stationary_only=False),
    "matmul": KernelSpec(_matmul),
    "dimtree": KernelSpec(_dimtree, _dimtree_distributed),
    "sampled": _sampled("sampled", "product-leverage"),
    "sampled-tree": _sampled("sampled-tree", "tree-leverage"),
    "sampled-dimtree": KernelSpec(_sampled_dimtree, _sampled_dimtree_distributed),
}

#: Kernel names :func:`cp_als` resolves.
KERNEL_NAMES = tuple(KERNELS)
#: Kernel names :func:`~repro.cp.parallel_als.parallel_cp_als` resolves.
PARALLEL_KERNEL_NAMES = tuple(
    name for name, spec in KERNELS.items() if spec.distributed is not None
)


def cp_als(
    tensor,
    rank: int,
    *,
    n_iter_max: int = 50,
    tol: float = 1e-7,
    init: Union[str, Sequence[np.ndarray]] = "random",
    seed: Union[None, int, np.random.Generator] = None,
    kernel: Union[str, MTTKRPKernel] = "einsum",
    invalidation: str = "exact",
    invalidation_tol: float = 1e-2,
    warn_on_nonconvergence: bool = False,
    on_fault: str = "raise",
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[CheckpointState] = None,
) -> CPALSResult:
    """Fit a rank-``R`` CP decomposition with alternating least squares.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    rank:
        Target CP rank ``R``.
    n_iter_max:
        Maximum number of ALS sweeps (each sweep updates every mode once);
        a non-negative integer.
    tol:
        Convergence tolerance on the change in fit between sweeps (not NaN).
    init:
        ``"random"``, ``"svd"``, or an explicit list of initial factor
        matrices.
    seed:
        Seed for random initialisation.
    kernel:
        Which MTTKRP kernel to use: a name from :data:`KERNEL_NAMES`, built
        by the sequential factory of its :data:`KERNELS` entry (each name
        fixes its kernel's sampling distribution and draw count), a
        per-call callable, or a :class:`~repro.core.sweep_kernel.SweepKernel`
        instance (the driver announces sweep starts and factor updates to
        sweep-aware kernels).
    invalidation, invalidation_tol:
        Cache-invalidation policy of the dimension-tree kernels
        (``"dimtree"`` / ``"sampled-dimtree"``): the default ``"exact"``
        invalidates dependent cached partials on every factor replacement;
        ``"residual"`` keeps them while the factor's accumulated relative
        drift stays within ``invalidation_tol`` (see
        :class:`~repro.core.dimtree.FactorGate`).  Both are validated for
        every kernel (``invalidation_tol`` finite and non-negative), but
        only the dimension-tree kernels built from a name read them.
    warn_on_nonconvergence:
        Emit a :class:`~repro.exceptions.ConvergenceWarning` when the loop
        exhausts ``n_iter_max`` without meeting ``tol``.
    on_fault:
        Policy for a poisoned (non-finite) MTTKRP output
        (:data:`FAULT_POLICIES`): ``"raise"`` (default) raises
        :class:`~repro.exceptions.FaultError`; ``"retry"`` invalidates the
        kernel's caches through its staleness authority and recomputes,
        degrading to the exact einsum kernel if that cannot help;
        ``"degrade"`` goes straight to the exact kernel.
    checkpoint_store:
        When given, a :class:`~repro.resilience.checkpoint.CheckpointState`
        is saved into it after every ``checkpoint_store.every``-th completed
        sweep (factors, fit history, and the kernel's full cache/RNG state).
    resume_from:
        A previously captured checkpoint: the run resumes at sweep
        ``resume_from.iteration + 1``, bitwise identical to the uninterrupted
        run for every registry kernel.  The ``init`` and ``seed`` of the
        original run should be passed unchanged (they are ignored for state,
        but seed still feeds a fresh sampled kernel unless the kernel state
        overrides it — which the checkpoint does).

    Returns
    -------
    CPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    if data.ndim < 2:
        raise ParameterError("CP-ALS requires a tensor with at least 2 modes")
    if on_fault not in FAULT_POLICIES:
        raise ParameterError(
            f"unknown on_fault policy {on_fault!r}; use one of {FAULT_POLICIES}"
        )
    n_iter_max = check_positive_int(n_iter_max, "n_iter_max", minimum=0)
    if math.isnan(tol):
        raise ParameterError("tol must not be NaN")
    _check_finite("tensor", data)
    check_invalidation(invalidation, invalidation_tol)
    if callable(kernel):
        sweep_kernel = as_sweep_kernel(kernel)
    else:
        spec = KERNELS[check_kernel_name(kernel, KERNEL_NAMES)]
        sweep_kernel = spec.sequential(_kernel_seed(seed), invalidation, invalidation_tol)

    if isinstance(init, str):
        factors = initialize_factors(data, rank, method=init, seed=seed)
    else:
        factors = [np.asarray(f, dtype=np.float64).copy() for f in init]
        if len(factors) != data.ndim:
            raise ParameterError("explicit init must provide one factor matrix per mode")
        check_factor_matrices(factors, data.shape, rank)
        for mode, factor in enumerate(factors):
            _check_finite(f"init factor for mode {mode}", factor)

    norm_x = float(np.linalg.norm(data.ravel()))
    weights = np.ones(rank, dtype=np.float64)
    grams = [f.T @ f for f in factors]

    fits: List[float] = []
    converged = False
    mttkrp_calls = 0
    previous_fit = -np.inf
    last_mode = data.ndim - 1

    start_iteration = 0
    if resume_from is not None:
        resume_from.check_problem(data.shape, rank)
        ckpt = resume_from.copy()
        factors = [np.asarray(f, dtype=np.float64) for f in ckpt.factors]
        weights = np.asarray(ckpt.weights, dtype=np.float64)
        # Recomputed, not stored: ``f.T @ f`` of bitwise-equal factors is
        # bitwise equal, so the Gram caches need no checkpoint entries.
        grams = [f.T @ f for f in factors]
        fits = list(ckpt.fits)
        previous_fit = ckpt.previous_fit
        mttkrp_calls = ckpt.mttkrp_calls
        start_iteration = int(ckpt.iteration)
        sweep_kernel.restore_state(ckpt.kernel_state)
        observe_inc("checkpoint.restored")

    iteration = start_iteration
    for iteration in range(start_iteration + 1, n_iter_max + 1):
        final_mttkrp = None
        sweep_kernel.begin_sweep(iteration)
        with trace("sweep", iteration=iteration):
            # Per-sweep Hadamard cache: ``suffix[m]`` is the product of the
            # pre-sweep Grams of modes ``m..N-1``; ``prefix`` accumulates the
            # already-updated Grams of modes ``0..mode-1``.  The normal-equation
            # matrix for ``mode`` is ``prefix ∘ suffix[mode + 1]``, so only the
            # Gram of the factor just updated is folded in per mode instead of
            # re-multiplying all ``N - 1`` operands.
            suffix: List[np.ndarray] = [None] * (data.ndim + 1)  # type: ignore[list-item]
            suffix[data.ndim] = np.ones((rank, rank), dtype=np.float64)
            for m in range(data.ndim - 1, -1, -1):
                suffix[m] = grams[m] * suffix[m + 1]
            prefix = np.ones((rank, rank), dtype=np.float64)
            for mode in range(data.ndim):
                with trace("mode", mode=mode):
                    b = sweep_kernel.mttkrp(data, factors, mode)
                    mttkrp_calls += 1
                    if not np.all(np.isfinite(b)):
                        b, extra = _recover_mttkrp(
                            sweep_kernel, data, factors, mode, on_fault
                        )
                        mttkrp_calls += extra
                    gram = prefix * suffix[mode + 1]
                    factor = _solve_normal_equations(gram, b, rank)
                    # Column normalisation keeps the factors well-scaled across sweeps.
                    norms = np.linalg.norm(factor, axis=0)
                    norms = np.where(norms > 0, norms, 1.0)
                    factor = factor / norms[None, :]
                    weights = norms
                    factors[mode] = factor
                    grams[mode] = factor.T @ factor
                    sweep_kernel.factor_updated(mode, factor)
                    prefix = prefix * grams[mode]
                    if mode == last_mode:
                        final_mttkrp = b

            # Efficient fit evaluation (Kolda & Bader, Section 3.4): using the last
            # MTTKRP avoids reconstructing the dense tensor; ``prefix`` now holds
            # the Hadamard product of all updated Grams.
            norm_model_sq = float(weights @ prefix @ weights)
            inner = float(np.sum(final_mttkrp * (factors[last_mode] * weights[None, :])))
            residual_sq = max(norm_x**2 + norm_model_sq - 2.0 * inner, 0.0)
            fit = 1.0 - np.sqrt(residual_sq) / norm_x if norm_x > 0 else 1.0
            fits.append(float(fit))

        if abs(fit - previous_fit) < tol:
            converged = True
            break
        previous_fit = fit

        if checkpoint_store is not None and checkpoint_store.wants(iteration):
            checkpoint_store.save(
                CheckpointState(
                    iteration=iteration,
                    factors=factors,
                    weights=weights,
                    fits=fits,
                    previous_fit=float(previous_fit),
                    mttkrp_calls=mttkrp_calls,
                    kernel_state=sweep_kernel.capture_state(),
                    shape=tuple(data.shape),
                    rank=rank,
                )
            )
            observe_inc("checkpoint.saved")

    if not converged and warn_on_nonconvergence:
        warnings.warn(
            f"CP-ALS did not converge within {n_iter_max} iterations", ConvergenceWarning
        )

    model = KruskalTensor([f.copy() for f in factors], weights.copy()).arrange()
    return CPALSResult(
        model=model,
        fits=fits,
        n_iterations=iteration,
        converged=converged,
        mttkrp_calls=mttkrp_calls,
    )
