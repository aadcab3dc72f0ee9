"""Correctness gates run on every driver call.

The checks use the benchmark's own NumPy arithmetic, never the program's
kernels, so a broken kernel cannot vouch for itself.
"""

from __future__ import annotations

import string
from typing import List, Optional, Sequence

import numpy as np

from workloads import EXACT_SLOTS, RANK, SWEEPS, Outcome, Problem, khatri_rao_rows

#: Exact kernels must reproduce the reference fit to this absolute tolerance.
FIT_AGREEMENT = 1e-9
#: The driver's own fit of an exact kernel against the benchmark's exact fit.
FIT_ESTIMATE_AGREEMENT = 1e-7

_LETTERS = string.ascii_letters


def reference_mttkrp(dense: np.ndarray, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
    """MTTKRP by ``numpy.einsum``, independent of the program's kernels."""
    modes = _LETTERS[: dense.ndim]
    operands, specs = [dense], [modes]
    for k, f in enumerate(factors):
        if k != mode:
            operands.append(f)
            specs.append(modes[k] + "z")
    spec = ",".join(specs) + "->" + modes[mode] + "z"
    return np.einsum(spec, *operands, optimize=True)


def exact_fit(problem: Problem, factors: Sequence[np.ndarray], weights: np.ndarray) -> float:
    """``1 - ||X - X_hat|| / ||X||`` of a Kruskal model against the dense data."""
    # Mode-0 MTTKRP as one GEMM against the C-order unfolding (a free reshape).
    unfolded = problem.dense.reshape(problem.dense.shape[0], -1)
    mttkrp0 = unfolded @ khatri_rao_rows(factors[1:])
    inner = float(np.sum(mttkrp0 * factors[0] * weights))
    gram = np.ones((len(weights), len(weights)))
    for f in factors:
        gram *= f.T @ f
    model_sq = float(weights @ gram @ weights)
    residual_sq = max(problem.norm ** 2 - 2.0 * inner + model_sq, 0.0)
    return 1.0 - np.sqrt(residual_sq) / problem.norm


def parallel_lower_bound(problem: Problem) -> float:
    """Per-MTTKRP max-per-rank words no parallel algorithm can beat."""
    from repro.bounds.parallel import combined_parallel_lower_bound

    bounds = combined_parallel_lower_bound(problem.dense.shape, RANK, problem.n_procs)
    return float(bounds.combined)


def check(problem: Problem, slot: str, outcome: Outcome, reference: Optional[Outcome],
          bound: Optional[float]) -> tuple[float, List[str]]:
    """Gate one call; returns its exact fit and the list of failed checks."""
    failures: List[str] = []
    arrays = list(outcome.factors) + [outcome.weights, np.asarray(outcome.fits)]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return float("nan"), [f"{slot}: non-finite model or fit"]
    if len(outcome.fits) != SWEEPS:
        failures.append(f"{slot}: ran {len(outcome.fits)} sweeps, expected {SWEEPS}")
    fit = exact_fit(problem, outcome.factors, outcome.weights)
    if not 0.0 <= fit <= 1.0:
        failures.append(f"{slot}: exact fit {fit!r} outside [0, 1]")
    if slot in EXACT_SLOTS:
        if abs(fit - outcome.fits[-1]) > FIT_ESTIMATE_AGREEMENT:
            failures.append(f"{slot}: driver fit {outcome.fits[-1]!r} != exact fit {fit!r}")
        if reference is None or abs(outcome.fits[-1] - reference.fits[-1]) > FIT_AGREEMENT:
            ref = None if reference is None else reference.fits[-1]
            failures.append(f"{slot}: fit {outcome.fits[-1]!r} != reference fit {ref!r}")
        if bound is not None:
            # The exact stationary kernel (default) gathers afresh for each of a
            # sweep's N MTTKRPs, so each must meet the bound on its own; dimtree
            # shares gathered factor blocks across modes, so a sweep is held to
            # one MTTKRP's bound.
            floor = bound * (problem.dense.ndim if slot == "default" else 1)
            if not outcome.words_per_sweep >= floor:
                failures.append(
                    f"{slot}: {outcome.words_per_sweep!r} words per sweep below the "
                    f"lower bound {floor!r}"
                )
    return fit, failures


def identical(a: Outcome, b: Outcome) -> bool:
    """Bitwise equality of two calls' fits, factors and weights."""
    return (
        a.fits == b.fits
        and np.array_equal(a.weights, b.weights)
        and len(a.factors) == len(b.factors)
        and all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors))
    )
