"""Seeded inputs and driver calls for the four benchmark workloads.

Every workload runs the same five configurations ("slots"), so every
end-to-end metric exists on every workload:

- ``default``: the driver with ``kernel`` omitted — ``cp_als`` (einsum) on
  dense3/dense4, ``parallel_cp_als`` (exact) on parallel16.  On sparse-ckpt
  it is ``cp_als`` with a callable wrapping ``sparse_mttkrp`` on the COO
  tensor and a ``CheckpointStore(every=1)``.
- ``dimtree`` and ``sampled-dimtree``: the named kernels (on sparse-ckpt, on
  the dense copy of the same data).
- ``sampled`` and ``sampled-tree``: the named kernels; on sparse-ckpt,
  callables wrapping ``make_sampled_kernel`` (product / tree leverage) on the
  COO tensor.

The program receives only the generated tensor, rank and initial factors.
Initial factors start near the generating model, so every seed reaches the
same optimum and fits compare across seeds.  Every call runs a fixed number
of sweeps (``tol=0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

RANK = 16
#: Every driver call runs this many sweeps (``tol=0``).
SWEEPS = 2
#: Simulated ranks of the parallel workload.
N_PROCS = 16
#: Relative norm of the Gaussian noise added to every generated tensor.
NOISE = 0.1
#: Zipf exponent of the sparse workload's row popularity.
ZIPF_EXPONENT = 1.0
#: Standard deviation of the noise added to the true factors for the warm start.
WARM_START_SPREAD = 0.5
SLOTS = ("default", "dimtree", "sampled", "sampled-tree", "sampled-dimtree")
EXACT_SLOTS = ("default", "dimtree")


@dataclass
class Outcome:
    """What one driver call returned, in the form the gates read."""

    fits: List[float]
    factors: List[np.ndarray]
    weights: np.ndarray
    #: Max-per-rank words per sweep (simulated-parallel calls only).
    words_per_sweep: Optional[float] = None
    #: Max-per-rank messages per sweep (simulated-parallel calls only).
    messages_per_sweep: Optional[float] = None


@dataclass
class Problem:
    """One workload instance: its data, its calls and its exact reference."""

    dense: np.ndarray
    #: Slot name -> call; the argument numbers the call, so each call of a
    #: sampled slot draws from its own seeded stream.
    calls: Dict[str, Callable[[int], Outcome]]
    #: Untimed call of an exact kernel the exact slots must agree with.
    reference: Callable[[], Outcome]
    norm: float = field(init=False)
    n_procs: Optional[int] = None

    def __post_init__(self) -> None:
        self.norm = float(np.linalg.norm(self.dense.ravel()))


def khatri_rao_rows(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Khatri-Rao product whose row order matches a C-order unfolding."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = (f[:, None, :] * out[None, :, :]).reshape(-1, f.shape[1])
    return out


def low_rank_dense(rng: np.random.Generator, shape, rank: int):
    """Dense rank-``rank`` tensor plus Gaussian noise of relative norm ``NOISE``.

    Returns the tensor and its true factors.  The noise is added a few mode-0
    slices at a time so generation never holds two full-size arrays.
    """
    factors = [rng.standard_normal((n, rank)) for n in shape]
    tensor = (factors[0] @ khatri_rao_rows(factors[1:]).T).reshape(shape)
    scale = NOISE * np.linalg.norm(tensor.ravel()) / np.sqrt(tensor.size)
    step = max(1, shape[0] // 16)
    for start in range(0, shape[0], step):
        block = tensor[start:start + step]
        block += scale * rng.standard_normal(block.shape)
    return tensor, factors


def warm_start(rng: np.random.Generator, factors):
    """Initial factors near the truth, so every seed reaches the same optimum."""
    return [f + WARM_START_SPREAD * rng.standard_normal(f.shape) for f in factors]


def sparse_low_rank(rng: np.random.Generator, n: int, n_modes: int, rank: int,
                    support: int, noise: float = NOISE):
    """COO tensor that is exactly rank ``rank`` on its support, plus noise.

    Each factor column is nonzero on ``support`` rows drawn Zipf-skewed, so
    the rows a few hot indices share across components become hot output
    rows.  The coordinates are the union of the components' boxes and the
    values the full model there; off the union every component vanishes.
    Returns ``(coords, values, factors)``.
    """
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    labels = [rng.permutation(n) for _ in range(n_modes)]  # scatter the hot rows
    factors = [np.zeros((n, rank)) for _ in range(n_modes)]
    boxes = []
    for r in range(rank):
        rows = [labels[k][rng.choice(n, size=support, replace=False, p=weights)]
                for k in range(n_modes)]
        for k in range(n_modes):
            factors[k][rows[k], r] = rng.standard_normal(support)
        boxes.append(np.stack(np.meshgrid(*rows, indexing="ij"), axis=-1).reshape(-1, n_modes))
    coords = np.unique(np.concatenate(boxes), axis=0)
    values = np.ones((len(coords), rank))
    for k, f in enumerate(factors):
        values *= f[coords[:, k]]
    values = values.sum(axis=1)
    values += noise * np.sqrt(np.mean(values ** 2)) * rng.standard_normal(len(values))
    return coords, values, factors


def _als_outcome(result) -> Outcome:
    return Outcome(list(result.fits), list(result.model.factors), result.model.weights)


def build_dense(seed: int, shape) -> Problem:
    from repro.cp.als import cp_als

    rng = np.random.default_rng(seed)
    tensor, truth = low_rank_dense(rng, shape, RANK)
    init = warm_start(rng, truth)

    def call(kernel: Optional[str]) -> Callable[[int], Outcome]:
        kwargs = {} if kernel is None else {"kernel": kernel}
        return lambda draw: _als_outcome(
            cp_als(tensor, RANK, n_iter_max=SWEEPS, tol=0, init=init,
                   seed=np.random.default_rng([seed, draw]), **kwargs)
        )

    calls = {slot: call(None if slot == "default" else slot) for slot in SLOTS}
    return Problem(tensor, calls, reference=lambda: call("einsum")(0))


def build_parallel(seed: int, shape) -> Problem:
    from repro.cp.als import cp_als
    from repro.cp.parallel_als import parallel_cp_als

    rng = np.random.default_rng(seed)
    tensor, truth = low_rank_dense(rng, shape, RANK)
    init = warm_start(rng, truth)

    def call(kernel: Optional[str]) -> Callable[[int], Outcome]:
        kwargs = {} if kernel is None else {"kernel": kernel}

        def run(draw: int) -> Outcome:
            result = parallel_cp_als(
                tensor, RANK, N_PROCS, n_iter_max=SWEEPS, tol=0, init=init,
                seed=np.random.default_rng([seed, draw]), **kwargs,
            )
            summary = result.machine.summary()
            outcome = _als_outcome(result.als)
            outcome.words_per_sweep = summary["max_words_communicated"] / SWEEPS
            outcome.messages_per_sweep = summary["max_messages_sent"] / SWEEPS
            return outcome

        return run

    def sequential() -> Outcome:
        return _als_outcome(
            cp_als(tensor, RANK, n_iter_max=SWEEPS, tol=0, init=init, kernel="einsum")
        )

    calls = {slot: call(None if slot == "default" else slot) for slot in SLOTS}
    return Problem(tensor, calls, reference=sequential, n_procs=N_PROCS)


def build_sparse(seed: int, n: int, support: int,
                 sparse_kernel: Optional[Callable] = None) -> Problem:
    """The COO workload; ``sparse_kernel`` replaces the exact sparse callable (tests)."""
    import repro.tensor.sparse as sparse
    from repro.cp.als import cp_als
    from repro.resilience.checkpoint import CheckpointStore
    from repro.sketch.sampled_mttkrp import make_sampled_kernel

    rng = np.random.default_rng(seed)
    coords, values, truth = sparse_low_rank(rng, n, 3, RANK, support)
    init = warm_start(rng, truth)
    coo = sparse.SparseTensor((n,) * 3, coords, values)
    # Passed to cp_als only because the driver takes the norm from it, and
    # the input of the dense-format slots.
    dense = coo.to_dense()

    def exact_sparse(_dense, factors, mode):
        # Looked up at call time, so the traced run's wrapper sees the call.
        return sparse.sparse_mttkrp(coo, factors, mode)

    def run(kernel, draw: int = 0, **kwargs) -> Outcome:
        return _als_outcome(
            cp_als(dense, RANK, n_iter_max=SWEEPS, tol=0, init=init,
                   seed=np.random.default_rng([seed, draw]), kernel=kernel, **kwargs)
        )

    def sampled(distribution: str, stream: int) -> Callable[[int], Outcome]:
        def call(draw: int) -> Outcome:
            sample = make_sampled_kernel(
                distribution=distribution, seed=np.random.default_rng([seed, stream, draw])
            )
            return run(lambda _dense, factors, mode: sample(coo, factors, mode))

        return call

    calls = {
        "default": lambda draw: run(
            sparse_kernel or exact_sparse, checkpoint_store=CheckpointStore(every=1)
        ),
        "dimtree": lambda draw: run("dimtree"),
        "sampled": sampled("product-leverage", 1),
        "sampled-tree": sampled("tree-leverage", 2),
        "sampled-dimtree": lambda draw: run("sampled-dimtree", draw),
    }
    return Problem(dense, calls, reference=lambda: run("einsum"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], Problem]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense3",
            "dense 384^3 noisy rank-16 tensor (432 MB, >4x L3): memory-bound root "
            "contractions; bypasses parallel and sparse",
            lambda seed: build_dense(seed, (384, 384, 384)),
        ),
        Workload(
            "dense4",
            "dense 64^4 (128 MB), R=16: the dimension tree's counted 2x flop saving and "
            "the samplers' tree descent show at N=4",
            lambda seed: build_dense(seed, (64, 64, 64, 64)),
        ),
        Workload(
            "parallel16",
            "parallel_cp_als on 16 simulated ranks, dense 40^4: small local blocks, so "
            "distribution and collective bookkeeping dominate",
            lambda seed: build_parallel(seed, (40, 40, 40, 40)),
        ),
        Workload(
            "sparse-ckpt",
            "COO 256^3, ~5e5 nonzeros on Zipf-skewed hot rows, sparse_mttkrp callable with "
            "per-sweep checkpoints: the only run of sparse and checkpoint code",
            lambda seed: build_sparse(seed, 256, support=34),
        ),
    )
}
