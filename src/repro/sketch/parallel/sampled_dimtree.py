"""Distributed fused sampled-dimtree CP-ALS kernel on the simulated machine.

The distributed face of :mod:`repro.core.sampled_dimtree`, combining the
communication pattern of :class:`repro.parallel.dimtree.DistributedDimtreeKernel`
with the replicated-draw discipline of :mod:`repro.sketch.parallel`:

* **cached per-update All-Gathers** — gathered factor block rows are reused
  across the sweep and re-gathered only when the kernel's
  :class:`~repro.core.dimtree.FactorGate` invalidates that factor (one
  All-Gather per factor update instead of ``N - 1`` per sweep, exactly as in
  the exact dimtree kernel; under ``invalidation="residual"`` even those are
  gated);
* **the tree sampler's Gram All-Reduce only** — each invalidated factor
  additionally All-Reduces its ``R x R`` block Gram (the reduced Gram is what
  the shared sampler cache derives its segment trees / leverage
  distributions from), and *nothing else*: there is no leverage-score or
  sampled-row gather, because every rank evaluates its draws against its own
  local partials.  As in PR 3, the draw itself is replicated from the shared
  seed on every rank (rank-consistent seeding) rather than routed, so the
  per-draw cross-rank descent messages of a physically distributed sampler
  are not charged — the same documented idealization;
* **local fused evaluation** — each rank holds a
  :class:`~repro.core.dimtree.DimensionTree` over its stationary sub-tensor,
  serves the leaf-parent partial from its cache, and evaluates exactly the
  draws whose free-mode indices fall inside its block ranges;
* **output Reduce-Scatter** per mode hyperslice, unchanged from Algorithm 3.

Under the same seed the shared :class:`~repro.core.sampled_dimtree.FusedSamplerCache`
walks the same rebuild schedule as the sequential kernel over the same
global factors, so the draws are **bitwise identical to sequential**.
:func:`predicted_sampled_dimtree_ledger` replays every collective — the
gather staleness schedule plus the per-update Gram All-Reduce — so the
machine ledger matches it word for word (the tests assert ``==``).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dimtree import (
    DimensionTree,
    FactorGate,
    ModeSplit,
    _build_parents,
    split_half,
)
from repro.core.sampled_dimtree import FusedSamplerCache, fused_estimator_gemm
from repro.core.sweep_kernel import SweepKernel, check_state_kind
from repro.exceptions import DistributionError
from repro.parallel.collectives import all_gather, all_reduce, reduce_scatter
from repro.parallel.distribution import (
    DistributedMTTKRPOutput,
    LocalFactorBlock,
    StationaryDistribution,
)
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.sketch.sampled_mttkrp import default_sample_count, estimator_gemm
from repro.sketch.sampling import SeedLike, _as_generator
from repro.tensor.dense import as_ndarray
from repro.utils.partition import partition_bounds
from repro.utils.validation import check_mode, check_rank, check_shape

#: Trace-label prefixes (the reconciliation tests split the ledger on these).
GATHER_LABEL = "sampled-dimtree all_gather"
GRAM_LABEL = "sampled-dimtree gram all_reduce"
REDUCE_LABEL = "sampled-dimtree reduce_scatter"


class DistributedSampledDimtreeKernel(SweepKernel):
    """Sweep-aware distributed fused sampled MTTKRP (``"sampled-dimtree"``).

    The distributed half of the ``"sampled-dimtree"`` entry of
    :data:`repro.cp.als.KERNELS` (stationary distribution only, like the
    exact dimtree kernel).

    Parameters
    ----------
    grid_dims:
        The ``N``-way processor grid.
    machine:
        Optional pre-existing :class:`SimulatedMachine`.
    n_samples:
        Draws per MTTKRP invocation (default
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count`).
    distribution:
        Free-mode sampling distribution
        (:data:`repro.core.sampled_dimtree.FUSED_DISTRIBUTIONS`).
    seed:
        Shared seed/generator of the replicated draw; the same seed given to
        the sequential :class:`~repro.core.sampled_dimtree.SampledDimtreeKernel`
        reproduces its draws bit for bit.
    split:
        Tree split rule, forwarded to every rank's tree.
    invalidation, residual_tol:
        The kernel-level :class:`~repro.core.dimtree.FactorGate` options; the
        gate governs re-gathers, Gram All-Reduces, *and* sampler rebuilds at
        once (per-rank trees invalidate through the gathered blocks'
        identity, so they follow the same schedule).
    """

    def __init__(
        self,
        grid_dims: Sequence[int],
        *,
        machine: Optional[SimulatedMachine] = None,
        n_samples: Optional[int] = None,
        distribution: str = "tree-leverage",
        seed: SeedLike = None,
        split: Optional[ModeSplit] = None,
        invalidation: str = "exact",
        residual_tol: float = 1e-2,
    ) -> None:
        self.grid = ProcessorGrid(grid_dims)
        if machine is None:
            machine = SimulatedMachine(self.grid.n_procs)
        elif machine.n_procs != self.grid.n_procs:
            raise DistributionError(
                f"machine has {machine.n_procs} processors but the grid needs "
                f"{self.grid.n_procs}"
            )
        self.machine = machine
        self._n_samples = n_samples
        self._distribution = distribution
        self._rng = _as_generator(seed)
        self._split = split
        self._invalidation = invalidation
        self._residual_tol = float(residual_tol)
        self.samplers = FusedSamplerCache(distribution)
        self.gate: Optional[FactorGate] = None
        self.dist: Optional[StationaryDistribution] = None
        self._parents: Optional[dict] = None
        self._tensor: Optional[np.ndarray] = None
        self._tensor_blocks = None
        self._trees: Dict[int, DimensionTree] = {}
        self._gathered: Dict[int, Dict[int, np.ndarray]] = {}
        self._gathered_version: Dict[int, int] = {}
        self.draw_log: List[tuple] = []
        self._pending_state: Optional[dict] = None

    # -- checkpoint/restore ---------------------------------------------------
    def capture_state(self) -> Optional[dict]:
        """RNG position + sampler cache + gate/gathered/tree snapshots."""
        return {
            "kind": "parallel-sampled-dimtree",
            "rng": copy.deepcopy(self._rng.bit_generator.state),
            "samplers": self.samplers.capture_state(),
            "draw_log": list(self.draw_log),
            "gate": self.gate.capture_state() if self.gate is not None else None,
            "gathered": {
                k: {r: block.copy() for r, block in blocks.items()}
                for k, blocks in self._gathered.items()
            },
            "gathered_version": dict(self._gathered_version),
            "trees": {r: tree.capture_state() for r, tree in self._trees.items()},
        }

    def restore_state(self, state: Optional[dict]) -> None:
        """Adopt a snapshot now (RNG) and lazily (caches, next mttkrp)."""
        self._pending_state = None
        if state is None:
            return
        check_state_kind(state, "parallel-sampled-dimtree")
        self._rng.bit_generator.state = copy.deepcopy(state["rng"])
        if state["gate"] is not None:
            self._pending_state = state
        else:
            self.samplers.restore_state(state["samplers"])
            self.draw_log = list(state["draw_log"])

    def invalidate_caches(self) -> bool:
        invalidated = self.samplers.invalidate_all()
        if self.gate is not None:
            self._gathered.clear()
            self._gathered_version.clear()
            for tree in self._trees.values():
                tree.invalidate_all()
            self.gate.invalidate_all()
            invalidated = True
        return invalidated

    def _apply_pending(self, factors: Sequence[Optional[np.ndarray]]) -> None:
        state = self._pending_state
        self._pending_state = None
        self.gate.restore_state(state["gate"], factors)
        self.samplers.restore_state(state["samplers"])
        self.draw_log = list(state["draw_log"])
        self._gathered = {
            k: {r: block.copy() for r, block in blocks.items()}
            for k, blocks in state["gathered"].items()
        }
        self._gathered_version = dict(state["gathered_version"])
        ndim = len(self.grid.dims)
        for r, tree in self._trees.items():
            local = [
                self._gathered[k][r] if k in self._gathered else None
                for k in range(ndim)
            ]
            tree.restore_state(state["trees"][r], local)

    def _ensure_setup(self, data: np.ndarray, rank: int) -> None:
        if self.dist is not None:
            if self._tensor is data and self.dist.rank == rank:
                return
            self._gathered.clear()
            self._gathered_version.clear()
            # A new problem restarts the gate's version sequence at zero, so
            # the sampler cache's version stamps (and factor snapshots) from
            # the previous problem must not be mistaken for fresh ones.
            self.samplers = FusedSamplerCache(self._distribution)
            self.draw_log = []
        if len(self.grid.dims) != data.ndim:
            raise DistributionError(
                f"grid must have one dimension per tensor mode: got "
                f"{len(self.grid.dims)} grid dims for a {data.ndim}-way tensor"
            )
        self.dist = StationaryDistribution(data.shape, rank, 0, self.grid)
        self._tensor = data
        self._tensor_blocks = self.dist.distribute_tensor(data)
        self._trees = {
            r: DimensionTree(self._tensor_blocks[r].data, split=self._split)
            for r in range(self.grid.n_procs)
        }
        self._parents = _build_parents(
            data.ndim, self._split if self._split is not None else split_half
        )
        self.gate = FactorGate(
            data.ndim,
            invalidation=self._invalidation,
            residual_tol=self._residual_tol,
        )

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        # force: an explicit update always invalidates even for the same
        # array object (in-place mutation), matching the sequential kernel's
        # update_factor so both gates walk identical version sequences.
        if self.gate is not None:
            self.gate.register(mode, np.asarray(factor), force=True)

    def _gather_factor(self, k: int, factor: np.ndarray) -> None:
        """All-Gather factor ``k``'s block rows, then All-Reduce its Gram."""
        gathered: Dict[int, np.ndarray] = {}
        for pk in range(self.grid.dims[k]):
            group = self.grid.slice_group({k: pk})
            local = {r: factor[self.dist.factor_local_rows(k, r), :] for r in group}
            result = all_gather(
                self.machine,
                group,
                local,
                axis=0,
                label=f"{GATHER_LABEL} A^({k}) p_{k}={pk}",
            )
            gathered.update(result)
        self._gathered[k] = gathered
        # The sampler-setup collective: every rank contributes its owned row
        # chunk's R x R Gram (each factor row is owned by exactly one rank,
        # so the sum is the full factor Gram the shared sampler cache needs).
        group = list(range(self.grid.n_procs))
        grams = {
            r: factor[self.dist.factor_local_rows(k, r), :].T
            @ factor[self.dist.factor_local_rows(k, r), :]
            for r in group
        }
        all_reduce(self.machine, group, grams, label=f"{GRAM_LABEL} A^({k})")

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        data = as_ndarray(tensor)
        mode = check_mode(mode, data.ndim)
        rank = None
        for k, f in enumerate(factors):
            if k != mode and f is not None:
                rank = int(np.asarray(f).shape[1])
                break
        if rank is None:
            raise DistributionError("at least one input factor matrix is required")
        self._ensure_setup(data, rank)
        if self._pending_state is not None:
            self._apply_pending(factors)
        n_draws = (
            default_sample_count(rank) if self._n_samples is None else self._n_samples
        )

        # -- gate the staleness, re-gather (and re-reduce Grams) per update.
        for k in range(data.ndim):
            if k == mode:
                continue
            self.gate.register(k, factors[k])
            if self._gathered_version.get(k) != self.gate.versions[k]:
                self._gather_factor(k, np.asarray(factors[k]))
                self._gathered_version[k] = self.gate.versions[k]

        # -- replicated draw from the shared stream (bitwise == sequential).
        parent = self._parents[(mode,)]
        free = tuple(k for k in parent if k != mode)
        samples = self.samplers.draw(
            factors,
            free,
            mode,
            n_draws,
            self._rng,
            [self.gate.versions[k] for k in free],
        )
        krp_rows = samples.krp_rows(factors)
        weighted = krp_rows * samples.weights[:, None]
        self.draw_log.append((mode, free, n_draws, samples.n_distinct))

        # -- local fused evaluation on every rank's cached partial.
        local_outputs: Dict[int, np.ndarray] = {}
        for r in range(self.grid.n_procs):
            tree = self._trees[r]
            ranges = self.dist.subtensor_ranges(r)
            local_factors: List[Optional[np.ndarray]] = [None] * data.ndim
            for k in range(data.ndim):
                if k != mode:
                    local_factors[k] = self._gathered[k][r]
            flops_before = tree.flops
            tree.register_factors(local_factors, mode)
            data_p, modes_p, has_rank = tree.node_value(parent)

            mask = np.ones(samples.n_distinct, dtype=bool)
            for t, k in enumerate(free):
                start, stop = ranges[k]
                idx = samples.indices[:, t]
                mask &= (idx >= start) & (idx < stop)
            axis = modes_p.index(mode)
            moved = np.moveaxis(data_p, axis, 0)
            picker = (slice(None),) + tuple(
                samples.indices[mask, t] - ranges[k][0]
                for t, k in enumerate(free)
            )
            fibers = moved[picker]
            if has_rank:
                partial = np.ascontiguousarray(
                    fused_estimator_gemm(fibers, weighted[mask])
                )
            else:
                partial = np.ascontiguousarray(estimator_gemm(fibers, weighted[mask]))
            local_outputs[r] = partial
            owned = int(np.count_nonzero(mask))
            self.machine.charge_flops(
                r,
                (tree.flops - flops_before)
                + max(len(free) - 1, 0) * owned * rank
                + owned * rank
                + 2 * partial.shape[0] * owned * rank,
            )
            storage = int(self._tensor_blocks[r].data.size) + int(partial.size)
            for k in range(data.ndim):
                if k != mode:
                    storage += int(self._gathered[k][r].size)
            storage += tree.cached_words()
            self.machine.charge_storage(r, storage)

        # -- output Reduce-Scatter within each mode hyperslice (Algorithm 3).
        output = DistributedMTTKRPOutput(shape=(data.shape[mode], rank))
        for pn in range(self.grid.dims[mode]):
            group = self.grid.slice_group({mode: pn})
            scattered = reduce_scatter(
                self.machine,
                group,
                {r: local_outputs[r] for r in group},
                axis=0,
                label=f"{REDUCE_LABEL} B mode {mode} p_{mode}={pn}",
            )
            for r in group:
                output.pieces[r] = LocalFactorBlock(
                    rows=self.dist.factor_local_rows(mode, r),
                    cols=np.arange(rank),
                    data=scattered[r],
                )
        return output.assemble()


def predicted_sampled_dimtree_ledger(
    shape: Sequence[int],
    rank: int,
    grid_dims: Sequence[int],
    n_sweeps: int,
) -> np.ndarray:
    """Per-rank words sent (= received) the fused kernel charges over a run.

    Replays every collective of :class:`DistributedSampledDimtreeKernel`
    under the ALS schedule with exact invalidation: the per-update factor
    All-Gathers (identical staleness bookkeeping to
    :func:`repro.parallel.dimtree.predicted_dimtree_ledger`), one global
    ``R x R`` Gram All-Reduce per gather event (the sampler setup — the
    *only* sampling-induced communication), and the per-mode output
    Reduce-Scatters.  Draw counts never appear: fibers and partials are
    local, factor rows are gathered per update rather than per sample, so
    the ledger is draw-independent and the returned array equals the
    machine's ``words_sent`` (and ``words_received``) exactly.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    grid = ProcessorGrid(grid_dims)
    if len(grid.dims) != len(shape):
        raise DistributionError(
            f"grid must have one dimension per tensor mode: got {len(grid.dims)} "
            f"grid dims for a {len(shape)}-way tensor"
        )
    dist = StationaryDistribution(shape, rank, 0, grid)
    words = np.zeros(grid.n_procs, dtype=np.int64)
    n_procs = grid.n_procs
    ndim = len(shape)
    versions = [0] * ndim
    gathered_at: Dict[int, int] = {}
    gram_piece = max(
        stop - start for start, stop in partition_bounds(rank * rank, n_procs)
    )

    def charge_gather(k: int) -> None:
        for pk in range(grid.dims[k]):
            group = grid.slice_group({k: pk})
            w = max(len(dist.factor_local_rows(k, r)) for r in group) * rank
            words[group] += (len(group) - 1) * w
        words[:] += 2 * (n_procs - 1) * gram_piece

    def charge_reduce_scatter(mode: int) -> None:
        for pn in range(grid.dims[mode]):
            group = grid.slice_group({mode: pn})
            start, stop = dist.mode_partitions[mode][pn]
            piece_rows = max(b - a for a, b in partition_bounds(stop - start, len(group)))
            words[group] += (len(group) - 1) * piece_rows * rank

    for _ in range(int(n_sweeps)):
        for mode in range(ndim):
            for k in range(ndim):
                if k == mode:
                    continue
                if gathered_at.get(k) != versions[k]:
                    charge_gather(k)
                    gathered_at[k] = versions[k]
            charge_reduce_scatter(mode)
            versions[mode] += 1
    return words


def predicted_sampled_dimtree_sweep_words(
    shape: Sequence[int], rank: int, grid_dims: Sequence[int]
) -> int:
    """Max-per-rank words of one steady-state fused ALS sweep.

    One All-Gather plus one Gram All-Reduce per mode update and ``N`` output
    Reduce-Scatters — the fused analogue of
    :func:`repro.parallel.dimtree.predicted_dimtree_sweep_words`.
    """
    two = predicted_sampled_dimtree_ledger(shape, rank, grid_dims, 2)
    one = predicted_sampled_dimtree_ledger(shape, rank, grid_dims, 1)
    return int((two - one).max())
