"""Per-layer split for the traced run.

:class:`LayerProbe` times calls into each layer's public entry points by
replacing them, for the duration of one traced driver call, with wrappers
that call the original unchanged.  Counters come from the program's own
ledgers: the :mod:`repro.observe` metrics registry and sweep spans, the
dimension-tree kernels' counted costs and the simulated machine's summary.
The wrappers never alter arguments or results, and the traced run asserts
the traced call is bitwise equal to an untraced one.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterable, List, Tuple

import numpy as np

from gates import reference_mttkrp
from workloads import RANK, SWEEPS, Outcome, Problem

#: Sampled MTTKRP outputs kept for the error check (the first ones seen).
REL_ERR_SAMPLES = 24
#: Collective operations, patched in every module that imported them by name.
COLLECTIVES = ("all_gather", "reduce_scatter", "all_reduce", "broadcast", "gather_to_root")


def _mode_of(args, kwargs) -> int:
    return int(kwargs["mode"] if "mode" in kwargs else args[2])


class LayerProbe:
    """Accumulates per-layer busy time and counts over the traced calls."""

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.sampled_outputs: List[tuple] = []
        self.dimtree_kernels: List[object] = []
        self._depth = threading.local()

    # -- wrapper plumbing ----------------------------------------------------
    def _enter(self, keys: Tuple[str, ...]) -> Tuple[str, ...]:
        depth = self._depth.__dict__
        outer = tuple(k for k in keys if depth.get(k, 0) == 0)
        for k in keys:
            depth[k] = depth.get(k, 0) + 1
        return outer

    def _exit(self, keys: Tuple[str, ...]) -> None:
        for k in keys:
            self._depth.__dict__[k] -= 1

    def timed(self, fn, *keys: str, after=None):
        """Wrap ``fn``: its outermost calls add their wall time to ``keys``."""

        def wrapper(*args, **kwargs):
            outer = self._enter(keys)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._exit(keys)
                for k in outer:
                    self.busy[k] += elapsed
            if after is not None:
                after(elapsed, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer side records ------------------------------------------------
    def _einsum_call(self, elapsed, result, args, kwargs) -> None:
        tensor = args[0]
        from repro.core.kernels import mttkrp_flops

        self.busy[f"core.kernels.mode{_mode_of(args, kwargs)}"] += elapsed
        self.counts["core.kernels.flops"] += mttkrp_flops(tensor.shape, RANK, atomic=False)
        self.counts["core.kernels.bytes"] += tensor.nbytes

    def _sampled_call(self, elapsed, result, args, kwargs) -> None:
        # The exact MTTKRP is computed after the run, outside every timed span.
        if len(self.sampled_outputs) < REL_ERR_SAMPLES:
            factors = [None if f is None else f.copy() for f in args[1]]
            self.sampled_outputs.append((factors, _mode_of(args, kwargs), result.copy()))

    def rel_errs(self) -> List[float]:
        """Sampled MTTKRP error against the exact MTTKRP at the same factors."""
        errs = []
        for factors, mode, result in self.sampled_outputs:
            exact = reference_mttkrp(self.problem.dense, factors, mode)
            errs.append(float(np.linalg.norm(result - exact) / np.linalg.norm(exact)))
        return errs

    def _fused_call(self, elapsed, result, args, kwargs) -> None:
        # Method wrapper: args = (kernel, tensor, factors, mode).
        self._sampled_call(elapsed, result, args[1:], kwargs)

    def _dimtree_call(self, elapsed, result, args, kwargs) -> None:
        kernel = args[0]
        if not any(kernel is k for k in self.dimtree_kernels):
            self.dimtree_kernels.append(kernel)

    def _collective_call(self, *_) -> None:
        self.counts["parallel.collectives.calls"] += 1

    def _sparse_call(self, elapsed, result, args, kwargs) -> None:
        self.counts["tensor.sparse.nnz"] += args[0].nnz

    def _tasks(self, fn):
        def wrapper(task, items, *args, **kwargs):
            items = list(items)
            self.counts["backend.parallel.tasks"] += len(items)
            return fn(task, items, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------
    def targets(self) -> Iterable[Tuple[object, str, object]]:
        """``(owner, attribute, replacement)`` for every wrapped entry point."""
        # import_module, not ``import a.b as m``: some packages re-export a
        # function under the name of the submodule that defines it.
        (backend_parallel, blocked, als, collectives, pdimtree, general, stationary,
         psampled_dimtree, psampled, sampled, sparse) = (
            importlib.import_module(f"repro.{name}")
            for name in ("backend.parallel", "core.blocked_mttkrp", "cp.als",
                         "parallel.collectives", "parallel.dimtree", "parallel.general",
                         "parallel.stationary", "sketch.parallel.sampled_dimtree",
                         "sketch.parallel.sampled_mttkrp", "sketch.sampled_mttkrp",
                         "tensor.sparse")
        )
        from repro.core.dimtree import DimensionTreeKernel
        from repro.core.sampled_dimtree import SampledDimtreeKernel
        from repro.core.sweep_kernel import PerCallKernel
        from repro.parallel.distribution import GeneralDistribution, StationaryDistribution
        from repro.resilience.checkpoint import CheckpointStore
        from repro.sketch.treesample import KRPTreeSampler

        t = self.timed
        yield als, "mttkrp", t(als.mttkrp, "core.kernels", after=self._einsum_call)
        yield PerCallKernel, "mttkrp", t(PerCallKernel.mttkrp, "kernel")
        yield DimensionTreeKernel, "mttkrp", t(
            DimensionTreeKernel.mttkrp, "kernel", "core.dimtree", after=self._dimtree_call
        )
        yield SampledDimtreeKernel, "mttkrp", t(
            SampledDimtreeKernel.mttkrp, "kernel", "core.sampled_dimtree",
            after=self._fused_call,
        )
        for cls in (pdimtree.DistributedDimtreeKernel,
                    psampled_dimtree.DistributedSampledDimtreeKernel):
            yield cls, "mttkrp", t(cls.mttkrp, "kernel")
        yield sampled, "sampled_mttkrp", t(
            sampled.sampled_mttkrp, "sketch.sampled_mttkrp", after=self._sampled_call
        )
        yield KRPTreeSampler, "draw_indices", t(KRPTreeSampler.draw_indices, "sketch.treesample")
        for cls in (StationaryDistribution, GeneralDistribution):
            for name in ("distribute", "distribute_tensor", "distribute_factor"):
                yield cls, name, t(getattr(cls, name), "parallel.distribution")
        for module in (stationary, general):
            yield module, "local_mttkrp", t(module.local_mttkrp, "parallel.local_mttkrp")
        for module in (stationary, general, pdimtree, psampled, psampled_dimtree):
            for name in COLLECTIVES:
                if getattr(module, name, None) is getattr(collectives, name):
                    yield module, name, t(
                        getattr(module, name), "parallel.collectives",
                        after=self._collective_call,
                    )
        yield sparse, "sparse_mttkrp", t(
            sparse.sparse_mttkrp, "tensor.sparse", after=self._sparse_call
        )
        for module in (sparse, blocked, stationary, general):
            if getattr(module, "parallel_map", None) is backend_parallel.parallel_map:
                yield module, "parallel_map", self._tasks(module.parallel_map)
        yield CheckpointStore, "save", t(CheckpointStore.save, "resilience.checkpoint")

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        with ExitStack() as stack:
            for owner, name, replacement in list(self.targets()):
                original = owner.__dict__[name]
                setattr(owner, name, replacement)
                stack.callback(setattr, owner, name, original)
            yield self

    def traced(self, call):
        """``call`` run with the wrappers and an observe session installed."""
        from repro.observe import tracing

        def run() -> Outcome:
            with self.installed(), tracing() as session:
                outcome = call()
            self._absorb(session)
            return outcome

        return run

    def _absorb(self, session) -> None:
        """Fold one traced call's spans and registry counters into the totals."""
        from repro.backend.workspace import default_pool

        self.busy["sweeps"] += sum(s.duration for s in session.spans_named("sweep"))
        for name, value in session.metrics.counters().items():
            self.counts[name] += value
        # The pool records its high water only when it rises, which the
        # untimed warm-up already did, so read the pool's own ledger.
        self.counts["workspace.high_water_words"] = default_pool().high_water_words


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(probe: LayerProbe, rounds: int, last: Dict[str, Outcome],
                  bound, trace_overhead) -> Dict[str, dict]:
    """The per-layer metrics of a traced run.

    Times and counts are per sweep, summed over the workload's five
    configurations (one traced call of each per round).  A layer the
    workload does not reach reads 0.
    """
    busy, counts = probe.busy, probe.counts
    per_sweep = rounds * SWEEPS
    rel_errs = probe.rel_errs()
    dimtree_flops = sum(k.counters().flops for k in probe.dimtree_kernels)
    partial = [counts[f"dimtree.partial.{x}"] for x in ("hit", "miss", "stale")]
    default, dimtree = last.get("default"), last.get("dimtree")

    def words(outcome):
        return outcome.words_per_sweep if outcome and outcome.words_per_sweep else 0.0

    out = {
        "core.kernels.busy_s": (busy["core.kernels"] / per_sweep, "s"),
        **{f"core.kernels.mode{m}_s": (busy[f"core.kernels.mode{m}"] / per_sweep, "s")
           for m in range(4)},
        "core.kernels.gflops": (_ratio(counts["core.kernels.flops"], busy["core.kernels"]) / 1e9,
                                "GFLOP/s"),
        "core.kernels.gbps_computed": (
            _ratio(counts["core.kernels.bytes"], busy["core.kernels"]) / 1e9, "GB/s"),
        "core.dimtree.busy_s": (busy["core.dimtree"] / per_sweep, "s"),
        "core.dimtree.flops_per_sweep": (dimtree_flops / per_sweep, "flops"),
        "core.dimtree.gflops": (_ratio(dimtree_flops, busy["core.dimtree"]) / 1e9, "GFLOP/s"),
        "core.dimtree.cache_hit_rate": (_ratio(partial[0], sum(partial)), "ratio"),
        "core.sampled_dimtree.busy_s": (busy["core.sampled_dimtree"] / per_sweep, "s"),
        "sketch.sampled_mttkrp.busy_s": (busy["sketch.sampled_mttkrp"] / per_sweep, "s"),
        "sketch.treesample.draw_s": (busy["sketch.treesample"] / per_sweep, "s"),
        "sketch.distinct_ratio": (_ratio(counts["sampler.distinct"], counts["sampler.draws"]),
                                  "ratio"),
        "sketch.mttkrp_rel_err": (
            float(np.median(rel_errs)) if rel_errs else 0.0, "ratio"),
        "cp.als.self_s": ((busy["sweeps"] - busy["kernel"]) / per_sweep, "s"),
        "cp.als.solve_fallbacks": (
            (counts["als.solve.fallback"] + counts["als.solve.ridge"]) / per_sweep, "count"),
        "parallel.distribution.busy_s": (busy["parallel.distribution"] / per_sweep, "s"),
        "parallel.local_mttkrp_s": (busy["parallel.local_mttkrp"] / per_sweep, "s"),
        "parallel.collectives.busy_s": (busy["parallel.collectives"] / per_sweep, "s"),
        "parallel.collectives.calls": (counts["parallel.collectives.calls"] / per_sweep, "count"),
        "parallel.machine.messages_per_sweep": (
            sum(o.messages_per_sweep or 0.0 for o in last.values()), "count"),
        "parallel.words_over_bound": (
            _ratio(words(default), probe.problem.dense.ndim * bound) if bound else 0.0, "ratio"),
        "parallel.comm_words_per_sweep.default": (words(default), "words"),
        "parallel.comm_words_per_sweep.dimtree": (words(dimtree), "words"),
        "tensor.sparse.busy_s": (busy["tensor.sparse"] / per_sweep, "s"),
        "tensor.sparse.nnz_per_s": (_ratio(counts["tensor.sparse.nnz"], busy["tensor.sparse"]),
                                    "1/s"),
        "backend.workspace.hit_rate": (
            _ratio(counts["workspace.hit"], counts["workspace.hit"] + counts["workspace.miss"]),
            "ratio"),
        "backend.workspace.high_water_mb": (
            counts["workspace.high_water_words"] * 8 / 2**20, "MiB"),
        "backend.parallel.tasks": (counts["backend.parallel.tasks"] / per_sweep, "count"),
        "resilience.checkpoint.save_s": (busy["resilience.checkpoint"] / per_sweep, "s"),
        "observe.trace_overhead": (trace_overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
