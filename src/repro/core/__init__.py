"""Core MTTKRP kernels (Definition 2.1 of the paper).

Three single-node kernels are provided:

* :func:`mttkrp_reference` — a literal transcription of Definition 2.1
  (atomic N-ary multiplies, triple loop), used as the oracle in tests;
* :func:`mttkrp` — the fast vectorised kernel (einsum-based) used as the
  local computation inside the blocked and parallel algorithms;
* :func:`mttkrp_via_matmul` — the "MTTKRP via matrix multiplication"
  baseline of Section III-B: explicit mode-n unfolding, explicit Khatri-Rao
  product, then a single GEMM.

For CP-ALS workloads, :mod:`repro.core.dimtree` provides the sweep-aware
dimension-tree engine (:class:`DimensionTreeKernel`, kernel ``"dimtree"``)
that caches partial contractions across mode updates, and
:mod:`repro.core.sweep_kernel` the kernel protocol the ALS drivers speak.

The communication-counting variants (sequential Algorithms 1 & 2, parallel
Algorithms 3 & 4) live in :mod:`repro.sequential` and :mod:`repro.parallel`.
"""

from repro.core.reference import mttkrp_reference
from repro.core.kernels import mttkrp, local_mttkrp
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.core.multi_mode import multi_mode_mttkrp, MultiModeResult
from repro.core.dimtree import (
    DimensionTree,
    DimensionTreeKernel,
    FactorGate,
    SweepCost,
    dimtree_sweep_cost,
    split_chain,
    split_half,
)
from repro.core.sampled_dimtree import (
    FusedSamplerCache,
    FusedSweepCost,
    SampledDimtreeKernel,
)
from repro.core.sweep_kernel import (
    PerCallKernel,
    SweepKernel,
    as_sweep_kernel,
    check_kernel_name,
)

__all__ = [
    "mttkrp_reference",
    "mttkrp",
    "local_mttkrp",
    "mttkrp_via_matmul",
    "multi_mode_mttkrp",
    "MultiModeResult",
    "DimensionTree",
    "DimensionTreeKernel",
    "FactorGate",
    "SweepCost",
    "dimtree_sweep_cost",
    "split_chain",
    "split_half",
    "FusedSamplerCache",
    "FusedSweepCost",
    "SampledDimtreeKernel",
    "SweepKernel",
    "PerCallKernel",
    "as_sweep_kernel",
    "check_kernel_name",
]
