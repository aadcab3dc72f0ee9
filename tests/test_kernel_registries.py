"""Tier-1 consistency tests for the two MTTKRP kernel registries.

Every parallel kernel name must have a sequential counterpart (or a
documented exception), and both drivers' unknown-kernel errors must list
their registry's names verbatim — the single shared
:func:`repro.core.sweep_kernel.check_kernel_name` guarantees the wording.
"""

import re
from pathlib import Path

import pytest

from repro.cp.als import KERNEL_NAMES, cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.tensor.random import noisy_low_rank_tensor

#: Parallel names with no same-named sequential registry entry, and why:
#: ``"exact"`` selects the distributed Algorithm 3/4 pipeline, whose
#: sequential-quality arithmetic is the per-call ``"einsum"`` / ``"matmul"``
#: kernels of the sequential registry.
DOCUMENTED_EXCEPTIONS = {"exact": ("einsum", "matmul")}


class TestRegistryConsistency:
    def test_every_parallel_kernel_has_a_sequential_counterpart(self):
        for name in PARALLEL_KERNEL_NAMES:
            if name in DOCUMENTED_EXCEPTIONS:
                counterparts = DOCUMENTED_EXCEPTIONS[name]
                assert all(c in KERNEL_NAMES for c in counterparts), name
            else:
                assert name in KERNEL_NAMES, (
                    f"parallel kernel {name!r} has no sequential counterpart "
                    "and no documented exception"
                )

    def test_exceptions_still_document_real_names(self):
        for name, counterparts in DOCUMENTED_EXCEPTIONS.items():
            assert name in PARALLEL_KERNEL_NAMES
            for counterpart in counterparts:
                assert counterpart in KERNEL_NAMES

    def test_registries_contain_the_shared_sweep_kernels(self):
        for name in ("dimtree", "sampled", "sampled-tree", "sampled-dimtree"):
            assert name in KERNEL_NAMES
            assert name in PARALLEL_KERNEL_NAMES

    def test_einsum_is_the_only_per_call_dense_kernel(self):
        """``matmul`` is the explicit-KRP baseline; no second dense path is listed."""
        assert KERNEL_NAMES == (
            "einsum", "matmul", "dimtree", "sampled", "sampled-tree", "sampled-dimtree"
        )

    def test_retired_dense_module_holds_no_code_and_is_not_imported(self):
        import repro.core.blocked_mttkrp as retired

        assert [name for name in vars(retired) if not name.startswith("__")] == []
        root = Path(__file__).resolve().parent.parent
        importers = [
            str(path.relative_to(root))
            for folder in ("src", "benchmarks", "examples")
            for path in sorted((root / folder).rglob("*.py"))
            if re.search(r"^\s*(from|import)\s+repro\.core\.blocked_mttkrp\b",
                         path.read_text(), re.MULTILINE)
        ]
        assert importers == []


class TestErrorMessagesListRegistryVerbatim:
    @pytest.fixture
    def tensor(self):
        return noisy_low_rank_tensor((5, 4, 3), 2, noise_level=0.02, seed=0)

    def test_sequential_driver_lists_its_names(self, tensor):
        with pytest.raises(ParameterError) as excinfo:
            cp_als(tensor, 2, kernel="no-such-kernel")
        message = str(excinfo.value)
        assert ", ".join(sorted(KERNEL_NAMES)) in message
        for name in KERNEL_NAMES:
            assert name in message
        assert "or a callable" in message

    def test_parallel_driver_lists_its_names(self, tensor):
        with pytest.raises(ParameterError) as excinfo:
            parallel_cp_als(tensor, 2, 4, kernel="no-such-kernel")
        message = str(excinfo.value)
        assert ", ".join(sorted(PARALLEL_KERNEL_NAMES)) in message
        for name in PARALLEL_KERNEL_NAMES:
            assert name in message
        assert "parallel MTTKRP kernel" in message
        assert "or a callable" not in message
