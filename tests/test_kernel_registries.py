"""Tier-1 tests of the one kernel table both ALS drivers resolve names from.

:data:`repro.cp.als.KERNELS` maps each name to a sequential factory, an
optional distributed factory and a stationary-only flag; the exported name
tuples are computed from it.  Every test below iterates the table, so a new
entry is covered without editing this file.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.cp.als import KERNEL_NAMES, KERNELS, PARALLEL_KERNEL_NAMES, cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.exceptions import ParameterError
from repro.tensor.random import noisy_low_rank_tensor

DISTRIBUTED = [name for name, spec in KERNELS.items() if spec.distributed is not None]
STATIONARY_ONLY = [name for name in DISTRIBUTED if KERNELS[name].stationary_only]
NO_DISTRIBUTED_FORM = [name for name in KERNELS if name not in DISTRIBUTED]


@pytest.fixture(scope="module")
def tensor():
    return noisy_low_rank_tensor((5, 4, 3), 2, noise_level=0.02, seed=0)


class TestTable:
    def test_exported_names_are_computed_from_the_table(self):
        assert KERNEL_NAMES == tuple(KERNELS)
        assert PARALLEL_KERNEL_NAMES == tuple(DISTRIBUTED)

    def test_einsum_is_the_only_per_call_dense_kernel(self):
        """``matmul`` is the explicit-KRP baseline; no second dense path is listed."""
        assert KERNEL_NAMES == (
            "einsum", "matmul", "dimtree", "sampled", "sampled-tree", "sampled-dimtree"
        )

    def test_only_einsum_runs_on_the_general_distribution(self):
        assert [n for n in DISTRIBUTED if not KERNELS[n].stationary_only] == ["einsum"]

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


class TestEveryEntryResolves:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_sequential(self, tensor, name):
        result = cp_als(tensor, 2, kernel=name, n_iter_max=2, tol=0.0, seed=1)
        assert result.n_iterations == 2
        assert np.all(np.isfinite(result.fits))

    @pytest.mark.parametrize("name", DISTRIBUTED)
    def test_distributed_follows_the_sequential_entry(self, tensor, name):
        """One seed, one name: both drivers draw the same stream from the same
        distribution, so the fits agree to rounding."""
        seq = cp_als(tensor, 2, kernel=name, n_iter_max=3, tol=0.0, seed=4)
        par = parallel_cp_als(tensor, 2, 4, kernel=name, n_iter_max=3, tol=0.0, seed=4)
        assert len(par.words_per_iteration) == 3
        assert par.total_words > 0
        assert np.allclose(seq.fits, par.als.fits, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "name", [n for n in DISTRIBUTED if not KERNELS[n].stationary_only]
    )
    def test_general_algorithm(self, tensor, name):
        result = parallel_cp_als(
            tensor, 2, 4, kernel=name, algorithm="general", n_iter_max=2, tol=0.0, seed=1
        )
        assert result.algorithm == "general"

    @pytest.mark.parametrize("name", STATIONARY_ONLY)
    def test_stationary_only_entries_reject_general(self, tensor, name):
        with pytest.raises(ParameterError, match="stationary"):
            parallel_cp_als(tensor, 2, 4, kernel=name, algorithm="general")


class TestErrorMessagesListTheTable:
    def test_sequential_driver_lists_every_name(self, tensor):
        with pytest.raises(ParameterError) as excinfo:
            cp_als(tensor, 2, kernel="no-such-kernel")
        assert ", ".join(sorted(KERNEL_NAMES)) in str(excinfo.value)

    @pytest.mark.parametrize("name", ["no-such-kernel", *NO_DISTRIBUTED_FORM])
    def test_parallel_driver_lists_the_distributed_names(self, tensor, name):
        with pytest.raises(ParameterError) as excinfo:
            parallel_cp_als(tensor, 2, 4, kernel=name)
        message = str(excinfo.value)
        assert f"unknown MTTKRP kernel {name!r}" in message
        assert message.endswith(", ".join(sorted(PARALLEL_KERNEL_NAMES)))

    def test_matmul_has_no_distributed_form(self):
        assert NO_DISTRIBUTED_FORM == ["matmul"]
