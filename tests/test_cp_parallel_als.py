"""Unit tests for CP-ALS on the simulated parallel machine."""

import numpy as np
import pytest

from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.exceptions import ParameterError, ShapeError
from repro.tensor.random import random_low_rank_tensor, random_tensor


class TestParallelCPALS:
    @pytest.fixture(scope="class")
    def tensor(self):
        return random_low_rank_tensor((8, 8, 8), 2, seed=0)

    def test_matches_sequential_fits(self, tensor):
        sequential = cp_als(tensor, 2, n_iter_max=5, tol=0.0, seed=1)
        parallel = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=5, tol=0.0, seed=1)
        assert np.allclose(parallel.als.fits, sequential.fits, atol=1e-8)

    def test_communication_recorded(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=3, tol=0.0, seed=2)
        assert result.total_words > 0
        assert len(result.words_per_iteration) == 3
        assert all(w > 0 for w in result.words_per_iteration)

    def test_words_per_iteration_constant(self, tensor):
        """Every ALS sweep performs the same MTTKRPs, hence the same communication."""
        result = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=4, tol=0.0, seed=3)
        assert len(set(result.words_per_iteration)) == 1

    def test_general_algorithm_option(self, tensor):
        result = parallel_cp_als(
            tensor, 2, n_procs=8, algorithm="general", n_iter_max=2, tol=0.0, seed=4
        )
        assert result.algorithm == "general"
        assert result.als.final_fit > 0.5

    def test_recovers_low_rank_tensor(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=4, n_iter_max=80, tol=1e-12, seed=5)
        assert result.als.final_fit > 0.999

    def test_single_processor_has_no_communication(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=1, n_iter_max=2, tol=0.0, seed=6)
        assert result.total_words == 0

    def test_explicit_init_wrong_factor_shape(self):
        """The forwarded ``init`` is validated like the sequential driver's."""
        tensor = random_tensor((5, 6, 7), seed=17)
        wide = [np.ones((5, 4)), np.ones((6, 4)), np.ones((7, 4))]
        short_rows = [np.ones((4, 3)), np.ones((6, 3)), np.ones((7, 3))]
        for init in (wide, short_rows):
            with pytest.raises(ShapeError, match="factor matrix for mode"):
                parallel_cp_als(tensor, 3, n_procs=2, init=init, n_iter_max=2)

    @pytest.mark.parametrize("algorithm", ["stationary", "general"])
    @pytest.mark.parametrize("mode", [0, 2])
    def test_explicit_init_wrong_rows_rejected_per_algorithm(self, algorithm, mode):
        tensor = random_tensor((5, 6, 7), seed=17)
        init = [np.ones((n, 3)) for n in tensor.shape]
        init[mode] = np.ones((tensor.shape[mode] + 1, 3))
        with pytest.raises(ShapeError, match=f"factor matrix for mode {mode}"):
            parallel_cp_als(
                tensor, 3, n_procs=4, algorithm=algorithm, init=init, n_iter_max=2
            )

    @pytest.mark.parametrize("options", [{"n_iter_max": -1}, {"tol": float("nan")}])
    def test_invalid_loop_controls_rejected(self, tensor, options):
        with pytest.raises(ParameterError):
            parallel_cp_als(tensor, 2, n_procs=4, seed=1, **options)

    def test_invalid_algorithm(self, tensor):
        with pytest.raises(ParameterError):
            parallel_cp_als(tensor, 2, n_procs=4, algorithm="hybrid")

    def test_grid_recorded(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=1, tol=0.0, seed=7)
        assert len(result.grids) == 1
        assert int(np.prod(result.grids[0])) == 8

    @pytest.mark.parametrize("algorithm", ["stationary", "general"])
    def test_threads_leave_fits_and_ledger_bitwise(self, tensor, algorithm):
        """Per-rank local MTTKRPs fan out on threads; nothing observable moves."""
        serial = parallel_cp_als(
            tensor, 2, n_procs=8, algorithm=algorithm,
            n_iter_max=4, tol=0.0, seed=8, threads=1,
        )
        threaded = parallel_cp_als(
            tensor, 2, n_procs=8, algorithm=algorithm,
            n_iter_max=4, tol=0.0, seed=8, threads=4,
        )
        assert np.array_equal(serial.als.fits, threaded.als.fits)
        assert serial.words_per_iteration == threaded.words_per_iteration
        for field in ("words_sent", "words_received", "flops", "storage_high_water"):
            np.testing.assert_array_equal(
                getattr(serial.machine, field), getattr(threaded.machine, field)
            )
