"""Unit tests for the CP-ALS driver."""

import numpy as np
import pytest

from repro.cp.als import KERNEL_NAMES, cp_als
from repro.cp.initialization import initialize_factors
from repro.exceptions import ParameterError, ShapeError
from repro.tensor.random import noisy_low_rank_tensor, random_low_rank_tensor, random_tensor


class TestInitialization:
    def test_random_shapes(self):
        tensor = random_tensor((4, 5, 6), seed=0)
        factors = initialize_factors(tensor, 3, method="random", seed=1)
        assert [f.shape for f in factors] == [(4, 3), (5, 3), (6, 3)]

    def test_svd_is_deterministic(self):
        tensor = random_tensor((4, 5, 6), seed=0)
        a = initialize_factors(tensor, 2, method="svd")
        b = initialize_factors(tensor, 2, method="svd")
        for fa, fb in zip(a, b):
            assert np.allclose(fa, fb)

    def test_svd_handles_rank_above_dimension(self):
        tensor = random_tensor((3, 8, 8), seed=0)
        factors = initialize_factors(tensor, 5, method="svd", seed=2)
        assert factors[0].shape == (3, 5)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            initialize_factors(random_tensor((3, 3), seed=0), 2, method="hosvd++")


class TestCPALSRecovery:
    def test_recovers_exact_low_rank_tensor(self):
        tensor = random_low_rank_tensor((10, 9, 8), 3, seed=0)
        result = cp_als(tensor, 3, n_iter_max=200, tol=1e-12, seed=1)
        assert result.final_fit > 0.999

    def test_fit_is_monotone_after_first_iterations(self):
        tensor = noisy_low_rank_tensor((10, 9, 8), 3, noise_level=0.05, seed=2)
        result = cp_als(tensor, 3, n_iter_max=40, tol=0.0, seed=3)
        fits = np.array(result.fits)
        assert np.all(np.diff(fits[1:]) > -1e-8)

    def test_two_way_tensor_matches_truncated_svd_quality(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((12, 10))
        result = cp_als(matrix, 3, n_iter_max=300, tol=1e-13, seed=5)
        u, s, vt = np.linalg.svd(matrix)
        best = np.linalg.norm((u[:, :3] * s[:3]) @ vt[:3] - matrix) / np.linalg.norm(matrix)
        assert result.final_fit >= (1 - best) - 5e-3

    def test_four_way_tensor(self):
        tensor = random_low_rank_tensor((5, 4, 6, 3), 2, seed=6)
        result = cp_als(tensor, 2, n_iter_max=300, tol=1e-12, seed=7)
        assert result.final_fit > 0.99

    def test_model_shape(self):
        tensor = random_tensor((5, 6, 7), seed=8)
        result = cp_als(tensor, 4, n_iter_max=5, seed=9)
        assert result.model.shape == (5, 6, 7)
        assert result.model.rank == 4

    def test_fit_consistent_with_dense_reconstruction(self):
        tensor = random_low_rank_tensor((6, 6, 6), 2, seed=10)
        result = cp_als(tensor, 2, n_iter_max=100, tol=1e-12, seed=11)
        direct_fit = result.model.fit(tensor)
        assert np.isclose(direct_fit, result.final_fit, atol=1e-6)


class TestCPALSOptions:
    def test_kernel_choices_agree(self):
        tensor = random_low_rank_tensor((6, 5, 4), 2, seed=12)
        a = cp_als(tensor, 2, n_iter_max=10, seed=13, kernel="einsum")
        b = cp_als(tensor, 2, n_iter_max=10, seed=13, kernel="matmul")
        assert np.allclose(a.fits, b.fits, atol=1e-10)

    def test_dimtree_kernel_matches_einsum_trajectory(self):
        tensor = noisy_low_rank_tensor((9, 8, 7), 3, noise_level=0.02, seed=30)
        a = cp_als(tensor, 3, n_iter_max=15, tol=0.0, seed=31, kernel="einsum")
        b = cp_als(tensor, 3, n_iter_max=15, tol=0.0, seed=31, kernel="dimtree")
        assert np.allclose(a.fits, b.fits, atol=1e-10)
        assert a.mttkrp_calls == b.mttkrp_calls

    # "blocked" and "auto" are retired kernel names: they must fail loudly.
    @pytest.mark.parametrize("name", ["gpu", "blocked", "auto"])
    def test_unknown_kernel_message_unified(self, name):
        with pytest.raises(ParameterError, match=f"unknown MTTKRP kernel '{name}'; use one of"):
            cp_als(random_tensor((3, 3), seed=0), 2, kernel=name)

    def test_no_threads_option(self):
        """The dense kernels run serially; ``threads=`` is not an option."""
        with pytest.raises(TypeError, match="threads"):
            cp_als(random_tensor((3, 3, 3), seed=0), 2, threads=2)

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"n_iter_max": -3}, "n_iter_max"),
            ({"n_iter_max": 2.5}, "n_iter_max"),
            ({"n_iter_max": True}, "n_iter_max"),
            ({"tol": float("nan")}, "tol"),
        ],
    )
    def test_invalid_loop_controls_rejected(self, options, name):
        with pytest.raises(ParameterError, match=name):
            cp_als(random_tensor((4, 4, 4), seed=0), 2, seed=1, **options)

    @pytest.mark.parametrize("kernel", ["dimtree", "sampled-dimtree"])
    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_invalid_invalidation_tol_rejected(self, kernel, tol):
        """An infinite tolerance would keep stale partials forever (the fit
        diverges); NaN and negative ones are meaningless."""
        with pytest.raises(ParameterError, match="residual_tol"):
            cp_als(random_tensor((4, 4, 4), seed=0), 2, kernel=kernel,
                   invalidation="residual", invalidation_tol=tol)

    @pytest.mark.parametrize("kernel", ["dimtree", "sampled-dimtree"])
    def test_zero_invalidation_tol_accepted(self, kernel):
        result = cp_als(random_tensor((4, 4, 4), seed=0), 2, kernel=kernel, seed=1,
                        n_iter_max=2, tol=0.0, invalidation="residual", invalidation_tol=0)
        assert np.all(np.isfinite(result.fits))

    def test_unknown_invalidation_rejected_for_every_kernel(self):
        with pytest.raises(ParameterError, match="invalidation"):
            cp_als(random_tensor((4, 4, 4), seed=0), 2, kernel="einsum",
                   invalidation="bogus")

    @pytest.mark.parametrize("n_iter_max", [0, 3.0])
    def test_integral_n_iter_max_accepted(self, n_iter_max):
        result = cp_als(random_tensor((4, 4, 4), seed=0), 2, n_iter_max=n_iter_max, tol=0.0)
        assert result.n_iterations == len(result.fits) == int(n_iter_max)

    def test_custom_kernel_callable(self):
        from repro.core.kernels import mttkrp

        calls = []

        def counting_kernel(tensor, factors, mode):
            calls.append(mode)
            return mttkrp(tensor, factors, mode)

        tensor = random_tensor((4, 4, 4), seed=14)
        result = cp_als(tensor, 2, n_iter_max=3, tol=0.0, seed=15, kernel=counting_kernel)
        assert len(calls) == result.mttkrp_calls
        assert len(calls) == 3 * 3

    def test_unknown_kernel(self):
        with pytest.raises(ParameterError):
            cp_als(random_tensor((3, 3), seed=0), 2, kernel="gpu")

    def test_explicit_initial_factors(self):
        tensor = random_low_rank_tensor((5, 5, 5), 2, seed=16)
        init = initialize_factors(tensor, 2, method="svd")
        result = cp_als(tensor, 2, init=init, n_iter_max=50, tol=1e-12)
        assert result.final_fit > 0.99

    def test_explicit_init_wrong_length(self):
        tensor = random_tensor((4, 4, 4), seed=17)
        with pytest.raises(ParameterError):
            cp_als(tensor, 2, init=[np.zeros((4, 2))])

    def test_explicit_init_wrong_factor_shape(self):
        """Too many columns, or too few rows in a factor the first update
        overwrites unread, must both be rejected up front."""
        tensor = random_tensor((5, 6, 7), seed=17)
        wide = [np.ones((5, 4)), np.ones((6, 4)), np.ones((7, 4))]
        short_rows = [np.ones((4, 3)), np.ones((6, 3)), np.ones((7, 3))]
        for init in (wide, short_rows):
            with pytest.raises(ShapeError, match="factor matrix for mode"):
                cp_als(tensor, 3, init=init, n_iter_max=2)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("defect", ["rows", "cols"])
    def test_explicit_init_wrong_shape_names_the_mode(self, mode, defect):
        """Every mode's factor is checked, and the error names that mode."""
        tensor = random_tensor((5, 6, 7), seed=17)
        init = [np.ones((n, 3)) for n in tensor.shape]
        rows, cols = init[mode].shape
        init[mode] = np.ones((rows - 1, cols) if defect == "rows" else (rows, cols + 1))
        with pytest.raises(ShapeError, match=f"factor matrix for mode {mode}"):
            cp_als(tensor, 3, init=init, n_iter_max=2)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_explicit_init_checked_whatever_the_kernel(self, kernel):
        """Mode 0's factor is overwritten unread by the first update, so only
        the up-front check catches a wrong row count, for every kernel."""
        tensor = random_tensor((5, 6, 7), seed=17)
        short_rows = [np.ones((4, 3)), np.ones((6, 3)), np.ones((7, 3))]
        with pytest.raises(ShapeError, match="factor matrix for mode 0"):
            cp_als(tensor, 3, init=short_rows, kernel=kernel, n_iter_max=2, seed=1)

    def test_explicit_init_one_dimensional_factor_rejected(self):
        tensor = random_tensor((5, 6, 7), seed=17)
        init = [np.ones(5), np.ones((6, 3)), np.ones((7, 3))]
        with pytest.raises(ShapeError, match="must be 2-D"):
            cp_als(tensor, 3, init=init, n_iter_max=2)

    def test_explicit_init_is_not_mutated(self):
        tensor = random_low_rank_tensor((6, 5, 4), 2, seed=18)
        init = initialize_factors(tensor, 2, method="random", seed=3)
        before = [f.copy() for f in init]
        result = cp_als(tensor, 2, init=init, n_iter_max=3, tol=0.0)
        assert len(result.fits) == 3
        for given, kept in zip(init, before):
            assert np.array_equal(given, kept)

    def test_svd_init_string(self):
        tensor = random_low_rank_tensor((6, 5, 4), 2, seed=18)
        result = cp_als(tensor, 2, init="svd", n_iter_max=50, tol=1e-12)
        assert result.final_fit > 0.99

    def test_seed_reproducibility(self):
        tensor = random_tensor((5, 5, 5), seed=19)
        a = cp_als(tensor, 3, n_iter_max=8, seed=42)
        b = cp_als(tensor, 3, n_iter_max=8, seed=42)
        assert np.allclose(a.fits, b.fits)

    def test_convergence_flag(self):
        tensor = random_low_rank_tensor((6, 6, 6), 1, seed=20)
        converged = cp_als(tensor, 1, n_iter_max=100, tol=1e-9, seed=21)
        assert converged.converged
        not_converged = cp_als(tensor, 1, n_iter_max=1, tol=1e-15, seed=21)
        assert not not_converged.converged

    def test_nonconvergence_warning(self):
        tensor = random_tensor((5, 5, 5), seed=22)
        with pytest.warns(UserWarning):
            cp_als(tensor, 2, n_iter_max=1, tol=1e-15, seed=23, warn_on_nonconvergence=True)

    def test_rejects_one_way_tensor(self):
        with pytest.raises(ParameterError):
            cp_als(np.ones(5), 2)
