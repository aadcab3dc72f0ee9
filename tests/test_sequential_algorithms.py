"""Unit tests for the counted sequential algorithms (Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bounds.sequential import sequential_lower_bound
from repro.core.kernels import mttkrp
from repro.costmodel.sequential_model import blocked_cost_upper_bound, unblocked_cost
from repro.exceptions import ParameterError
from repro.sequential.blocked import blocked_io_cost, sequential_blocked_mttkrp
from repro.sequential.machine import IOCounter
from repro.sequential.unblocked import sequential_unblocked_mttkrp, unblocked_io_cost
from repro.tensor.random import random_factors, random_tensor


def problem(shape=(8, 9, 10), rank=4, seed=0):
    return random_tensor(shape, seed=seed), random_factors(shape, rank, seed=seed + 1)


def integer_problem(shape, rank, seed, *, noncontiguous=False):
    """Integer-valued float64 tensor + factors: every partial sum is exact.

    Summing a row's block contributions in any order then gives the same
    bits, so Algorithm 2 can be compared with the einsum kernel at atol=0.
    """
    rng = np.random.default_rng(seed)
    data = rng.integers(-2, 3, size=shape).astype(np.float64)
    if noncontiguous:
        # Row- and column-strided views: block slicing must not assume contiguity.
        factors = [
            rng.integers(-2, 3, size=(2 * dim, 2 * rank)).astype(np.float64)[::2, ::2]
            for dim in shape
        ]
    else:
        factors = [rng.integers(-2, 3, size=(dim, rank)).astype(np.float64) for dim in shape]
    return data, factors


class TestUnblockedAlgorithm:
    def test_result_correct_all_modes(self):
        tensor, factors = problem()
        for mode in range(3):
            result = sequential_unblocked_mttkrp(tensor, factors, mode)
            assert np.allclose(result.result, mttkrp(tensor, factors, mode))

    def test_io_count_matches_formula(self):
        shape, rank = (8, 9, 10), 4
        tensor, factors = problem(shape, rank)
        result = sequential_unblocked_mttkrp(tensor, factors, 0)
        assert result.words_moved == unblocked_io_cost(shape, rank)
        assert result.words_moved == unblocked_cost(shape, rank)

    def test_io_count_independent_of_mode(self):
        tensor, factors = problem()
        counts = [sequential_unblocked_mttkrp(tensor, factors, m).words_moved for m in range(3)]
        assert len(set(counts)) == 1

    def test_loads_and_stores_split(self):
        shape, rank = (4, 4, 4), 2
        tensor, factors = problem(shape, rank)
        result = sequential_unblocked_mttkrp(tensor, factors, 0)
        total = 64
        assert result.counter.stores == total * rank
        assert result.counter.loads == total + total * rank * 3

    def test_external_counter_accumulates(self):
        tensor, factors = problem((4, 4, 4), 2)
        counter = IOCounter()
        sequential_unblocked_mttkrp(tensor, factors, 0, counter=counter)
        first = counter.words_moved
        sequential_unblocked_mttkrp(tensor, factors, 1, counter=counter)
        assert counter.words_moved == 2 * first


class TestBlockedAlgorithm:
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 16])
    def test_result_correct_for_any_block(self, block):
        tensor, factors = problem()
        for mode in range(3):
            result = sequential_blocked_mttkrp(tensor, factors, mode, block=block)
            assert np.allclose(result.result, mttkrp(tensor, factors, mode))

    @pytest.mark.parametrize("block", [1, 2, 4, 7])
    def test_io_count_matches_exact_formula(self, block):
        shape, rank, mode = (8, 9, 10), 4, 1
        tensor, factors = problem(shape, rank)
        result = sequential_blocked_mttkrp(tensor, factors, mode, block=block)
        assert result.words_moved == blocked_io_cost(shape, rank, mode, block)

    @pytest.mark.parametrize("block", [2, 3, 5])
    def test_io_count_below_paper_upper_bound(self, block):
        shape, rank = (8, 9, 10), 4
        tensor, factors = problem(shape, rank)
        result = sequential_blocked_mttkrp(tensor, factors, 0, block=block)
        assert result.words_moved <= blocked_cost_upper_bound(shape, rank, block) + 1e-9

    def test_block_one_equals_unblocked_count(self):
        shape, rank = (5, 6, 7), 3
        tensor, factors = problem(shape, rank)
        blocked = sequential_blocked_mttkrp(tensor, factors, 0, block=1)
        assert blocked.words_moved == unblocked_cost(shape, rank)

    def test_larger_blocks_reduce_communication(self):
        shape, rank = (16, 16, 16), 4
        tensor, factors = problem(shape, rank)
        w1 = sequential_blocked_mttkrp(tensor, factors, 0, block=1).words_moved
        w4 = sequential_blocked_mttkrp(tensor, factors, 0, block=4).words_moved
        w8 = sequential_blocked_mttkrp(tensor, factors, 0, block=8).words_moved
        assert w1 > w4 > w8

    def test_automatic_block_choice_from_memory(self):
        tensor, factors = problem((12, 12, 12), 3)
        result = sequential_blocked_mttkrp(tensor, factors, 0, memory_words=200)
        assert result.block >= 2
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))

    def test_memory_violation_raises(self):
        tensor, factors = problem((12, 12, 12), 3)
        with pytest.raises(ParameterError):
            sequential_blocked_mttkrp(tensor, factors, 0, block=10, memory_words=100)

    def test_memory_check_can_be_disabled(self):
        tensor, factors = problem((12, 12, 12), 3)
        result = sequential_blocked_mttkrp(
            tensor, factors, 0, block=10, memory_words=100, check_memory=False
        )
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))

    def test_requires_block_or_memory(self):
        tensor, factors = problem()
        with pytest.raises(ParameterError):
            sequential_blocked_mttkrp(tensor, factors, 0)

    def test_non_cubical_shapes(self):
        shape, rank = (4, 15, 7), 3
        tensor, factors = problem(shape, rank, seed=3)
        result = sequential_blocked_mttkrp(tensor, factors, 2, block=4)
        assert np.allclose(result.result, mttkrp(tensor, factors, 2))
        assert result.words_moved == blocked_io_cost(shape, rank, 2, 4)


class TestBlockedEqualsEinsum:
    """Algorithm 2 computes exactly the einsum MTTKRP for every block size."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40)
    @given(
        block=st.integers(min_value=1, max_value=9),
        mode=st.integers(min_value=0, max_value=2),
        rank=st.sampled_from([1, 2, 5]),
        seed=st.integers(min_value=0, max_value=6),
        noncontiguous=st.booleans(),
    )
    def test_any_block_matches_einsum_exactly(self, block, mode, rank, seed, noncontiguous):
        """Blocks of 1 up to past the largest extent (8), R=1 included."""
        shape = (7, 8, 6)
        data, factors = integer_problem(shape, rank, seed, noncontiguous=noncontiguous)
        result = sequential_blocked_mttkrp(data, factors, mode, block=block)
        np.testing.assert_array_equal(result.result, mttkrp(data, factors, mode))
        assert result.words_moved == blocked_io_cost(shape, rank, mode, block)

    @pytest.mark.parametrize(
        "shape", [(9, 7), (5, 6, 4), (4, 3, 5, 2)], ids=["2-way", "3-way", "4-way"]
    )
    def test_every_mode_of_n_way_tensors(self, shape):
        data, factors = integer_problem(shape, 3, seed=len(shape))
        for mode in range(len(shape)):
            for block in (1, 2, 3):
                result = sequential_blocked_mttkrp(data, factors, mode, block=block)
                np.testing.assert_array_equal(result.result, mttkrp(data, factors, mode))
                assert result.words_moved == blocked_io_cost(shape, 3, mode, block)

    @pytest.mark.parametrize(
        "shape, mode", [((1, 6, 5), 0), ((6, 1, 5), 1), ((6, 1, 5), 0), ((4, 1, 1), 0)]
    )
    def test_length_one_modes(self, shape, mode):
        """Extent-1 modes, in and out of the output position, block correctly."""
        data, factors = integer_problem(shape, 2, seed=11)
        result = sequential_blocked_mttkrp(data, factors, mode, block=2)
        np.testing.assert_array_equal(result.result, mttkrp(data, factors, mode))
        assert result.words_moved == blocked_io_cost(shape, 2, mode, 2)

    def test_two_way_tensor_is_a_blocked_matmul(self):
        """N=2: the MTTKRP of a matrix is a matrix product with the other factor."""
        data, factors = integer_problem((9, 7), 4, seed=5)
        np.testing.assert_array_equal(
            sequential_blocked_mttkrp(data, factors, 0, block=3).result, data @ factors[1]
        )
        np.testing.assert_array_equal(
            sequential_blocked_mttkrp(data, factors, 1, block=3).result, data.T @ factors[0]
        )

    def test_covering_block_is_one_einsum_call(self):
        """A block covering the tensor is one local MTTKRP: bitwise, one pass."""
        shape, rank, mode = (8, 7, 6), 5, 2
        tensor, factors = problem(shape, rank, seed=9)
        result = sequential_blocked_mttkrp(tensor, factors, mode, block=8)
        assert result.result.tobytes() == mttkrp(tensor, factors, mode).tobytes()
        # One block: the tensor once, plus R x (inputs + output load + store).
        assert result.words_moved == 8 * 7 * 6 + rank * (8 + 7 + 2 * 6)

    @pytest.mark.parametrize("block", [0, -2])
    def test_nonpositive_block_raises(self, block):
        tensor, factors = problem((5, 4, 3), 2)
        with pytest.raises(ParameterError, match="block"):
            sequential_blocked_mttkrp(tensor, factors, 0, block=block)


class TestOptimality:
    """Measured Algorithm 2 communication sits between the lower bounds and Eq. (21)."""

    @pytest.mark.parametrize("memory", [64, 256, 1024])
    def test_sandwich(self, memory):
        shape, rank, mode = (16, 16, 16), 4, 0
        tensor, factors = problem(shape, rank, seed=9)
        from repro.sequential.block_size import choose_block_size

        block = choose_block_size(3, memory, shape=shape)
        measured = sequential_blocked_mttkrp(
            tensor, factors, mode, block=block, memory_words=memory
        ).words_moved
        bounds = sequential_lower_bound(shape, rank, memory)
        assert bounds.combined <= measured <= blocked_cost_upper_bound(shape, rank, block) + 1e-9

    def test_blocked_beats_unblocked_with_reasonable_memory(self):
        shape, rank = (16, 16, 16), 4
        tensor, factors = problem(shape, rank, seed=11)
        blocked = sequential_blocked_mttkrp(tensor, factors, 0, memory_words=512)
        unblocked = sequential_unblocked_mttkrp(tensor, factors, 0)
        assert blocked.words_moved < unblocked.words_moved
