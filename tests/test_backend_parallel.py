"""Contract tests for the shared thread executor of the chunked kernels.

The executor's promises are stronger than "runs concurrently": results come
back in task-index order regardless of completion order, thread-count
resolution is explicit-arg > ``REPRO_THREADS`` > 1, errors propagate after
all tasks settle, and :func:`ordered_reduce` folds partials in a fixed
left-to-right order — the properties the bitwise-determinism claims of the
chunked sparse kernel and the threaded Algorithm 3/4 rank tasks rest on.
"""

import threading
import time

import numpy as np
import pytest

from repro.backend.parallel import (
    MAX_THREADS,
    THREADS_ENV_VAR,
    effective_cpu_count,
    ordered_reduce,
    parallel_map,
    resolve_threads,
)
from repro.exceptions import ParameterError


class TestResolveThreads:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "7")
        assert resolve_threads(3) == 3

    def test_env_var_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "5")
        assert resolve_threads(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(None) == 1
        monkeypatch.setenv(THREADS_ENV_VAR, "  ")
        assert resolve_threads(None) == 1

    def test_garbage_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ParameterError):
            resolve_threads(None)

    @pytest.mark.parametrize("bad", [0, -1, MAX_THREADS + 1])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ParameterError):
            resolve_threads(bad)

    @pytest.mark.parametrize("bad", [2.7, True, "3"])
    def test_non_integral_counts_raise(self, bad):
        """A fractional count is rejected, never truncated to fewer workers."""
        with pytest.raises(ParameterError, match="threads"):
            resolve_threads(bad)

    @pytest.mark.parametrize("count", [3.0, np.int64(3)])
    def test_integral_counts_accepted(self, count):
        assert resolve_threads(count) == 3

    def test_fractional_count_rejected_by_the_sparse_kernel(self):
        from repro.tensor.random import random_factors
        from repro.tensor.sparse import SparseTensor, sparse_mttkrp

        tensor = SparseTensor(
            shape=(4, 4, 4), coords=np.array([[0, 1, 2], [3, 0, 1]]), values=np.ones(2)
        )
        with pytest.raises(ParameterError, match="threads"):
            sparse_mttkrp(
                tensor, random_factors((4, 4, 4), 2, seed=0), 0,
                nzchunk=1, rchunk=1, threads=2.9,
            )

    def test_oversubscription_is_legal(self):
        """More threads than cores is allowed — the cost model judges value."""
        assert resolve_threads(MAX_THREADS) == MAX_THREADS

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1


class TestParallelMap:
    def test_results_in_task_index_order(self):
        """Fast-finishing late tasks must not reorder the results."""

        def work(i):
            time.sleep(0.01 * (5 - i))  # task 0 finishes last
            return i * i

        assert parallel_map(work, range(6), threads=4) == [i * i for i in range(6)]

    def test_serial_and_threaded_agree(self):
        items = list(range(20))
        serial = parallel_map(lambda i: i + 1, items, threads=1)
        threaded = parallel_map(lambda i: i + 1, items, threads=3)
        assert serial == threaded == [i + 1 for i in items]

    def test_actually_uses_worker_threads(self):
        names = parallel_map(
            lambda _: threading.current_thread().name, range(8), threads=2
        )
        assert any(name.startswith("repro-chunk-") for name in names)

    def test_inline_when_serial_or_single_item(self):
        main = threading.current_thread().name
        assert parallel_map(
            lambda _: threading.current_thread().name, range(4), threads=1
        ) == [main] * 4
        assert parallel_map(
            lambda _: threading.current_thread().name, [0], threads=8
        ) == [main]

    def test_empty_items(self):
        assert parallel_map(lambda i: i, [], threads=4) == []

    def test_first_exception_propagates_after_all_settle(self):
        settled = []

        def work(i):
            settled.append(i)
            if i == 1:
                raise ValueError("boom-1")
            if i == 3:
                raise ValueError("boom-3")
            return i

        with pytest.raises(ValueError, match="boom-1"):
            parallel_map(work, range(5), threads=2)
        assert sorted(settled) == [0, 1, 2, 3, 4]

    def test_accepts_range_and_generators(self):
        assert parallel_map(lambda i: -i, (i for i in range(3)), threads=2) == [0, -1, -2]


class TestOrderedReduce:
    def test_left_to_right_fold(self):
        trace = []

        def combine(acc, item):
            trace.append((acc, item))
            return acc + item

        assert ordered_reduce([1, 2, 3, 4], combine) == 10
        assert trace == [(1, 2), (3, 3), (6, 4)]

    def test_matches_serial_float_accumulation_bitwise(self):
        """The fixed fold reproduces serial left-to-right summation exactly."""
        rng = np.random.default_rng(0)
        partials = [rng.standard_normal((5, 3)) for _ in range(9)]
        serial = np.zeros((5, 3))
        for p in partials:
            serial = serial + p
        folded = ordered_reduce(
            [np.zeros((5, 3))] + partials, lambda acc, p: np.add(acc, p, out=acc)
        )
        assert folded.tobytes() == serial.tobytes()

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            ordered_reduce([], lambda a, b: a)
