"""Fast single-node MTTKRP kernels.

:func:`mttkrp` is the vectorised kernel used throughout the package whenever a
*local* MTTKRP must actually be computed (inside the blocked sequential
algorithm, inside the per-processor step of the parallel algorithms, and
inside CP-ALS).  It expresses the contraction as a single ``einsum`` with an
optimised contraction path; the *result* is identical to the atomic
N-ary-multiply definition (Definition 2.1), only the association of the
arithmetic differs.

:func:`local_mttkrp` is the same computation exposed under the name the
parallel algorithms use for their local step (Line 6 of Algorithm 3 / Line 7
of Algorithm 4).
"""

from __future__ import annotations

import string
import threading
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.observe.instrument import inc as observe_inc
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_factor_matrices, check_mode, infer_rank

#: Index letter reserved for the rank dimension in the einsum specification.
_RANK_LETTER = "z"

#: Maximum number of tensor modes supported by the einsum-based kernel.
MAX_MODES = len(string.ascii_lowercase) - 1

#: Memoized einsum contraction paths.  The greedy path search of
#: ``optimize=True`` is pure Python and, inside ALS hot loops, was re-run on
#: every MTTKRP call even though the operand shapes repeat identically sweep
#: after sweep; the cache makes the search a once-per-problem cost.  Keys
#: include the operand dtypes alongside ``(shape, mode, rank)``: a path
#: planned for float64 operands must never be served to a float32 call,
#: whose intermediate-size tradeoffs differ.  Bounded as an LRU (insertion order
#: doubles as recency order: hits are moved to the end, overflow evicts the
#: oldest entry) so a long multi-problem process sheds cold one-off shapes
#: while the hot steady-state ALS paths survive.  Shared mutable state the
#: moment kernels run on the thread executor (the per-rank tasks of
#: Algorithms 3 and 4 may plan paths concurrently), so every
#: lookup/move-to-end/evict happens under ``_PATH_CACHE_LOCK`` — path
#: *planning* itself runs outside the lock (it is pure), at worst
#: duplicating a plan that the last writer then wins.
_PATH_CACHE: OrderedDict = OrderedDict()
_PATH_CACHE_MAX_ENTRIES = 512
_PATH_CACHE_LOCK = threading.Lock()


def _path_cache_key(base, operands):
    """Full cache key: the call-site ``base`` plus operand dtypes."""
    return (base, tuple(str(op.dtype) for op in operands))


def _contraction_path(key, spec: str, operands) -> list:
    """The cached einsum path for ``spec`` over ``operands`` (see ``_PATH_CACHE``)."""
    with _PATH_CACHE_LOCK:
        path = _PATH_CACHE.get(key)
        if path is not None:
            observe_inc("path_cache.hit")
            _PATH_CACHE.move_to_end(key)
            return path
    observe_inc("path_cache.miss")
    # Path planning reads only shapes and dtypes, so plan over
    # zero-strided dummies: free of data movement.
    dummies = [
        np.lib.stride_tricks.as_strided(
            np.empty(1, dtype=np.dtype(str(op.dtype))),
            shape=tuple(int(d) for d in op.shape),
            strides=(0,) * len(op.shape),
        )
        for op in operands
    ]
    path = np.einsum_path(spec, *dummies, optimize=True)[0]
    with _PATH_CACHE_LOCK:
        if key not in _PATH_CACHE and len(_PATH_CACHE) >= _PATH_CACHE_MAX_ENTRIES:
            _PATH_CACHE.popitem(last=False)
        _PATH_CACHE[key] = path
        _PATH_CACHE.move_to_end(key)
    return path


#: Shared rank-inference helper (one error type and message package-wide);
#: re-exported here under the historical private name for call sites that
#: imported it from this module.
_infer_rank = infer_rank


def _einsum_spec(ndim: int, mode: int) -> str:
    """Einsum specification string for an ``ndim``-way MTTKRP in mode ``mode``.

    For example ``ndim=3, mode=1`` yields ``"abc,az,cz->bz"``.
    """
    letters = string.ascii_lowercase[:ndim]
    parts = [letters]
    for k in range(ndim):
        if k == mode:
            continue
        parts.append(letters[k] + _RANK_LETTER)
    return ",".join(parts) + "->" + letters[mode] + _RANK_LETTER


def mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
) -> np.ndarray:
    """Vectorised dense MTTKRP.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (``DenseTensor`` or array-like), ``2 <= N <= 25``.
    factors:
        One factor matrix per mode (``I_k x R``); the entry for ``mode`` is
        ignored and may be ``None``.
    mode:
        The output mode ``n``.  The contraction path is planned once per
        (shapes, dtypes) and reused on every later call.

    Returns
    -------
    numpy.ndarray
        ``B`` of shape ``(I_mode, R)`` with
        ``B[i, r] = sum X[i_1..i_N] prod_{k != mode} A_k[i_k, r]`` where the
        sum runs over all indices with ``i_mode = i``.
    """
    data = as_ndarray(tensor)
    if data.ndim > MAX_MODES:
        raise ValueError(f"mttkrp supports at most {MAX_MODES} modes, got {data.ndim}")
    mode = check_mode(mode, data.ndim)
    rank = _infer_rank(factors, mode)
    check_factor_matrices(factors, data.shape, rank, skip_mode=mode)

    operands = [data]
    for k in range(data.ndim):
        if k == mode:
            continue
        operands.append(np.asarray(factors[k]))
    spec = _einsum_spec(data.ndim, mode)
    key = _path_cache_key((tuple(data.shape), mode, rank), operands)
    path = _contraction_path(key, spec, operands)
    return np.ascontiguousarray(np.einsum(spec, *operands, optimize=path))


def local_mttkrp(
    local_tensor: np.ndarray,
    local_factors: Sequence[Optional[np.ndarray]],
    mode: int,
) -> np.ndarray:
    """Local MTTKRP used inside the parallel algorithms.

    ``local_tensor`` is a processor's sub-tensor and ``local_factors`` are the
    gathered sub-matrices whose row counts match the sub-tensor dimensions.
    This is simply :func:`mttkrp` applied to the local data; it is exposed
    under its own name so the parallel algorithms read like the paper's
    pseudocode (``Local-MTTKRP``).
    """
    return mttkrp(local_tensor, local_factors, mode)


def mttkrp_flops(shape: Sequence[int], rank: int, *, atomic: bool = True) -> int:
    """Classical arithmetic cost of one MTTKRP.

    With atomic N-ary multiplies (Definition 2.1) each of the ``I * R`` loop
    iterations costs ``N - 1`` multiplications and one addition, i.e.
    ``N * I * R`` operations in total (the count used in Eq. (15)).  With the
    factored local kernel of Eq. (17) the cost drops to about ``2 * I * R``.
    """
    total = 1
    for dim in shape:
        total *= int(dim)
    n_modes = len(shape)
    if atomic:
        return n_modes * total * int(rank)
    return 2 * total * int(rank)
