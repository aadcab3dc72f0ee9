"""Block-size selection for the sequential blocked algorithm (Algorithm 2).

Algorithm 2 is correct for any positive integer block size ``b`` satisfying
``b^N + N b <= M`` (Eq. (11)/(22)): the working set of one block iteration is
the ``b^N`` sub-tensor block plus ``N`` length-``b`` sub-columns (``N - 1``
inputs and one output).  The communication-optimal choice is
``b ≈ (α M)^(1/N)`` for a constant ``α`` slightly below 1 (Theorem 6.1 uses
``b = floor((α M)^{1/N})``).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int


def working_set_words(block: int, n_modes: int) -> int:
    """Fast-memory words needed by one block iteration: ``b^N + N*b``."""
    block = check_positive_int(block, "block")
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    return block**n_modes + n_modes * block


def minimum_memory_for_block(block: int, n_modes: int) -> int:
    """Smallest fast memory ``M`` for which block size ``block`` is valid (Eq. (11))."""
    return working_set_words(block, n_modes)


def block_size_is_valid(block: int, n_modes: int, memory_words: int) -> bool:
    """Whether ``block`` satisfies the correctness condition ``b^N + N b <= M``."""
    memory_words = check_positive_int(memory_words, "memory_words")
    return working_set_words(block, n_modes) <= memory_words


def max_block_size(n_modes: int, memory_words: int) -> int:
    """Largest block size valid for fast memory ``M`` (largest ``b`` with ``b^N + Nb <= M``).

    Raises :class:`~repro.exceptions.ParameterError` when even ``b = 1`` does
    not fit (i.e. ``M < 1 + N``).
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    memory_words = check_positive_int(memory_words, "memory_words")
    if not block_size_is_valid(1, n_modes, memory_words):
        raise ParameterError(
            f"fast memory M={memory_words} is too small for any block size "
            f"(need at least {working_set_words(1, n_modes)} words)"
        )
    # b <= M^(1/N) always, so an upper starting point is cheap to compute.
    upper = int(math.floor(memory_words ** (1.0 / n_modes))) + 1
    best = 1
    for candidate in range(1, upper + 1):
        if block_size_is_valid(candidate, n_modes, memory_words):
            best = candidate
        else:
            break
    return best


#: Default fast-memory budget (words) for the sparse chunk chooser: the same
#: two-level-model quantity ``M`` as the dense block chooser, sized at 2^20
#: words (8 MiB of float64) — last-level-cache scale, where the chunked COO
#: kernel's working set must live for the blocking to pay off.  The resulting
#: defaults land at the proven Tensor Toolbox v3.3 magnitudes (nzchunk ~1e4,
#: rchunk ~10-32).
DEFAULT_SPARSE_CHUNK_MEMORY_WORDS = 1 << 20

#: Largest rank-column chunk the chooser hands out: past ~32 columns the
#: per-column accumulation calls are already amortised and wider chunks only
#: grow the working set.
MAX_RCHUNK = 32


def sparse_chunk_working_set_words(nzchunk: int, rchunk: int, n_modes: int) -> int:
    """Fast-memory words one chunk iteration of the sparse kernel touches.

    One ``(nzchunk, rchunk)`` contribution block, up to ``N - 1`` gathered
    factor-row blocks of the same shape, and the chunk's ``N`` index columns:
    ``N * nzchunk * rchunk + N * nzchunk`` — the sparse analogue of
    :func:`working_set_words`'s ``b^N + N b``.
    """
    nzchunk = check_positive_int(nzchunk, "nzchunk")
    rchunk = check_positive_int(rchunk, "rchunk")
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    return n_modes * nzchunk * rchunk + n_modes * nzchunk


def choose_sparse_chunks(
    n_modes: int,
    rank: int,
    memory_words: int = DEFAULT_SPARSE_CHUNK_MEMORY_WORDS,
    *,
    alpha: float = 0.99,
) -> Tuple[int, int]:
    """Chunk sizes ``(nzchunk, rchunk)`` for the chunked COO sparse MTTKRP.

    The machine-model analogue of :func:`choose_block_size` for the sparse
    kernel of :func:`repro.tensor.sparse.sparse_mttkrp`: the rank chunk takes
    every column up to :data:`MAX_RCHUNK`, then the nonzero chunk takes the
    rest of the budget so one chunk iteration's working set
    (:func:`sparse_chunk_working_set_words`) fits in ``alpha * memory_words``.

    Parameters
    ----------
    n_modes:
        Number of tensor modes ``N``.
    rank:
        Total rank ``R`` (the chunk never exceeds it).
    memory_words:
        Fast-memory budget ``M`` in words (default: last-level-cache scale).
    alpha:
        Fraction of ``M`` the chunk may fill, as in Theorem 6.1's
        ``b = floor((alpha * M)^(1/N))``.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    rank = check_positive_int(rank, "rank")
    memory_words = check_positive_int(memory_words, "memory_words")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    rchunk = min(rank, MAX_RCHUNK)
    nzchunk = int((alpha * memory_words) // (n_modes * rchunk + n_modes))
    nzchunk = max(nzchunk, 1)
    return nzchunk, rchunk


def choose_block_size(
    n_modes: int, memory_words: int, *, alpha: float = 0.99, shape: Sequence[int] = ()
) -> int:
    """Block size ``b = floor((α M)^{1/N})`` from the proof of Theorem 6.1.

    The result is clamped to be at least 1, at most the largest valid block
    size for ``M``, and (when ``shape`` is provided) at most the largest
    tensor dimension — larger blocks would only waste fast memory.

    Parameters
    ----------
    n_modes:
        Number of tensor modes ``N``.
    memory_words:
        Fast memory capacity ``M``.
    alpha:
        The constant ``α < 1`` of Theorem 6.1; ``0.99`` keeps essentially the
        whole memory for the tensor block while leaving room for the vectors.
    shape:
        Optional tensor shape used to clamp the block size.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    memory_words = check_positive_int(memory_words, "memory_words")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    candidate = int(math.floor((alpha * memory_words) ** (1.0 / n_modes)))
    candidate = max(candidate, 1)
    largest_valid = max_block_size(n_modes, memory_words)
    candidate = min(candidate, largest_valid)
    if shape:
        candidate = min(candidate, max(int(dim) for dim in shape))
    return max(candidate, 1)
