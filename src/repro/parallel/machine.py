"""Simulated distributed-memory machine with per-processor communication ledgers.

This is the substitution for a real MPI machine: ``P`` ranks,
each with its own local numpy buffers, connected by a network on which the
collectives of :mod:`repro.parallel.collectives` move data.  The machine does
not model time — it records, per rank, the number of words sent, the number
of words received, and the number of arithmetic operations, which are exactly
the quantities the paper's bounds and upper-bound formulas talk about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import MachineError
from repro.observe.instrument import record_label
from repro.utils.validation import check_positive_int


@dataclass
class CommunicationRecord:
    """One logged communication event (used for tracing and tests).

    Attributes
    ----------
    kind:
        Collective name (``"all_gather"``, ``"reduce_scatter"``, ...).
    group:
        Ranks that participated.
    words_per_rank:
        Words charged to each participating rank (sent and received).
    label:
        Free-form label supplied by the caller (e.g. ``"A^(1) gather"``).
    """

    kind: str
    group: Sequence[int]
    words_per_rank: int
    label: str = ""


class SimulatedMachine:
    """``P`` simulated processors with communication and arithmetic counters.

    Parameters
    ----------
    n_procs:
        Number of processors ``P``.
    local_memory_words:
        Optional local-memory capacity ``M``; when given,
        :meth:`charge_storage` verifies per-rank storage high-water marks
        against it and raises :class:`~repro.exceptions.MachineError` on
        overflow.
    """

    #: Attempts a collective may make before the retry loop gives up
    #: (:class:`~repro.exceptions.RetryExhaustedError`); the first attempt
    #: counts, so up to ``max_attempts - 1`` failures are absorbed.
    max_attempts: int = 5

    def __init__(self, n_procs: int, *, local_memory_words: Optional[int] = None) -> None:
        self.n_procs = check_positive_int(n_procs, "n_procs")
        if local_memory_words is not None:
            local_memory_words = check_positive_int(local_memory_words, "local_memory_words")
        self.local_memory_words = local_memory_words
        self.words_sent = np.zeros(self.n_procs, dtype=np.int64)
        self.words_received = np.zeros(self.n_procs, dtype=np.int64)
        self.messages_sent = np.zeros(self.n_procs, dtype=np.int64)
        self.flops = np.zeros(self.n_procs, dtype=np.int64)
        self.storage_high_water = np.zeros(self.n_procs, dtype=np.int64)
        # Retry ledgers: the slice of the main ledgers attributable to
        # re-driven collectives.  Every retry charge also lands on the main
        # ledgers, so ``words_sent == fault-free words + retry_words_sent``
        # holds by construction (the invariant
        # :func:`repro.observe.drift.retry_ledger_drift` asserts exactly).
        self.retry_words_sent = np.zeros(self.n_procs, dtype=np.int64)
        self.retry_words_received = np.zeros(self.n_procs, dtype=np.int64)
        self.retry_messages_sent = np.zeros(self.n_procs, dtype=np.int64)
        self.backoff_units = np.zeros(self.n_procs, dtype=np.int64)
        self.delay_units = np.zeros(self.n_procs, dtype=np.int64)
        self.records: List[CommunicationRecord] = []

    # -- validation ---------------------------------------------------------
    def check_rank(self, rank: int) -> int:
        """Validate a rank id."""
        if not 0 <= rank < self.n_procs:
            raise MachineError(f"rank {rank} out of range [0, {self.n_procs})")
        return int(rank)

    def check_group(self, group: Sequence[int]) -> List[int]:
        """Validate a communicator group (distinct, in-range ranks)."""
        ranks = [self.check_rank(r) for r in group]
        if len(set(ranks)) != len(ranks):
            raise MachineError(f"group contains duplicate ranks: {group}")
        if not ranks:
            raise MachineError("group must contain at least one rank")
        return ranks

    # -- charging -------------------------------------------------------------
    def charge_send(self, rank: int, words: int) -> None:
        """Charge ``words`` sent by ``rank``."""
        rank = self.check_rank(rank)
        if words < 0:
            raise MachineError("cannot charge a negative number of words")
        self.words_sent[rank] += int(words)

    def charge_receive(self, rank: int, words: int) -> None:
        """Charge ``words`` received by ``rank``."""
        rank = self.check_rank(rank)
        if words < 0:
            raise MachineError("cannot charge a negative number of words")
        self.words_received[rank] += int(words)

    def charge_messages(self, rank: int, count: int) -> None:
        """Charge ``count`` messages sent by ``rank`` (latency-cost accounting).

        The paper focuses on bandwidth cost and ignores latency; the message
        counter is provided so the latency behaviour of the bucket collectives
        (``q - 1`` messages each) can still be inspected.
        """
        rank = self.check_rank(rank)
        if count < 0:
            raise MachineError("cannot charge a negative number of messages")
        self.messages_sent[rank] += int(count)

    def charge_flops(self, rank: int, count: int) -> None:
        """Charge ``count`` arithmetic operations performed by ``rank``."""
        rank = self.check_rank(rank)
        if count < 0:
            raise MachineError("cannot charge a negative number of flops")
        self.flops[rank] += int(count)

    def charge_storage(self, rank: int, words: int) -> None:
        """Record that ``rank`` simultaneously held ``words`` words of data.

        Updates the per-rank storage high-water mark and, when the machine was
        constructed with a local-memory capacity, enforces it.
        """
        rank = self.check_rank(rank)
        if words < 0:
            raise MachineError("storage cannot be negative")
        self.storage_high_water[rank] = max(self.storage_high_water[rank], int(words))
        if self.local_memory_words is not None and words > self.local_memory_words:
            raise MachineError(
                f"rank {rank} exceeded local memory: {words} > {self.local_memory_words}"
            )

    def charge_retry(self, rank: int, words: int, messages: int, *, backoff: int = 0) -> None:
        """Charge one rank's share of a *wasted* (re-driven) collective attempt.

        The traffic of a dropped or corrupted attempt really crossed the
        network, so it lands on the main ledgers through the normal charge
        paths — and is additionally tallied on the retry ledgers so the
        drift detector can separate it from fault-free traffic exactly.
        ``backoff`` records the exponential-backoff wait (in abstract units)
        the rank spent before the re-drive.
        """
        rank = self.check_rank(rank)
        self.charge_send(rank, words)
        self.charge_receive(rank, words)
        self.charge_messages(rank, messages)
        self.retry_words_sent[rank] += int(words)
        self.retry_words_received[rank] += int(words)
        self.retry_messages_sent[rank] += int(messages)
        if backoff < 0:
            raise MachineError("backoff units cannot be negative")
        self.backoff_units[rank] += int(backoff)

    def charge_delay(self, rank: int, units: int) -> None:
        """Record a latency spike of ``units`` abstract time units at ``rank``.

        Delays move no extra words (the payload arrives late but intact), so
        they live on their own ledger and never perturb the word counts the
        paper's bounds talk about.
        """
        rank = self.check_rank(rank)
        if units < 0:
            raise MachineError("delay units cannot be negative")
        self.delay_units[rank] += int(units)

    # -- fault consultation ---------------------------------------------------
    def consult_fault(self, kind: str, label: str, group: Sequence[int], attempt: int):
        """Hook the collectives call before charging an attempt.

        The base machine is fault-free: always ``None`` (proceed).  The
        :class:`~repro.resilience.machine.FaultyMachine` subclass matches the
        attempt against its seeded :class:`~repro.resilience.faults.FaultSchedule`
        and returns the matched spec, which the collective layer turns into a
        drop/corrupt re-drive, a delay charge, or a rank failure.
        """
        return None

    def log(self, record: CommunicationRecord) -> None:
        """Append a communication record to the trace."""
        self.records.append(record)
        record_label(record.label, len(record.group), record.words_per_rank)

    # -- summaries --------------------------------------------------------------
    @property
    def max_words_sent(self) -> int:
        """Critical-path bandwidth cost: maximum over ranks of words sent."""
        return int(self.words_sent.max())

    @property
    def max_words_received(self) -> int:
        """Maximum over ranks of words received."""
        return int(self.words_received.max())

    @property
    def max_words_communicated(self) -> int:
        """Maximum over ranks of ``max(sent, received)``.

        This is the quantity compared against the paper's per-processor cost
        expressions (sends and receives of a bucket collective are equal, so
        for the provided algorithms it coincides with :attr:`max_words_sent`).
        """
        return int(np.maximum(self.words_sent, self.words_received).max())

    @property
    def total_words_sent(self) -> int:
        """Total network traffic (sum over ranks of words sent)."""
        return int(self.words_sent.sum())

    @property
    def max_messages_sent(self) -> int:
        """Latency cost along the critical path: maximum over ranks of messages sent."""
        return int(self.messages_sent.max())

    @property
    def max_flops(self) -> int:
        """Maximum over ranks of arithmetic operations (load balance check)."""
        return int(self.flops.max())

    @property
    def max_storage(self) -> int:
        """Maximum over ranks of the storage high-water mark."""
        return int(self.storage_high_water.max())

    @property
    def max_retry_words_sent(self) -> int:
        """Maximum over ranks of words re-sent by re-driven collectives."""
        return int(self.retry_words_sent.max())

    @property
    def total_retry_words_sent(self) -> int:
        """Total network traffic attributable to re-driven collectives."""
        return int(self.retry_words_sent.sum())

    @property
    def max_delay_units(self) -> int:
        """Maximum over ranks of injected latency-spike units."""
        return int(self.delay_units.max())

    def summary(self) -> Dict[str, int]:
        """Dictionary of the headline per-machine statistics."""
        return {
            "n_procs": self.n_procs,
            "max_words_sent": self.max_words_sent,
            "max_words_received": self.max_words_received,
            "max_words_communicated": self.max_words_communicated,
            "total_words_sent": self.total_words_sent,
            "max_messages_sent": self.max_messages_sent,
            "max_flops": self.max_flops,
            "max_storage": self.max_storage,
            "max_retry_words_sent": self.max_retry_words_sent,
            "total_retry_words_sent": self.total_retry_words_sent,
            "max_delay_units": self.max_delay_units,
        }

    def reset(self) -> None:
        """Zero every counter and clear the trace."""
        self.words_sent[:] = 0
        self.words_received[:] = 0
        self.messages_sent[:] = 0
        self.flops[:] = 0
        self.storage_high_water[:] = 0
        self.retry_words_sent[:] = 0
        self.retry_words_received[:] = 0
        self.retry_messages_sent[:] = 0
        self.backoff_units[:] = 0
        self.delay_units[:] = 0
        self.records.clear()
