"""Event types flowing between workload, sampler and policy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import accel

#: Shared empty run arrays of batches built from explicit page ids.
_NO_RUNS = np.empty(0, dtype=np.int64)
_NO_RUNS.flags.writeable = False


class AccessBatch:
    """One batch of application memory activity.

    The workload generators emit these; the engine services them
    against the machine and shows them to the policy's sampler.

    Two construction forms exist, stored the same way:

    - **run-compressed**: ``page_ids=None`` plus ``head_page_ids``
      (single-page accesses, e.g. index lookups) and aligned
      ``run_starts``/``run_counts`` arrays (contiguous page runs).
      The program order is defined as the head first, then the runs
      expanded in order.  Hot-path consumers (the engine's tier
      counting, position-based sampling via :meth:`pages_at`) read
      the compressed fields directly; :attr:`page_ids` materializes
      the expanded stream lazily for everyone else.
    - **explicit**: ``page_ids`` carries the page id of every
      L3-missing access, in program order.  Stored as a compressed
      batch with head pages only (``head_page_ids`` is ``page_ids``,
      the run arrays are empty), so :attr:`page_ids` and
      :meth:`pages_at` stay zero-copy.

    Page ids are stored as int64, except that int32 input is kept
    as-is (generators with sub-2**31 address spaces emit int32
    streams; every consumer is width-agnostic).

    Attributes
    ----------
    page_ids:
        Expanded per-access page ids (materialized on first read for
        run-compressed batches).
    num_ops:
        Application-level operations (cache GETs, graph iterations,
        boosting-round fractions) the batch represents; used for
        throughput and per-op latency accounting.
    cpu_ns:
        Pure compute time of the batch (instructions that overlap no
        L3 miss).
    label:
        Optional phase tag (e.g. "warmup", "phase2") for analysis.
    bytes_per_access:
        Bytes actually transferred per emitted access, for bandwidth
        accounting.  64 (one line) for pointer-chasing patterns; page
        traces that stand for bulk reads (e.g. a CacheLib item page)
        use larger values.
    """

    __slots__ = (
        "num_ops",
        "cpu_ns",
        "label",
        "bytes_per_access",
        "head_page_ids",
        "run_starts",
        "run_counts",
        "_page_ids",
        "_num_accesses",
        "_run_offsets",
    )

    def __init__(
        self,
        page_ids: np.ndarray | None,
        num_ops: float,
        cpu_ns: float,
        label: str = "",
        bytes_per_access: float = 64.0,
        *,
        head_page_ids: np.ndarray | None = None,
        run_starts: np.ndarray | None = None,
        run_counts: np.ndarray | None = None,
    ):
        self.num_ops = num_ops
        self.cpu_ns = cpu_ns
        self.label = label
        self.bytes_per_access = bytes_per_access
        self._run_offsets: np.ndarray | None = None
        if page_ids is None:
            compressed = (head_page_ids, run_starts, run_counts)
            if any(arr is None for arr in compressed):
                raise ValueError(
                    "either page_ids or the full compressed form "
                    "(head_page_ids, run_starts, run_counts) is required"
                )
            head = np.asarray(head_page_ids)
            self.run_starts = np.asarray(run_starts, dtype=np.int64)
            self.run_counts = np.asarray(run_counts, dtype=np.int64)
            if self.run_starts.shape != self.run_counts.shape:
                raise ValueError(
                    f"run_starts and run_counts must align: "
                    f"{self.run_starts.shape} vs {self.run_counts.shape}"
                )
        else:
            head = np.asarray(page_ids)
            self.run_starts = _NO_RUNS
            self.run_counts = _NO_RUNS
        if head.dtype != np.int32:
            head = np.asarray(head, dtype=np.int64)
        self.head_page_ids = head
        # A batch without runs is its own expansion.
        self._page_ids: np.ndarray | None = (
            None if self.run_starts.size else head
        )
        self._num_accesses = int(head.size) + int(self.run_counts.sum())
        if self.num_ops < 0:
            raise ValueError(f"num_ops must be >= 0, got {self.num_ops}")
        if self.cpu_ns < 0:
            raise ValueError(f"cpu_ns must be >= 0, got {self.cpu_ns}")
        if self.bytes_per_access <= 0:
            raise ValueError(
                f"bytes_per_access must be > 0, got {self.bytes_per_access}"
            )

    @property
    def page_ids(self) -> np.ndarray:
        """The expanded per-access stream (lazy for compressed batches)."""
        if self._page_ids is None:
            head = self.head_page_ids
            out = np.empty(self._num_accesses, dtype=np.int64)
            out[: head.size] = head
            accel.expand_runs(self.run_starts, self.run_counts, out[head.size :])
            self._page_ids = out
        return self._page_ids

    @property
    def num_accesses(self) -> int:
        return self._num_accesses

    def _offsets(self) -> np.ndarray:
        if self._run_offsets is None:
            self._run_offsets = np.cumsum(self.run_counts)
        return self._run_offsets

    def pages_at(
        self, positions: np.ndarray, *, assume_sorted: bool = False
    ) -> np.ndarray:
        """Page ids at the given access positions (program order).

        O(len(positions)) on compressed batches: head positions are a
        direct gather, tail positions map onto their run by binary
        search over the run-length prefix (the ``run_pages_at``
        kernel).  A plain gather when the expansion exists (a batch
        without runs, or one whose ``page_ids`` was read).  Used by
        position-based samplers so sampling a handful of accesses
        never forces stream materialization.  ``assume_sorted``
        promises the positions are ascending (skip samplers emit them
        that way), unlocking a slice-based gather; do not pass it for
        unordered positions.
        """
        if self._page_ids is not None:
            return self._page_ids[positions]
        return accel.run_pages_at(
            self.head_page_ids,
            self.run_starts,
            self.run_counts,
            self._offsets(),
            np.asarray(positions, dtype=np.int64),
            assume_sorted,
        )

    def strided_pages(self, stride: int) -> np.ndarray:
        """Pages at positions ``0, stride, 2*stride, ...``.

        Equals ``page_ids[::stride]`` (widened to int64) but costs
        O(samples + runs) -- the recency policies' touched-set walks
        use it so their accessed-bit subsampling never expands the
        stream.
        """
        return accel.strided_run_pages(
            self.head_page_ids,
            self.run_starts,
            self.run_counts,
            self._offsets(),
            int(stride),
            self._num_accesses,
        )

    def release_expanded(self) -> None:
        """Drop a cached run expansion of ``page_ids``.

        The engine calls this after each serviced batch: workload
        generators keep a reference to the batch they yielded, so a
        cached expansion would otherwise stay reachable for the rest
        of the run.  Recomputed (bit-identically) on next touch.  A
        batch without runs keeps its page ids: they are the head.
        """
        if self.run_starts.size:
            self._page_ids = None


@dataclass
class SampleBatch:
    """Access samples delivered to a policy by its sampler."""

    page_ids: np.ndarray
    #: Samples dropped because the ring buffer overflowed.
    lost: int = 0

    def __post_init__(self) -> None:
        self.page_ids = np.asarray(self.page_ids, dtype=np.int64)

    @property
    def num_samples(self) -> int:
        return int(self.page_ids.size)

    @staticmethod
    def empty() -> "SampleBatch":
        return SampleBatch(page_ids=np.zeros(0, dtype=np.int64))
