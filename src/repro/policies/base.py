"""Tiering-policy protocol and shared bookkeeping.

A policy sees the machine through three narrow interfaces, matching
what a real userspace tiering runtime gets:

- its **sampler(s)** (PEBS, perf-stat or hint faults) for access
  information -- never the raw access stream as ground truth;
- the **page table / address space** query interfaces
  (``/proc``-style, batched);
- the **migration** calls (``promote`` / ``demote``).

The engine calls :meth:`TieringPolicy.on_batch` once per access batch
with the current simulated time and the batch's ``(n_local, n_cxl)``
split by placement *at service time* (what the memory controller's
per-tier counters observed).  The policy returns its CPU overhead for
the batch in nanoseconds; migrations it performed are visible to the
engine through the machine's traffic meter.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.memsim.machine import Machine, MoveOutcome
from repro.obs import NULL_TRACER, Tracer
from repro.sampling.events import AccessBatch

if TYPE_CHECKING:
    from repro.faults import FaultInjector

_NO_PAGES = np.zeros(0, dtype=np.int64)


@dataclass
class PolicyStats:
    """Uniform per-policy counters for reports and overhead studies."""

    promotions: int = 0
    demotions: int = 0
    promotion_calls: int = 0
    demotion_calls: int = 0
    overhead_ns: float = 0.0
    samples_processed: int = 0
    #: Modeled metadata memory (bytes) the policy holds in local DRAM.
    metadata_bytes: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        out = {
            "promotions": self.promotions,
            "demotions": self.demotions,
            "promotion_calls": self.promotion_calls,
            "demotion_calls": self.demotion_calls,
            "overhead_ns": self.overhead_ns,
            "samples_processed": self.samples_processed,
            "metadata_bytes": self.metadata_bytes,
        }
        out.update(self.extra)
        return out

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "promotions": self.promotions,
            "demotions": self.demotions,
            "promotion_calls": self.promotion_calls,
            "demotion_calls": self.demotion_calls,
            "overhead_ns": self.overhead_ns,
            "samples_processed": self.samples_processed,
            "metadata_bytes": self.metadata_bytes,
            "extra": dict(self.extra),
        }

    def load_state(self, state: dict) -> None:
        self.promotions = int(state["promotions"])
        self.demotions = int(state["demotions"])
        self.promotion_calls = int(state["promotion_calls"])
        self.demotion_calls = int(state["demotion_calls"])
        self.overhead_ns = float(state["overhead_ns"])
        self.samples_processed = int(state["samples_processed"])
        self.metadata_bytes = int(state["metadata_bytes"])
        self.extra = dict(state["extra"])


class MigrationRetryQueue:
    """Bounded retry queue with capped exponential backoff (in batches).

    Models how a robust userspace daemon treats per-page migration
    failures (``-EBUSY``, target ENOMEM): the page is *re-queued*, not
    retried immediately -- the condition that failed it usually needs
    wall-clock time to clear -- with the backoff doubling per failed
    attempt up to a cap.  Pages that keep failing are **blacklisted**
    (the pinned-page model: a long-term GUP pin never unpins because we
    asked again), after which they are never re-enqueued and callers
    should exclude them from candidate selection via
    :meth:`filter_allowed`.

    Invariants (property-tested):

    - an entry's backoff never exceeds ``max_backoff_batches``;
    - a blacklisted page is never re-enqueued;
    - the queue never holds more than ``capacity`` entries (failures
      beyond capacity are dropped -- they will re-qualify through the
      normal candidate path);
    - absent new failures, :meth:`due` drains the queue completely
      within ``max_backoff_batches`` batches.
    """

    def __init__(
        self,
        capacity: int = 4096,
        base_backoff_batches: int = 1,
        max_backoff_batches: int = 32,
        max_attempts: int = 5,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if base_backoff_batches < 1:
            raise ValueError(
                f"base_backoff_batches must be >= 1, got {base_backoff_batches}"
            )
        if max_backoff_batches < base_backoff_batches:
            raise ValueError(
                "need max_backoff_batches >= base_backoff_batches, got "
                f"{max_backoff_batches} < {base_backoff_batches}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.capacity = int(capacity)
        self.base_backoff_batches = int(base_backoff_batches)
        self.max_backoff_batches = int(max_backoff_batches)
        self.max_attempts = int(max_attempts)
        #: page -> (failed attempts so far, batch index when due).
        self._entries: dict[int, tuple[int, int]] = {}
        self._blacklist: set[int] = set()
        self._blacklist_arr: np.ndarray | None = None  # rebuilt lazily

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_blacklisted(self) -> int:
        return len(self._blacklist)

    def backoff_for_attempt(self, attempts: int) -> int:
        """Backoff in batches after the ``attempts``-th failure (capped)."""
        shift = min(attempts - 1, 62)  # avoid silly overflow
        return min(self.base_backoff_batches << shift, self.max_backoff_batches)

    #: Sentinel due-batch for entries handed out by :meth:`due` and not
    #: yet resolved (so a double drain can never return them twice).
    _IN_FLIGHT = -1

    def record_failures(
        self, pages: np.ndarray, now_batch: int
    ) -> np.ndarray:
        """Register failed migrations; returns newly blacklisted pages.

        A page already in the queue (including one handed out by
        :meth:`due` whose retry just failed) keeps its attempt count;
        a page at ``max_attempts`` failures moves to the blacklist.
        """
        newly_blacklisted: list[int] = []
        for page in np.asarray(pages, dtype=np.int64).tolist():
            if page in self._blacklist:
                continue
            prior = self._entries.get(page)
            attempts = (prior[0] if prior is not None else 0) + 1
            if attempts >= self.max_attempts:
                self._entries.pop(page, None)
                self._blacklist.add(page)
                self._blacklist_arr = None
                newly_blacklisted.append(page)
                continue
            if prior is None and len(self._entries) >= self.capacity:
                continue  # bounded: overflow failures are dropped
            due = now_batch + self.backoff_for_attempt(attempts)
            self._entries[page] = (attempts, due)
        return np.asarray(newly_blacklisted, dtype=np.int64)

    def due(self, now_batch: int) -> np.ndarray:
        """Pages whose backoff has expired, marked in-flight.

        The caller must resolve each returned page by either
        :meth:`mark_succeeded` (retry worked, or the page no longer
        needs moving) or :meth:`record_failures` (retry failed again) --
        until then the page is not returned by further :meth:`due`
        calls but still counts against the queue bound.
        """
        if not self._entries:
            return _NO_PAGES
        ready = [
            p
            for p, (_, due) in self._entries.items()
            if due != self._IN_FLIGHT and due <= now_batch
        ]
        if not ready:
            return _NO_PAGES
        for page in ready:
            attempts, _ = self._entries[page]
            self._entries[page] = (attempts, self._IN_FLIGHT)
        return np.asarray(sorted(ready), dtype=np.int64)

    def mark_succeeded(self, pages: np.ndarray) -> None:
        """Drop queue entries for pages that no longer need retrying."""
        for page in np.asarray(pages, dtype=np.int64).tolist():
            self._entries.pop(page, None)

    def filter_allowed(self, pages: np.ndarray) -> np.ndarray:
        """Drop blacklisted pages from a candidate array."""
        if not self._blacklist or pages.size == 0:
            return pages
        if self._blacklist_arr is None:
            self._blacklist_arr = np.fromiter(
                sorted(self._blacklist), dtype=np.int64, count=len(self._blacklist)
            )
        return pages[~np.isin(pages, self._blacklist_arr)]

    def is_blacklisted(self, page: int) -> bool:
        return int(page) in self._blacklist

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Queue contents (entries, including in-flight sentinels, plus
        the blacklist) as JSON-safe lists."""
        return {
            "entries": [
                [page, attempts, due]
                for page, (attempts, due) in sorted(self._entries.items())
            ],
            "blacklist": sorted(self._blacklist),
        }

    def load_state(self, state: dict) -> None:
        self._entries = {
            int(page): (int(attempts), int(due))
            for page, attempts, due in state["entries"]
        }
        self._blacklist = {int(p) for p in state["blacklist"]}
        self._blacklist_arr = None  # lazy cache; rebuilt on demand


class TieringPolicy(abc.ABC):
    """Base class for all tiering systems."""

    name: str = "policy"

    def __init__(self):
        self.stats = PolicyStats()
        self.tracer: Tracer = NULL_TRACER
        self.fault_injector: FaultInjector | None = None
        self._machine: Machine | None = None

    # -- lifecycle --------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        """Bind to a machine.  Subclasses must call super().attach()."""
        self._machine = machine

    def set_tracer(self, tracer: Tracer) -> None:
        """Install an observability tracer (before or after attach).

        Subclasses owning instrumented components built at attach time
        should override this to propagate the tracer to them.
        """
        self.tracer = tracer

    def set_fault_injector(self, injector: FaultInjector | None) -> None:
        """Install a fault injector (call before attach).

        The base class just records it; policies owning PEBS samplers
        built at attach time propagate it there (sample-loss and
        corruption faults), and the machine applies migration faults
        independently.
        """
        self.fault_injector = injector

    @property
    def machine(self) -> Machine:
        if self._machine is None:
            raise RuntimeError(f"policy {self.name!r} used before attach()")
        return self._machine

    def reconfigure(self, overrides: dict) -> list[str]:
        """Hot-swap config fields on a live policy; returns applied keys.

        The serving daemon applies this at a tick boundary
        (``TieringDaemon.swap_config(policy_overrides=...)``), so a
        long-lived loop can retune thresholds, batch sizes or scan
        cadences without a restart.  The base implementation sets
        matching attributes on ``self.config`` (policies without a
        ``config`` accept nothing); unknown keys raise -- a typo must
        not silently no-op on a production daemon.  Structures *sized*
        from config at attach time (e.g. a CBF sized for a target FPR)
        are not rebuilt: swaps take effect on forward-looking decisions
        only.
        """
        config = getattr(self, "config", None)
        unknown = [
            key for key in overrides
            if config is None or not hasattr(config, key)
        ]
        if unknown:
            raise ValueError(
                f"policy {self.name!r} has no config field(s) "
                f"{sorted(unknown)}"
            )
        applied = []
        for key, value in overrides.items():
            setattr(config, key, value)
            applied.append(key)
        return sorted(applied)

    # -- main hook ----------------------------------------------------------

    @abc.abstractmethod
    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        """Observe one serviced access batch; return overhead in ns.

        ``counts`` is ``(n_local, n_cxl)`` for this batch as tallied by
        the engine against placement at service time.  Policies learn
        *which* pages were touched only through their samplers (which
        read ``batch`` by position, never expanding a run-compressed
        batch).  Any promotions/demotions the policy performs here are
        recorded by the machine's traffic meter.
        """

    # -- shared helpers --------------------------------------------------------

    def _record_migrations(self, promoted: int, demoted: int) -> None:
        if promoted:
            self.stats.promotions += promoted
            self.stats.promotion_calls += 1
        if demoted:
            self.stats.demotions += demoted
            self.stats.demotion_calls += 1

    def _count_extra(self, name: str, amount: int) -> None:
        if amount:
            self.stats.extra[name] = self.stats.extra.get(name, 0) + amount

    def _filter_corrupt_sample_ids(self, page_ids: np.ndarray) -> np.ndarray:
        """Drop sample ids outside the mapped page range.

        Real PEBS records can carry bogus linear addresses (a race with
        unmap, or a decoding error); a policy indexing per-page metadata
        with such an id would crash or pollute a neighbour's counters.
        Dropped ids are tallied in ``stats.extra["corrupt_samples_filtered"]``.
        """
        total = self.machine.config.total_capacity_pages
        valid = (page_ids >= 0) & (page_ids < total)
        if valid.all():
            return page_ids
        dropped = int(page_ids.size - np.count_nonzero(valid))
        self._count_extra("corrupt_samples_filtered", dropped)
        if self.tracer.enabled:
            self.tracer.count("corrupt_samples_filtered", dropped)
        return page_ids[valid]

    def _promote_pages(self, pages: np.ndarray) -> MoveOutcome:
        """Promote with full stats accounting, partial-success aware.

        ``stats.promotions`` counts only pages that *actually moved*
        (so it always reconciles with the machine's traffic meter, even
        under injected faults), and fault-failed pages are tallied in
        ``stats.extra["promotions_failed"]``.
        """
        outcome = self.machine.promote_ex(pages)
        self._record_migrations(outcome.num_moved, 0)
        self._count_extra("promotions_failed", outcome.num_failed)
        return outcome

    def _demote_pages(self, pages: np.ndarray) -> MoveOutcome:
        """Demote with full stats accounting (see :meth:`_promote_pages`)."""
        outcome = self.machine.demote_ex(pages)
        self._record_migrations(0, outcome.num_moved)
        self._count_extra("demotions_failed", outcome.num_failed)
        return outcome

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot all mutable policy state for checkpointing.

        The contract (paired with :meth:`load_state`): after
        ``p2.load_state(p1.state_dict())`` on a freshly attached policy
        of the same class and configuration, ``p2`` behaves
        bit-identically to ``p1`` for every subsequent ``on_batch``
        call.  Subclasses override both methods, call ``super()``, and
        add their own mutable fields.  Must be called after
        :meth:`attach` (components built at attach time are part of the
        state).
        """
        return {"stats": self.stats.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        Must be called on an attached policy of the same class and
        configuration as the one that produced ``state``.
        """
        self.stats.load_state(state["stats"])

    def describe(self) -> dict[str, object]:
        """Metadata for benchmark reports."""
        return {"name": self.name}
