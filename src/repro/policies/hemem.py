"""HeMem reimplemented for CXL (paper Sections II-C2, VI-B, VII-C).

HeMem is the state-of-the-art *frequency-based* tiering system the
paper compares against.  Like FreqTier it samples accesses with PEBS
and tracks per-page frequency -- but *exactly*, in a hash table with
168 bytes of metadata per page.  Consequences modeled here, matching
the paper's analysis of why HeMem loses despite good hit ratios:

- **Memory overhead**: the metadata (~4% of footprint) is pinned in
  local DRAM, shrinking the capacity left for hot application pages
  (:meth:`repro.memsim.machine.Machine.reserve_local_pages`).
- **Runtime overhead**: every sample updates the hash table (no
  coalescing), sampling always runs at the highest rate (no adaptive
  intensity), and periodic aging walks all metadata entries.
- **Classification**: exact frequencies with aging -- genuinely good,
  which is why HeMem's hit ratio beats the recency systems in Fig. 9.
"""

from __future__ import annotations

import numpy as np

from repro._units import PAGE_SIZE
from repro.cbf.exact import ExactFrequencyTracker, HEMEM_BYTES_PER_PAGE
from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.sampling.pebs import PEBSSampler, SamplingLevel


class HeMem(TieringPolicy):
    """Exact per-page frequency tiering with heavyweight metadata."""

    name = "HeMem"

    def __init__(
        self,
        hot_threshold: int = 8,
        sample_batch_size: int = 10_000,
        aging_interval_samples: int = 200_000,
        pebs_base_period: int = 64,
        sample_cost_ns: float = 120.0,
        table_update_ns: float = 1_500.0,
        seed: int = 0,
    ):
        super().__init__()
        if hot_threshold < 1:
            raise ValueError(f"hot_threshold must be >= 1, got {hot_threshold}")
        self.hot_threshold = int(hot_threshold)
        self.sample_batch_size = int(sample_batch_size)
        self.aging_interval_samples = int(aging_interval_samples)
        self.pebs_base_period = int(pebs_base_period)
        self.sample_cost_ns = float(sample_cost_ns)
        self.table_update_ns = float(table_update_ns)
        self.seed = int(seed)
        self.tracker = ExactFrequencyTracker(
            bytes_per_entry=HEMEM_BYTES_PER_PAGE
        )
        self.pebs: PEBSSampler | None = None
        self._samples_since_aging = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        self.pebs = PEBSSampler(
            base_period=self.pebs_base_period,
            sample_cost_ns=self.sample_cost_ns,
            seed=self.seed + 1,
        )
        self.pebs.set_level(SamplingLevel.HIGH)
        self.pebs.fault_injector = self.fault_injector
        # Total metadata is 168 B for every page under management --
        # ~4% of the footprint, the paper's Section VII-C comparison
        # point (11 GB for 267 GB, 110x FreqTier).  The *hot* slice of
        # it (entries for local-resident pages, touched on every
        # sample and ranking pass) competes for local DRAM; the cold
        # remainder spills to CXL.  We pin the hot slice.
        total_metadata = (
            machine.config.total_capacity_pages * HEMEM_BYTES_PER_PAGE
        )
        hot_metadata_pages = -(
            -machine.config.local_capacity_pages
            * HEMEM_BYTES_PER_PAGE
            // PAGE_SIZE
        )
        hot_metadata_pages = min(
            hot_metadata_pages, max(machine.local_free_pages - 1, 0)
        )
        machine.reserve_local_pages(hot_metadata_pages)
        self.stats.metadata_bytes = total_metadata

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        assert self.pebs is not None, "state_dict requires attach()"
        state = super().state_dict()
        state.update(
            {
                "tracker": self.tracker.state_dict(),
                "pebs": self.pebs.state_dict(),
                "samples_since_aging": self._samples_since_aging,
            }
        )
        return state

    def load_state(self, state: dict) -> None:
        assert self.pebs is not None, "load_state requires attach()"
        super().load_state(state)
        self.tracker.load_state(state["tracker"])
        self.pebs.load_state(state["pebs"])
        self._samples_since_aging = int(state["samples_since_aging"])

    # -- main hook ----------------------------------------------------------

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.pebs is not None
        overhead = 0.0
        before = self.pebs.total_samples
        self.pebs.observe(batch)
        overhead += self.pebs.overhead_ns(self.pebs.total_samples - before)
        if self.pebs.pending_samples >= self.sample_batch_size:
            overhead += self._process_samples()
        self.stats.overhead_ns += overhead
        return overhead

    def _process_samples(self) -> float:
        assert self.pebs is not None
        samples = self.pebs.drain()
        if samples.num_samples == 0:
            return 0.0
        page_ids = self._filter_corrupt_sample_ids(samples.page_ids)
        if page_ids.size == 0:
            return 0.0
        # No coalescing: one hash-table update per sample.
        freqs = self.tracker.increment(page_ids)
        overhead = int(page_ids.size) * self.table_update_ns
        self.stats.samples_processed += int(page_ids.size)

        self._samples_since_aging += samples.num_samples
        if self._samples_since_aging >= self.aging_interval_samples:
            # Aging walks every metadata entry.
            overhead += self.tracker.num_entries * 20.0
            self.tracker.age()
            self._samples_since_aging = 0

        hot = page_ids[freqs >= self.hot_threshold]
        if hot.size:
            hot = np.unique(hot)
            # Hottest first, and never churn more than half the local
            # tier in one round.
            order = np.argsort(self.tracker.get(hot))[::-1]
            hot = hot[order][: max(self.machine.config.local_capacity_pages // 2, 1)]
            placement = self.machine.placement_of(hot)
            candidates = hot[placement == CXL_TIER]
            if candidates.size:
                overhead += self._promote(candidates)
        return overhead

    def _promote(self, candidates: np.ndarray) -> float:
        machine = self.machine
        overhead = 0.0
        if machine.below_promo_wmark() or machine.local_free_pages < candidates.size:
            overhead += self._demote_coldest(
                max(machine.demotion_deficit_pages(), int(candidates.size))
            )
        promoted = self._promote_pages(candidates).num_moved
        if promoted:
            overhead += 5_000.0
        return overhead

    def _demote_coldest(self, num_pages: int) -> float:
        """Demote the local pages with the lowest exact frequency."""
        machine = self.machine
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        if local_pages.size == 0 or num_pages <= 0:
            return 0.0
        num_pages = min(num_pages, int(local_pages.size))
        freqs = self.tracker.get(local_pages)
        coldest_idx = np.argpartition(freqs, num_pages - 1)[:num_pages]
        demoted = self._demote_pages(local_pages[coldest_idx]).num_moved
        overhead = local_pages.size * 10.0  # metadata walk to rank pages
        if demoted:
            overhead += 5_000.0
        return overhead

    def describe(self) -> dict[str, object]:
        base = super().describe()
        base.update(
            {
                "hot_threshold": self.hot_threshold,
                "tracker_entries": self.tracker.num_entries,
                "metadata_bytes": self.stats.metadata_bytes,
            }
        )
        return base
