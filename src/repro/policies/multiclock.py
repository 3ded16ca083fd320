"""MULTI-CLOCK (related work, paper Section IX-a).

MULTI-CLOCK (Maruf et al., HPCA'22) differentiates pages accessed
exactly once from pages accessed more than once, but treats all
multi-access pages equally -- the coarse two-level frequency signal
the paper contrasts with FreqTier's full frequency distribution.

Included as a related-work extension baseline: PEBS-sampled, promoting
pages on their second observed access, demoting pages with at most one
observed access since the last clock sweep.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.sampling.pebs import PEBSSampler, SamplingLevel


class MultiClock(TieringPolicy):
    """Two-level (once vs many) access classification."""

    name = "MULTI-CLOCK"

    def __init__(
        self,
        sample_batch_size: int = 10_000,
        sweep_interval_samples: int = 200_000,
        pebs_base_period: int = 64,
        seed: int = 0,
    ):
        super().__init__()
        self.sample_batch_size = int(sample_batch_size)
        self.sweep_interval_samples = int(sweep_interval_samples)
        self.pebs_base_period = int(pebs_base_period)
        self.seed = int(seed)
        self.pebs: PEBSSampler | None = None
        # 0 = unseen, 1 = seen once, 2 = seen multiple times.
        self._seen: np.ndarray | None = None
        self._samples_since_sweep = 0

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        self.pebs = PEBSSampler(base_period=self.pebs_base_period, seed=self.seed)
        self.pebs.set_level(SamplingLevel.HIGH)
        self.pebs.fault_injector = self.fault_injector
        self._seen = np.zeros(machine.config.total_capacity_pages, dtype=np.int8)

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        assert self.pebs is not None and self._seen is not None, (
            "state_dict requires attach()"
        )
        state = super().state_dict()
        state.update(
            {
                "pebs": self.pebs.state_dict(),
                "seen": self._seen.copy(),
                "samples_since_sweep": self._samples_since_sweep,
            }
        )
        return state

    def load_state(self, state: dict) -> None:
        assert self.pebs is not None, "load_state requires attach()"
        super().load_state(state)
        self.pebs.load_state(state["pebs"])
        self._seen = np.asarray(state["seen"], dtype=np.int8).copy()
        self._samples_since_sweep = int(state["samples_since_sweep"])

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.pebs is not None and self._seen is not None
        overhead = 0.0
        before = self.pebs.total_samples
        self.pebs.observe(batch)
        overhead += self.pebs.overhead_ns(self.pebs.total_samples - before)
        if self.pebs.pending_samples >= self.sample_batch_size:
            overhead += self._process_samples()
        self.stats.overhead_ns += overhead
        return overhead

    def _process_samples(self) -> float:
        assert self.pebs is not None and self._seen is not None
        samples = self.pebs.drain()
        if samples.num_samples == 0:
            return 0.0
        page_ids = self._filter_corrupt_sample_ids(samples.page_ids)
        if page_ids.size == 0:
            return 0.0
        self.stats.samples_processed += int(page_ids.size)
        pages, counts = np.unique(page_ids, return_counts=True)
        prior = self._seen[pages]
        new_state = np.minimum(prior + np.minimum(counts, 2), 2).astype(np.int8)
        self._seen[pages] = new_state
        overhead = pages.size * 30.0

        # Promote pages that crossed into "accessed more than once",
        # capped at half the local tier per round.
        multi = pages[new_state >= 2]
        multi = multi[: max(self.machine.config.local_capacity_pages // 2, 1)]
        if multi.size:
            placement = self.machine.placement_of(multi)
            candidates = multi[placement == CXL_TIER]
            if candidates.size:
                overhead += self._promote(candidates)

        self._samples_since_sweep += samples.num_samples
        if self._samples_since_sweep >= self.sweep_interval_samples:
            # Clock sweep: everyone's classification resets.
            self._seen[:] = 0
            self._samples_since_sweep = 0
        return overhead

    def _promote(self, candidates: np.ndarray) -> float:
        machine = self.machine
        overhead = 0.0
        if machine.below_promo_wmark() or machine.local_free_pages < candidates.size:
            overhead += self._demote_singletons(
                max(machine.demotion_deficit_pages(), int(candidates.size))
            )
        promoted = self._promote_pages(candidates).num_moved
        if promoted:
            overhead += 5_000.0
        return overhead

    def _demote_singletons(self, num_pages: int) -> float:
        """Demote local pages seen at most once this sweep."""
        assert self._seen is not None
        machine = self.machine
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        if local_pages.size == 0 or num_pages <= 0:
            return 0.0
        seen = self._seen[local_pages]
        # Coldest first: unseen (0), then seen-once (1).
        order = np.argsort(seen, kind="stable")[: min(num_pages, local_pages.size)]
        demoted = self._demote_pages(local_pages[order]).num_moved
        if demoted:
            return 5_000.0
        return 0.0
