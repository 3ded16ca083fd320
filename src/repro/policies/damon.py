"""DAMON/DAOS-style region-based tiering (paper Section IX-a).

DAOS (Data Access-aware Operating System) monitors and migrates in
units of *variable-sized memory regions*, where every page in a region
shares one access frequency.  Regions adapt: hot, large regions split
so the monitor can refine them; adjacent regions with similar access
rates merge to bound the total region count.  The paper's criticism:
whole-region classification is coarse -- a region mixing hot and cold
pages is migrated wholesale either way.

This implementation follows the DAMON design at the simulator's scale:

- regions are contiguous page ranges partitioning the address space;
- PEBS samples are binned per region each adjustment window;
- the hottest *split-worthy* regions split in two, similar neighbors
  merge, keeping the region count within ``[min_regions, max_regions]``;
- placement: hottest regions (by per-page access density) are promoted
  into local DRAM, coldest local regions demoted, watermark-gated.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.sampling.pebs import PEBSSampler, SamplingLevel


class DAMONRegion(TieringPolicy):
    """Adaptive-region access monitoring and wholesale region migration."""

    name = "DAMON"

    def __init__(
        self,
        min_regions: int = 16,
        max_regions: int = 256,
        adjust_interval_accesses: int = 500_000,
        pebs_base_period: int = 64,
        merge_similarity: float = 0.25,
        seed: int = 0,
    ):
        super().__init__()
        if not 1 <= min_regions <= max_regions:
            raise ValueError(
                f"need 1 <= min_regions <= max_regions, got "
                f"{min_regions}, {max_regions}"
            )
        self.min_regions = int(min_regions)
        self.max_regions = int(max_regions)
        self.adjust_interval = int(adjust_interval_accesses)
        self.merge_similarity = float(merge_similarity)
        self.pebs_base_period = int(pebs_base_period)
        self.seed = int(seed)
        self.pebs: PEBSSampler | None = None
        #: Region boundaries: pages [bounds[i], bounds[i+1]) = region i.
        self._bounds: np.ndarray | None = None
        self._region_hits: np.ndarray | None = None
        self._accesses_since_adjust = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        self.pebs = PEBSSampler(base_period=self.pebs_base_period, seed=self.seed)
        self.pebs.set_level(SamplingLevel.HIGH)
        self.pebs.fault_injector = self.fault_injector
        total = machine.config.total_capacity_pages
        initial = min(self.min_regions * 4, self.max_regions)
        self._bounds = np.linspace(0, total, initial + 1).astype(np.int64)
        self._region_hits = np.zeros(initial, dtype=np.float64)

    @property
    def num_regions(self) -> int:
        assert self._bounds is not None
        return len(self._bounds) - 1

    def region_sizes(self) -> np.ndarray:
        assert self._bounds is not None
        return np.diff(self._bounds)

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        assert (
            self.pebs is not None
            and self._bounds is not None
            and self._region_hits is not None
        ), "state_dict requires attach()"
        state = super().state_dict()
        state.update(
            {
                "pebs": self.pebs.state_dict(),
                "bounds": self._bounds.copy(),
                "region_hits": self._region_hits.copy(),
                "accesses_since_adjust": self._accesses_since_adjust,
            }
        )
        return state

    def load_state(self, state: dict) -> None:
        assert self.pebs is not None, "load_state requires attach()"
        super().load_state(state)
        self.pebs.load_state(state["pebs"])
        self._bounds = np.asarray(state["bounds"], dtype=np.int64).copy()
        self._region_hits = np.asarray(
            state["region_hits"], dtype=np.float64
        ).copy()
        self._accesses_since_adjust = int(state["accesses_since_adjust"])

    # -- main hook ----------------------------------------------------------

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert (
            self.pebs is not None
            and self._bounds is not None
            and self._region_hits is not None
        )
        overhead = 0.0
        before = self.pebs.total_samples
        self.pebs.observe(batch)
        overhead += self.pebs.overhead_ns(self.pebs.total_samples - before)

        self._accesses_since_adjust += batch.num_accesses
        if self._accesses_since_adjust >= self.adjust_interval:
            self._accesses_since_adjust = 0
            overhead += self._adjustment_pass()

        self.stats.overhead_ns += overhead
        return overhead

    # -- DAMON adjustment: bin, split, merge, migrate ---------------------------

    def _adjustment_pass(self) -> float:
        assert self.pebs is not None and self._bounds is not None
        samples = self.pebs.drain()
        overhead = 20_000.0  # region bookkeeping walk
        page_ids = self._filter_corrupt_sample_ids(samples.page_ids)
        if page_ids.size:
            idx = (
                np.searchsorted(self._bounds, page_ids, side="right") - 1
            )
            idx = np.clip(idx, 0, self.num_regions - 1)
            hits = np.bincount(idx, minlength=self.num_regions).astype(
                np.float64
            )
        else:
            hits = np.zeros(self.num_regions, dtype=np.float64)
        # Exponential decay keeps history without unbounded growth.
        self._region_hits = 0.5 * self._region_hits + hits

        # Merge first, split second: a freshly split pair starts with
        # identical (estimated) densities and must be re-measured for a
        # full window before it can become a merge candidate, exactly
        # as DAMON's aging works.
        self._merge_similar_regions()
        self._split_hot_regions()
        overhead += self._migrate_by_density()
        return overhead

    def _density(self) -> np.ndarray:
        sizes = np.maximum(self.region_sizes(), 1)
        return self._region_hits / sizes

    def _split_hot_regions(self) -> None:
        """Split the hottest splittable regions in half."""
        assert self._bounds is not None and self._region_hits is not None
        budget = self.max_regions - self.num_regions
        if budget <= 0:
            return
        sizes = self.region_sizes()
        splittable = np.nonzero(sizes >= 2)[0]
        if splittable.size == 0:
            return
        order = splittable[np.argsort(self._density()[splittable])[::-1]]
        to_split = order[: min(budget, max(1, self.num_regions // 4))]
        new_bounds = list(self._bounds)
        new_hits = list(self._region_hits)
        # Insert from the back so earlier indices stay valid.
        for i in sorted(to_split.tolist(), reverse=True):
            lo, hi = self._bounds[i], self._bounds[i + 1]
            mid = (lo + hi) // 2
            new_bounds.insert(i + 1, mid)
            half = self._region_hits[i] / 2
            new_hits[i] = half
            new_hits.insert(i + 1, half)
        self._bounds = np.asarray(new_bounds, dtype=np.int64)
        self._region_hits = np.asarray(new_hits, dtype=np.float64)

    def _merge_similar_regions(self) -> None:
        """Merge adjacent regions whose densities are within tolerance."""
        assert self._bounds is not None and self._region_hits is not None
        while self.num_regions > self.min_regions:
            density = self._density()
            left, right = density[:-1], density[1:]
            scale = np.maximum(np.maximum(left, right), 1e-9)
            diff = np.abs(left - right) / scale
            candidates = np.nonzero(diff <= self.merge_similarity)[0]
            if candidates.size == 0:
                break
            i = int(candidates[np.argmin(diff[candidates])])
            self._region_hits[i] += self._region_hits[i + 1]
            self._region_hits = np.delete(self._region_hits, i + 1)
            self._bounds = np.delete(self._bounds, i + 1)
            if self.num_regions <= self.min_regions:
                break

    def _region_tier_counts(self, tier: int) -> np.ndarray:
        """Pages of each region currently placed on ``tier``.

        One prefix sum over the placement array replaces a per-region
        gather: region ``i`` holds ``prefix[hi] - prefix[lo]`` such
        pages.  The migration loops use this to skip regions with
        nothing to move, which is where almost all their iterations
        land once the local tier is full.
        """
        assert self._bounds is not None
        view = self.machine.page_table.placement_view()
        prefix = np.empty(view.size + 1, dtype=np.int64)
        prefix[0] = 0
        np.cumsum(view == tier, dtype=np.int64, out=prefix[1:])
        bounds = np.minimum(self._bounds, view.size)
        return prefix[bounds[1:]] - prefix[bounds[:-1]]

    def _region_pages_in_tier(self, i: int, tier: int) -> np.ndarray:
        """Page ids of region ``i`` on ``tier`` (ascending).

        Regions are contiguous, so this is a zero-copy slice of the
        placement array -- no index re-validation and no materialized
        ``arange`` for pages that are then masked away.
        """
        assert self._bounds is not None
        lo, hi = int(self._bounds[i]), int(self._bounds[i + 1])
        view = self.machine.page_table.placement_view()
        return np.nonzero(view[lo:hi] == tier)[0] + lo

    def _migrate_by_density(self) -> float:
        """Promote hottest regions, demote coldest, wholesale."""
        assert self._bounds is not None
        machine = self.machine
        density = self._density()
        order = np.argsort(density)[::-1]
        overhead = 0.0
        budget = machine.config.local_capacity_pages // 4

        promoted_total = 0
        cxl_counts = self._region_tier_counts(CXL_TIER)
        for i in order:
            if promoted_total >= budget or density[i] <= 0:
                break
            if cxl_counts[i] == 0:
                continue
            pages = self._region_pages_in_tier(int(i), CXL_TIER)
            if pages.size == 0:
                continue
            if machine.local_free_pages < pages.size:
                overhead += self._demote_coldest(
                    int(pages.size) - machine.local_free_pages, density
                )
                # Demotions push pages of colder regions into CXL, so
                # the skip counts must be rebuilt to stay exact.
                cxl_counts = self._region_tier_counts(CXL_TIER)
            moved = self._promote_pages(
                pages[: machine.local_free_pages]
            ).num_moved
            if moved:
                promoted_total += moved
                overhead += 5_000.0
        return overhead

    def _demote_coldest(self, num_pages: int, density: np.ndarray) -> float:
        assert self._bounds is not None
        overhead = 0.0
        demoted_total = 0
        # Demoting region i only drains region i's own local pages, so
        # one snapshot of the counts stays exact across the loop.
        local_counts = self._region_tier_counts(LOCAL_TIER)
        for i in np.argsort(density):
            if demoted_total >= num_pages:
                break
            if local_counts[i] == 0:
                continue
            pages = self._region_pages_in_tier(int(i), LOCAL_TIER)
            if pages.size == 0:
                continue
            moved = self._demote_pages(
                pages[: num_pages - demoted_total]
            ).num_moved
            if moved:
                demoted_total += moved
                overhead += 5_000.0
        return overhead
