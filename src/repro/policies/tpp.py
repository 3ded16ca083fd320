"""TPP: Transparent Page Placement (paper Sections II-C1, VI-B).

TPP shares AutoNUMA's hint-fault sampling but differs in both
directions of migration:

- **Promotion**: a faulted page is promoted only if it is on the
  *active LRU list* -- i.e. it has been observed at least twice within
  the activation window.  All active pages are treated equally
  regardless of how hot they actually are (the inaccuracy the paper
  calls out), and promotion is not rate-limited, which is why TPP's
  migration traffic in the paper's Figure 2 is the largest of all
  systems (up to 43.5% of total traffic).
- **Demotion**: plain LRU (the paper evaluates TPP on kernel v6.0,
  which lacks MGLRU-based demotion), modeled as recency derived only
  from fault observations -- a staler, noisier signal than AutoNUMA's.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.sampling.recency import HintFaultScanner


class TPP(TieringPolicy):
    """Hint faults + active-LRU promotion, plain-LRU demotion."""

    name = "TPP"

    def __init__(
        self,
        scan_period_accesses: int = 25_000,
        window_fraction: float = 0.01,
        active_window_ns: float = 2.0e7,
        lru_sample_stride: int = 16,
        lru_snapshot_interval_accesses: int = 1_500_000,
        headroom_fraction: float = 0.10,
        seed: int = 0,
    ):
        super().__init__()
        self.scan_period_accesses = int(scan_period_accesses)
        self.window_fraction = float(window_fraction)
        self.active_window_ns = float(active_window_ns)
        self.lru_sample_stride = max(1, int(lru_sample_stride))
        self.lru_snapshot_interval_accesses = int(lru_snapshot_interval_accesses)
        if not 0.0 <= headroom_fraction < 1.0:
            raise ValueError(
                f"headroom_fraction must be in [0, 1), got {headroom_fraction}"
            )
        self.headroom_fraction = float(headroom_fraction)
        self.seed = int(seed)
        self.scanner: HintFaultScanner | None = None
        self._last_fault_ns: np.ndarray | None = None
        self._last_ref_ns: np.ndarray | None = None
        self._lru_snapshot: np.ndarray | None = None
        self._accesses_since_scan = 0
        self._accesses_since_snapshot = 0

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        total = machine.config.total_capacity_pages
        window_pages = max(16, int(self.window_fraction * total))
        self.scanner = HintFaultScanner(
            total_pages=total, window_pages=window_pages, seed=self.seed
        )
        self._last_fault_ns = np.full(total, -np.inf, dtype=np.float64)
        # Plain (non-MGLRU) LRU recency from page reference bits: a
        # sparser, staler sample than AutoNUMA's generation walks.
        # -inf = never referenced (so a fresh page is never "active").
        self._last_ref_ns = np.full(total, -np.inf, dtype=np.float64)
        # Demotion works off a periodic snapshot of the LRU ordering:
        # the active/inactive lists lag real access recency, so
        # recently-hot (even just-promoted) pages can sit at the
        # inactive tail and get demoted again -- the ping-pong the
        # paper blames for TPP's poor low-capacity behaviour.
        self._lru_snapshot = self._last_ref_ns.copy()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        assert (
            self.scanner is not None
            and self._last_fault_ns is not None
            and self._last_ref_ns is not None
            and self._lru_snapshot is not None
        ), "state_dict requires attach()"
        state = super().state_dict()
        state.update(
            {
                "scanner": self.scanner.state_dict(),
                "last_fault_ns": self._last_fault_ns.copy(),
                "last_ref_ns": self._last_ref_ns.copy(),
                "lru_snapshot": self._lru_snapshot.copy(),
                "accesses_since_scan": self._accesses_since_scan,
                "accesses_since_snapshot": self._accesses_since_snapshot,
            }
        )
        return state

    def load_state(self, state: dict) -> None:
        assert self.scanner is not None, "load_state requires attach()"
        super().load_state(state)
        self.scanner.load_state(state["scanner"])
        self._last_fault_ns = np.asarray(
            state["last_fault_ns"], dtype=np.float64
        ).copy()
        self._last_ref_ns = np.asarray(
            state["last_ref_ns"], dtype=np.float64
        ).copy()
        self._lru_snapshot = np.asarray(
            state["lru_snapshot"], dtype=np.float64
        ).copy()
        self._accesses_since_scan = int(state["accesses_since_scan"])
        self._accesses_since_snapshot = int(state["accesses_since_snapshot"])

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.scanner is not None and self._last_fault_ns is not None
        overhead = 0.0

        # Faults first: activation is judged against recency recorded
        # in *earlier* quanta, not this batch's own touches.  The
        # scanner and LRU sampling read the batch's compressed form.
        assert self._last_ref_ns is not None and self._lru_snapshot is not None
        faults = self.scanner.observe(batch, now_ns)
        if faults.count:
            overhead += self.scanner.overhead_ns(faults.count)
            # Promote iff the faulted page is on the active LRU list,
            # i.e. it was referenced recently (before this fault).
            # Every active page is treated equally however hot it is --
            # the inaccuracy the paper attributes to TPP.
            previous = np.maximum(
                self._last_fault_ns[faults.page_ids],
                self._last_ref_ns[faults.page_ids],
            )
            active = (now_ns - previous) < self.active_window_ns
            self._last_fault_ns[faults.page_ids] = now_ns
            overhead += self._promote_active(faults.page_ids[active])

        # Reference-bit LRU sampling (coarser than AutoNUMA's MGLRU).
        touched = np.unique(batch.strided_pages(self.lru_sample_stride))
        if touched.size:
            self._last_ref_ns[touched] = now_ns
            overhead += 2_000.0
        self._accesses_since_snapshot += batch.num_accesses
        if self._accesses_since_snapshot >= self.lru_snapshot_interval_accesses:
            self._lru_snapshot = self._last_ref_ns.copy()
            self._accesses_since_snapshot = 0
            overhead += 20_000.0  # LRU list rebalancing pass

        self._accesses_since_scan += batch.num_accesses
        while self._accesses_since_scan >= self.scan_period_accesses:
            self.scanner.scan_tick(now_ns)
            self._accesses_since_scan -= self.scan_period_accesses
            overhead += 10_000.0

        # TPP's signature: keep an allocation headroom free on the top
        # tier by demoting proactively, not just on promotion pressure.
        headroom = int(
            self.headroom_fraction * self.machine.config.local_capacity_pages
        )
        deficit = headroom - self.machine.local_free_pages
        if deficit > 0:
            overhead += self._demote_lru(deficit)

        self.stats.overhead_ns += overhead
        return overhead

    # -- promotion ------------------------------------------------------------

    def _promote_active(self, active_pages: np.ndarray) -> float:
        machine = self.machine
        if active_pages.size == 0:
            return 0.0
        placement = machine.placement_of(active_pages)
        candidates = active_pages[placement == CXL_TIER]
        if candidates.size == 0:
            return 0.0
        overhead = 0.0
        # No rate limit: TPP makes room for every active faulted page.
        if machine.below_promo_wmark() or machine.local_free_pages < candidates.size:
            overhead += self._demote_lru(
                max(machine.demotion_deficit_pages(), int(candidates.size))
            )
        promoted = self._promote_pages(candidates).num_moved
        if promoted:
            overhead += 5_000.0
        return overhead

    # -- demotion (plain LRU on fault recency) -------------------------------------

    def _demote_lru(self, num_pages: int) -> float:
        assert self._lru_snapshot is not None
        machine = self.machine
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        if local_pages.size == 0 or num_pages <= 0:
            return 0.0
        num_pages = min(num_pages, int(local_pages.size))
        recency = self._lru_snapshot[local_pages]
        coldest_idx = np.argpartition(recency, num_pages - 1)[:num_pages]
        demoted = self._demote_pages(local_pages[coldest_idx]).num_moved
        if demoted:
            return 5_000.0 + demoted * 50.0
        return 0.0
