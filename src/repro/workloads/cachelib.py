"""CacheLib / cachebench workload analogue (paper Table I, Section VI-C).

The paper drives CacheLib with Meta's cachebench using two published
workload profiles -- **CDN** and **social graph** -- each defined by a
popularity distribution, an item-size distribution and an operation
mix.  Both are strongly Zipfian (Section II-B).  This module generates
the equivalent page-granular access stream:

- items are laid out consecutively in a big slab region, with sizes
  drawn from the profile's page-size distribution;
- a small *index* region (the cache's hash table) takes one access per
  operation and is intrinsically hot;
- GETs touch the accessed item's pages; SETs touch the same pages
  (allocation/copy);
- popularity follows Zipf(alpha) over items, with a seeded permutation
  so hot items scatter across the address space;
- an optional *phase plan* redirects accesses to item subranges at
  batch boundaries, reproducing the paper's Figure 11 distribution
  shift (first half of items, then second half).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads.spec import Workload
from repro.workloads.zipfian import ZipfianSampler


@dataclass(frozen=True)
class CacheLibProfile:
    """Shape parameters of one cachebench workload."""

    name: str
    #: Zipf skew of item popularity.
    zipf_alpha: float
    #: Item sizes in pages and their probabilities.
    size_pages: tuple[int, ...]
    size_probs: tuple[float, ...]
    #: Fraction of operations that are GETs (rest are SETs).
    get_fraction: float
    #: Pages of an item actually read per GET (cap).
    read_pages_cap: int
    #: Pure compute per operation, ns.
    cpu_ns_per_op: float
    #: Bytes transferred per emitted page access (a GET streams the
    #: item's pages, so one page access stands for a bulk read).
    bytes_per_access: float = 64.0
    #: Index (hash table) region size as a fraction of the slab.
    index_fraction: float = 0.01

    def __post_init__(self) -> None:
        if len(self.size_pages) != len(self.size_probs):
            raise ValueError("size_pages and size_probs must align")
        if abs(sum(self.size_probs) - 1.0) > 1e-9:
            raise ValueError(f"size_probs must sum to 1, got {sum(self.size_probs)}")
        if not 0.0 < self.get_fraction <= 1.0:
            raise ValueError(f"get_fraction must be in (0, 1], got {self.get_fraction}")

    @property
    def mean_item_pages(self) -> float:
        return float(
            np.dot(np.asarray(self.size_pages), np.asarray(self.size_probs))
        )


#: Content-delivery-network profile: large objects, strong skew.
CDN_PROFILE = CacheLibProfile(
    name="cachelib-cdn",
    zipf_alpha=1.25,
    size_pages=(1, 2, 4, 8, 16),
    size_probs=(0.15, 0.25, 0.30, 0.20, 0.10),
    get_fraction=0.95,
    read_pages_cap=8,
    cpu_ns_per_op=130.0,
    bytes_per_access=1024.0,
)

#: Social-graph profile: small objects, higher skew, higher op rate.
SOCIAL_PROFILE = CacheLibProfile(
    name="cachelib-social",
    zipf_alpha=1.35,
    size_pages=(1, 2),
    size_probs=(0.85, 0.15),
    get_fraction=0.90,
    read_pages_cap=2,
    cpu_ns_per_op=50.0,
    bytes_per_access=256.0,
)


@dataclass(frozen=True)
class Phase:
    """One segment of a phase plan: which item subrange is live."""

    #: Item-range fractions [lo, hi) receiving all accesses this phase.
    item_lo_frac: float
    item_hi_frac: float
    #: Batches before moving to the next phase (None = forever).
    num_batches: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.item_lo_frac < self.item_hi_frac <= 1.0:
            raise ValueError(
                f"need 0 <= lo < hi <= 1, got [{self.item_lo_frac}, "
                f"{self.item_hi_frac})"
            )


class CacheLibWorkload(Workload):
    """In-memory caching access-stream generator.

    Parameters
    ----------
    profile:
        CDN or social-graph shape (or a custom profile).
    slab_pages:
        Total pages of the item slab (the cache's value storage);
        items are packed into it per the size distribution.
    ops_per_batch:
        Cache operations per emitted batch.
    phase_plan:
        Optional distribution-shift schedule (Fig. 11); default is one
        endless phase over all items.
    churn_swaps_per_batch:
        Continuous key churn (paper Section VII-D): this many random
        popularity-rank swaps are applied before each batch, so the hot
        set slowly rotates instead of shifting wholesale.
    """

    def __init__(
        self,
        profile: CacheLibProfile,
        slab_pages: int,
        ops_per_batch: int = 20_000,
        phase_plan: tuple[Phase, ...] | None = None,
        churn_swaps_per_batch: int = 0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if slab_pages < 64:
            raise ValueError(f"slab_pages must be >= 64, got {slab_pages}")
        self.profile = profile
        self.name = profile.name
        self.slab_pages = int(slab_pages)
        self.ops_per_batch = int(ops_per_batch)
        self.phase_plan = phase_plan or (Phase(0.0, 1.0, None),)
        if churn_swaps_per_batch < 0:
            raise ValueError(
                f"churn_swaps_per_batch must be >= 0, got "
                f"{churn_swaps_per_batch}"
            )
        self.churn_swaps_per_batch = int(churn_swaps_per_batch)
        self._rng = np.random.default_rng(seed)

        self._build_items()
        self._index_pages = max(1, int(self.profile.index_fraction * slab_pages))
        self._slab_start = 0
        self._index_start = 0
        self._phase_samplers: dict[int, ZipfianSampler] = {}
        self._phase_bounds: dict[int, tuple[int, int]] = {}

    # -- layout -----------------------------------------------------------

    def _build_items(self) -> None:
        """Pack items of profile-distributed sizes into the slab."""
        sizes = np.asarray(self.profile.size_pages, dtype=np.int64)
        probs = np.asarray(self.profile.size_probs, dtype=np.float64)
        mean = self.profile.mean_item_pages
        estimate = int(self.slab_pages / mean * 1.1) + 8
        drawn = self._rng.choice(sizes, size=estimate, p=probs)
        ends = np.cumsum(drawn)
        num_items = int(np.searchsorted(ends, self.slab_pages, side="right"))
        if num_items < 1:
            raise ValueError(
                f"slab_pages={self.slab_pages} too small for item sizes {sizes}"
            )
        self._item_pages = drawn[:num_items]
        self._item_start = np.concatenate(
            [[0], np.cumsum(self._item_pages)[:-1]]
        ).astype(np.int64)
        self.num_items = num_items
        self._used_slab_pages = int(self._item_pages.sum())
        # Static per-item table for the batch generator: pages touched
        # by a GET (the item size capped at the profile's read cap), so
        # the per-batch minimum reduces to one gather.
        self._get_pages = np.minimum(
            self._item_pages, np.int64(self.profile.read_pages_cap)
        )

    @property
    def footprint_pages(self) -> int:
        return self._used_slab_pages + max(
            1, int(self.profile.index_fraction * self.slab_pages)
        )

    def setup(self, machine: Machine) -> None:
        index_region = machine.allocate(self._index_pages, name="cache-index")
        slab_region = machine.allocate(self._used_slab_pages, name="cache-slab")
        self._index_start = index_region.start_page
        self._slab_start = slab_region.start_page
        self._machine = machine
        # Each item's index (hash-table) page is a pure function of its
        # id; one static table turns the per-batch multiply/mod into a
        # single gather.
        item_ids = np.arange(self.num_items, dtype=np.int64)
        # int32 to match the emitted page buffer: the per-batch head
        # write is then a same-width copy instead of a downcast.
        self._index_page_of_item = (
            (item_ids * np.int64(2654435761)) % self._index_pages
            + self._index_start
        ).astype(np.int32)
        # Absolute run starts (slab offset folded in) save one 10k-wide
        # add per batch.
        self._item_start_abs = self._item_start + self._slab_start

    # -- phase handling --------------------------------------------------------

    def _sampler_for_phase(self, phase_idx: int) -> ZipfianSampler:
        if phase_idx not in self._phase_samplers:
            phase = self.phase_plan[phase_idx]
            lo = int(phase.item_lo_frac * self.num_items)
            hi = max(lo + 1, int(phase.item_hi_frac * self.num_items))
            sampler = ZipfianSampler(
                hi - lo,
                self.profile.zipf_alpha,
                seed=self.seed + 1000 + phase_idx,
            )
            self._phase_samplers[phase_idx] = sampler
            self._phase_bounds[phase_idx] = (lo, hi)
        return self._phase_samplers[phase_idx]

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """RNG plus the state of every phase sampler built so far.

        Phase indices become string keys (JSON-safe); samplers not yet
        built are simply absent and will be constructed deterministically
        by :meth:`_sampler_for_phase` when first needed.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "phase_samplers": {
                str(idx): sampler.state_dict()
                for idx, sampler in self._phase_samplers.items()
            },
        }

    def load_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        for key, sampler_state in state["phase_samplers"].items():
            self._sampler_for_phase(int(key)).load_state(sampler_state)

    # -- access stream --------------------------------------------------------------

    def batches(self) -> Iterator[AccessBatch]:
        phase_idx = 0
        batches_in_phase = 0
        while True:
            phase = self.phase_plan[phase_idx]
            if phase.num_batches is not None and batches_in_phase >= phase.num_batches:
                if phase_idx + 1 < len(self.phase_plan):
                    phase_idx += 1
                    batches_in_phase = 0
                    phase = self.phase_plan[phase_idx]
            yield self._generate_batch(phase_idx)
            batches_in_phase += 1

    def _generate_batch(self, phase_idx: int) -> AccessBatch:
        sampler = self._sampler_for_phase(phase_idx)
        if self.churn_swaps_per_batch:
            sampler.reassign_ranks(self.churn_swaps_per_batch)
        lo, __ = self._phase_bounds[phase_idx]
        ops = self.ops_per_batch
        item_ids = sampler.sample(ops)
        if lo:
            item_ids += lo

        starts = self._item_start_abs[item_ids]
        # GETs read up to the cap; SETs rewrite the whole item -- the
        # capped widths come from the static per-item table, with the
        # (rare) SETs patched in afterwards.
        is_set = self._rng.random(ops) >= self.profile.get_fraction
        counts = self._get_pages[item_ids]
        set_idx = np.flatnonzero(is_set)
        if set_idx.size:
            counts[set_idx] = self._item_pages[item_ids[set_idx]]
        # Run-compressed batch: index accesses form the head (a single
        # table gather), item pages stay as (start, count) runs --
        # stream expansion is deferred to AccessBatch.page_ids and
        # never happens on the FreqTier hot path.  The in-batch shuffle
        # of older releases is dropped: every consumer is
        # order-independent within a batch -- placement counting,
        # uniform-position sampling and CBF coalescing all aggregate --
        # so the stream is statistically equivalent (see docs/API.md
        # "Performance") at a fraction of the generation cost.
        return AccessBatch(
            page_ids=None,
            num_ops=float(ops),
            cpu_ns=ops * self.profile.cpu_ns_per_op,
            label=f"phase{phase_idx}",
            bytes_per_access=self.profile.bytes_per_access,
            head_page_ids=self._index_page_of_item[item_ids],
            run_starts=starts,
            run_counts=counts,
        )

    # -- introspection ------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        base = super().describe()
        base.update(
            {
                "profile": self.profile.name,
                "num_items": self.num_items,
                "zipf_alpha": self.profile.zipf_alpha,
                "phases": len(self.phase_plan),
            }
        )
        return base
