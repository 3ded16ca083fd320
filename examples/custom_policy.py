#!/usr/bin/env python3
"""Extending the framework: write and evaluate your own tiering policy.

The policy interface is three methods; this example implements a
simple "sampled-LFU" policy in ~40 lines -- PEBS sampling into an
exact counter table with periodic top-k placement -- and benchmarks it
against FreqTier on the same machine and trace, showing how research
iterations slot into the harness.

Usage:
    python examples/custom_policy.py
"""

import numpy as np

from repro import (
    ExperimentConfig,
    FreqTier,
    SyntheticZipfWorkload,
    compare_policies,
)
from repro.analysis.tables import format_comparison_table
from repro.cbf.exact import ExactFrequencyTracker
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import TieringPolicy
from repro.sampling.pebs import PEBSSampler, SamplingLevel


class SampledLFU(TieringPolicy):
    """Every N accesses, place the top-k sampled pages in local DRAM.

    Deliberately naive: exact counting (high metadata cost), periodic
    wholesale re-placement (bursty migration traffic), no adaptivity.
    A good foil for FreqTier's incremental design.
    """

    name = "SampledLFU"

    def __init__(self, replace_interval_accesses: int = 400_000, seed: int = 0):
        super().__init__()
        self.replace_interval = int(replace_interval_accesses)
        self.tracker = ExactFrequencyTracker(bytes_per_entry=16)
        self.pebs = PEBSSampler(base_period=64, seed=seed)
        self.pebs.set_level(SamplingLevel.HIGH)
        self._since_replace = 0

    def on_batch(self, batch, now_ns: float, counts) -> float:
        self.pebs.observe(batch)
        overhead = 0.0
        self._since_replace += batch.num_accesses
        if self._since_replace >= self.replace_interval:
            self._since_replace = 0
            samples = self.pebs.drain()
            if samples.num_samples:
                self.tracker.increment(samples.page_ids)
                overhead += samples.num_samples * 100.0
            overhead += self._replace_top_k()
            self.tracker.age()
        self.stats.overhead_ns += overhead
        return overhead

    def _replace_top_k(self) -> float:
        machine = self.machine
        entries = sorted(
            self.tracker.items(), key=lambda kv: kv[1], reverse=True
        )
        if not entries:
            return 0.0
        k = machine.config.local_capacity_pages
        want_local = np.array([page for page, __ in entries[:k]], dtype=np.int64)
        placement = machine.placement_of(want_local)
        to_promote = want_local[placement == CXL_TIER]
        # Demote whatever occupies local but is outside the top-k.
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        stale = np.setdiff1d(local_pages, want_local, assume_unique=False)
        demoted = machine.demote(stale[: len(to_promote) + 8])
        promoted = machine.promote(to_promote)
        self._record_migrations(promoted, demoted)
        return 10_000.0  # two syscalls + ranking pass


def main() -> None:
    def workload():
        return SyntheticZipfWorkload(
            num_pages=16_384, alpha=1.2, accesses_per_batch=40_000, seed=4
        )

    config = ExperimentConfig(
        local_fraction=0.08, ratio_label="1:16", max_batches=250, seed=4
    )
    print("Benchmarking a custom policy against FreqTier ...")
    results = compare_policies(
        workload,
        {
            "FreqTier": lambda: FreqTier(seed=4),
            "SampledLFU": lambda: SampledLFU(seed=4),
        },
        config,
    )
    print()
    print(format_comparison_table(results))
    lfu = results["SampledLFU"]
    ft = results["FreqTier"]
    print(
        f"\nSampledLFU migrated {lfu.pages_migrated} pages vs FreqTier's "
        f"{ft.pages_migrated}: wholesale replacement is bursty, which is "
        f"exactly the traffic FreqTier's threshold/watermark design avoids."
    )


if __name__ == "__main__":
    main()
