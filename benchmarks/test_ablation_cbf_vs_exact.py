"""Ablation: probabilistic (CBF) vs exact (hash table) tracking.

The paper's core insight (Section IV-B): tiering tolerates a little
tracking inaccuracy, so the CBF's collisions cost almost nothing in
classification quality while its memory is orders of magnitude
smaller.  The bench replays an identical sampled stream into both
trackers and compares hot/cold classifications and memory.
"""

import numpy as np
import pytest

from benchmarks._common import cdn_workload
from repro import ExperimentConfig
from repro.cbf.cbf import CountingBloomFilter
from repro.cbf.exact import ExactFrequencyTracker
from repro.cbf.sizing import counters_for_fpr
from repro.core.runner import build_machine
from repro.sampling.pebs import PEBSSampler


@pytest.fixture(scope="module")
def stream() -> list[np.ndarray]:
    workload = cdn_workload(8)()
    config = ExperimentConfig(local_fraction=0.06, ratio_label="1:32", seed=8)
    machine = build_machine(workload.footprint_pages, config)
    workload.setup(machine)
    sampler = PEBSSampler(base_period=16, seed=8)
    gen = iter(workload.batches())
    out = []
    for __ in range(50):
        batch = next(gen)
        sampler.observe(batch)
        drained = sampler.drain()
        if drained.num_samples:
            out.append(drained.page_ids.astype(np.uint64))
    return out


def test_ablation_cbf_vs_exact(benchmark, stream):
    local_pages = 1024  # nominal fast-tier size for the sizing rule
    num_counters = counters_for_fpr(local_pages, 1e-3, 3)

    def run_cbf():
        cbf = CountingBloomFilter(num_counters, num_hashes=3, bits=4, seed=9)
        for batch in stream:
            uniq, counts = np.unique(batch, return_counts=True)
            cbf.increase(uniq, counts)
        return cbf

    cbf = benchmark.pedantic(run_cbf, rounds=1, iterations=1)

    exact = ExactFrequencyTracker(max_count=15)
    for batch in stream:
        uniq, counts = np.unique(batch, return_counts=True)
        exact.increase(uniq, counts)

    pages = np.unique(np.concatenate(stream))
    threshold = 5
    cbf_hot = cbf.get(pages) >= threshold
    exact_hot = np.asarray(exact.get(pages)) >= threshold
    agreement = float(np.mean(cbf_hot == exact_hot))
    false_hot = float(np.mean(cbf_hot & ~exact_hot))

    print("\n=== Ablation: CBF vs exact hash-table tracking ===")
    print(f"  pages tracked:        {len(pages)}")
    print(f"  hot/cold agreement:   {agreement:.2%}")
    print(f"  false-hot rate:       {false_hot:.3%}")
    print(f"  CBF memory:           {cbf.nbytes / 1024:.1f} KB")
    print(f"  exact memory (168B):  {exact.nbytes / 1024:.1f} KB")
    print(f"  memory ratio:         {exact.nbytes / cbf.nbytes:.0f}x")

    # The insight: near-perfect classification agreement...
    assert agreement > 0.98
    # ...conservative errors only inflate (never deflate) hotness...
    assert not np.any(~cbf_hot & exact_hot)
    # ...at a fraction of the memory.
    assert exact.nbytes > 10 * cbf.nbytes
