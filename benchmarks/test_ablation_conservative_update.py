"""Ablation: conservative update vs plain Count-Min Sketch.

FreqTier's CBF increments only the minimal counters ("INCREMENT ...
increment the minimum counters", paper Section V-A).  The plain
Count-Min Sketch updates all k counters.  Both never undercount, but
conservative update sharply reduces overcounting under load -- which
matters exactly when the CBF is sized tightly (the paper's memory
argument).  The bench replays the sampled CDN stream into both at an
aggressive load factor and compares classification quality.
"""

import numpy as np
import pytest

from benchmarks._common import cdn_workload
from repro import ExperimentConfig
from repro.cbf.cbf import CountingBloomFilter
from repro.cbf.cms import CountMinSketch
from repro.cbf.exact import ExactFrequencyTracker
from repro.core.runner import build_machine
from repro.sampling.pebs import PEBSSampler


@pytest.fixture(scope="module")
def stream() -> list[np.ndarray]:
    workload = cdn_workload(12)()
    config = ExperimentConfig(local_fraction=0.06, ratio_label="1:32", seed=12)
    machine = build_machine(workload.footprint_pages, config)
    workload.setup(machine)
    sampler = PEBSSampler(base_period=16, seed=12)
    gen = iter(workload.batches())
    out = []
    for __ in range(50):
        batch = next(gen)
        sampler.observe(batch)
        drained = sampler.drain()
        if drained.num_samples:
            out.append(drained.page_ids.astype(np.uint64))
    return out


def feed(tracker, stream):
    for batch in stream:
        uniq, counts = np.unique(batch, return_counts=True)
        tracker.increase(uniq, counts)
    return tracker


def test_ablation_conservative_update(benchmark, stream):
    # Deliberately tight filter: ~1 counter per 2 tracked pages.
    num_counters = 4_096
    cbf = benchmark.pedantic(
        lambda: feed(
            CountingBloomFilter(num_counters, num_hashes=3, bits=8, seed=13),
            stream,
        ),
        rounds=1,
        iterations=1,
    )
    cms = feed(
        CountMinSketch(num_counters, num_hashes=3, bits=8, seed=13), stream
    )
    oracle = feed(ExactFrequencyTracker(max_count=255), stream)

    pages = np.unique(np.concatenate(stream))
    truth = np.asarray(oracle.get(pages))
    cbf_err = np.mean(np.abs(cbf.get(pages) - truth))
    cms_err = np.mean(np.abs(cms.get(pages) - truth))

    threshold = 5
    truth_hot = truth >= threshold
    cbf_false_hot = np.mean((cbf.get(pages) >= threshold) & ~truth_hot)
    cms_false_hot = np.mean((cms.get(pages) >= threshold) & ~truth_hot)

    print("\n=== Ablation: conservative update vs Count-Min Sketch ===")
    print(f"  tracked pages: {len(pages)}, counters: {num_counters}")
    print(f"  mean |error|:  CBF {cbf_err:.2f}, CMS {cms_err:.2f}")
    print(f"  false-hot:     CBF {cbf_false_hot:.2%}, CMS {cms_false_hot:.2%}")

    # Conservative update overcounts strictly less under pressure.
    assert cbf_err < cms_err
    # And misclassifies fewer cold pages as hot.
    assert cbf_false_hot <= cms_false_hot
