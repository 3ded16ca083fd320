"""The batch form must never change experiment results.

Workloads emit run-compressed batches (a head of single pages plus page
runs); an explicit batch is stored as a compressed batch with head
pages only.  Every consumer -- the engine's tier counting, PEBS position
sampling, compressed hint faults, strided touched sets, run-weighted
histograms -- reads both through the same kernels, so the CDN stream
and the same batches rebuilt from their expanded ``page_ids`` must give
identical results for every policy.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import run_experiment
from repro.sampling.events import AccessBatch

WORKLOAD = WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=7)
#: 80 batches: enough for every sampling policy to drain samples and
#: migrate (at 25 only the hint-fault policies moved a page).
CONFIG = ExperimentConfig(
    local_fraction=0.12, ratio_label="1:16", max_batches=80, seed=7
)

#: Every registered policy class.
POLICIES = (
    "alllocal",
    "autonuma",
    "damon",
    "freqtier",
    "hemem",
    "hybridtier",
    "multiclock",
    "static",
    "tpp",
)
SEEDS = (1, 2, 3)


class _ExplicitBatches:
    """The wrapped workload, with each batch rebuilt from ``page_ids``."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.seed = inner.seed

    @property
    def footprint_pages(self) -> int:
        return self._inner.footprint_pages

    def setup(self, machine) -> None:
        self._inner.setup(machine)

    def describe(self) -> dict:
        return self._inner.describe()

    def batches(self):
        for batch in self._inner.batches():
            assert batch.run_starts.size, "the CDN stream must carry runs"
            yield AccessBatch(
                batch.page_ids,
                batch.num_ops,
                batch.cpu_ns,
                batch.label,
                batch.bytes_per_access,
            )


def _as_dict(result):
    return dataclasses.asdict(result)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_compressed_stream_matches_explicit_batches(policy, seed):
    compressed = run_experiment(WORKLOAD, PolicySpec(policy, seed=seed), CONFIG)
    explicit = run_experiment(
        lambda: _ExplicitBatches(WORKLOAD()),
        PolicySpec(policy, seed=seed),
        CONFIG,
    )
    assert _as_dict(compressed) == _as_dict(explicit)


def test_engine_results_deterministic_across_runs():
    first = run_experiment(WORKLOAD, PolicySpec("freqtier", seed=2), CONFIG)
    second = run_experiment(WORKLOAD, PolicySpec("freqtier", seed=2), CONFIG)
    assert _as_dict(first) == _as_dict(second)
