"""Zero-copy shared-memory stream executor: identity, fallback, lifecycle.

The contract: turning ``share_streams`` on changes *nothing* about the
results -- every cell of a grid must be byte-identical to serial
execution -- while the workload's access stream is generated once and
mapped read-only by every worker.  Segments must not outlive the grid.
"""

from __future__ import annotations

import dataclasses
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import (
    CellSpec,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
)
from repro.core.shm import (
    SharedStreamFactory,
    SharedStreamWorkload,
    publish_stream,
    record_stream,
)

WORKLOAD = WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=11)
CONFIG = ExperimentConfig(
    local_fraction=0.12, ratio_label="1:16", max_batches=20, seed=11
)
POLICIES = ("freqtier", "autonuma", "tpp")


def _grid():
    return [
        CellSpec(WORKLOAD, PolicySpec(name, seed=11), CONFIG, label=name)
        for name in POLICIES
    ]


def _dicts(results):
    return [dataclasses.asdict(r) for r in results]


# ---------------------------------------------------------------------------
# recording / replay
# ---------------------------------------------------------------------------


def test_replay_reproduces_generated_stream():
    records, arrays, exhausted = record_stream(WORKLOAD, 20)
    assert len(records) == 20
    assert not exhausted  # the CDN workload generates forever

    handle = publish_stream(WORKLOAD, 20)
    try:
        replay = SharedStreamWorkload(WORKLOAD, handle)
        fresh = WORKLOAD()
        from repro.core.runner import build_all_local_machine
        from repro.memsim.tier import CXL1_CONFIG

        fresh.setup(build_all_local_machine(fresh.footprint_pages, CXL1_CONFIG))
        fresh_stream = fresh.batches()
        for got in replay.batches():
            want = next(fresh_stream)
            assert got.label == want.label
            assert got.num_ops == want.num_ops
            assert got.cpu_ns == want.cpu_ns
            # page_ids materializes compressed batches on both sides.
            np.testing.assert_array_equal(got.page_ids, want.page_ids)
            assert not got.head_page_ids.flags.writeable
    finally:
        handle.unlink()


def test_replay_reproduces_explicit_stream():
    """Explicit batches record as head pages with empty runs and
    replay with their page ids, dtype included."""
    workload = WorkloadSpec("zipf", num_pages=512, alpha=1.1, seed=3)
    handle = publish_stream(workload, 6)
    try:
        fresh = workload()
        from repro.core.runner import build_all_local_machine
        from repro.memsim.tier import CXL1_CONFIG

        fresh.setup(build_all_local_machine(fresh.footprint_pages, CXL1_CONFIG))
        fresh_stream = fresh.batches()
        replayed = list(SharedStreamWorkload(workload, handle).batches())
        assert len(replayed) == 6
        for got in replayed:
            want = next(fresh_stream)
            assert want.run_starts.size == 0 and got.run_starts.size == 0
            assert got.page_ids.dtype == want.page_ids.dtype
            np.testing.assert_array_equal(got.page_ids, want.page_ids)
    finally:
        handle.unlink()


def test_replay_views_are_read_only():
    handle = publish_stream(WORKLOAD, 5)
    try:
        views = handle.attach()
        assert views
        for view in views:
            with pytest.raises(ValueError):
                view[0] = 0
    finally:
        handle.unlink()


def test_handle_pickles_by_value_and_reattaches():
    handle = publish_stream(WORKLOAD, 5)
    try:
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.segment == handle.segment
        assert not clone._owner
        for mine, theirs in zip(handle.attach(), clone.attach()):
            np.testing.assert_array_equal(mine, theirs)
        clone.close()
    finally:
        handle.unlink()


def test_unlink_is_idempotent_and_removes_segment():
    handle = publish_stream(WORKLOAD, 5)
    name = handle.segment
    handle.unlink()
    handle.unlink()  # second call is a no-op
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name, create=False)


def test_shared_workload_delegates_identity():
    handle = publish_stream(WORKLOAD, 5)
    try:
        replay = SharedStreamWorkload(WORKLOAD, handle)
        fresh = WORKLOAD()
        assert replay.name == fresh.name
        assert replay.seed == fresh.seed
        assert replay.footprint_pages == fresh.footprint_pages
        assert replay.describe().get("shared_stream") is True
    finally:
        handle.unlink()


# ---------------------------------------------------------------------------
# executor integration
# ---------------------------------------------------------------------------


def test_pool_with_shared_streams_matches_serial():
    serial = ParallelExecutor(jobs=1).run(_grid())
    shared = ParallelExecutor(jobs=2, share_streams=True)
    pooled = shared.run(_grid())
    assert _dicts(pooled) == _dicts(serial)
    assert shared.stats.shm_segments == 1  # one workload group
    assert shared.stats.shm_bytes > 0
    assert shared.stats.shm_fallbacks == 0


def test_pool_without_sharing_still_matches_serial():
    serial = ParallelExecutor(jobs=1).run(_grid())
    off = ParallelExecutor(jobs=2, share_streams=False)
    pooled = off.run(_grid())
    assert _dicts(pooled) == _dicts(serial)
    assert off.stats.shm_segments == 0


def test_segments_unlinked_after_grid():
    executor = ParallelExecutor(jobs=2, share_streams=True)
    specs, handles = executor._substitute_shared(_grid())
    assert len(handles) == 1
    name = handles[0].segment
    assert isinstance(specs[0].workload, SharedStreamFactory)
    for handle in handles:
        handle.unlink()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name, create=False)


# ---------------------------------------------------------------------------
# eligibility / fallback
# ---------------------------------------------------------------------------


def test_single_cell_groups_not_published():
    executor = ParallelExecutor(jobs=2, share_streams=True)
    specs, handles = executor._substitute_shared(_grid()[:1])
    assert handles == []
    assert not isinstance(specs[0].workload, SharedStreamFactory)


def test_unbounded_budget_ineligible():
    config = dataclasses.replace(CONFIG, max_batches=None, max_accesses=10_000)
    spec = CellSpec(WORKLOAD, PolicySpec("freqtier", seed=11), config)
    assert ParallelExecutor._stream_key(spec) is None


def test_max_accesses_limit_ineligible():
    config = dataclasses.replace(CONFIG, max_accesses=10_000)
    spec = CellSpec(WORKLOAD, PolicySpec("freqtier", seed=11), config)
    assert ParallelExecutor._stream_key(spec) is None


def test_closure_factory_ineligible():
    spec = CellSpec(lambda: None, PolicySpec("freqtier", seed=11), CONFIG)
    assert ParallelExecutor._stream_key(spec) is None


def test_same_workload_same_key_different_workload_different_key():
    a = CellSpec(WORKLOAD, PolicySpec("freqtier", seed=11), CONFIG)
    b = CellSpec(WORKLOAD, PolicySpec("tpp", seed=3), CONFIG)
    other = CellSpec(
        WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=99),
        PolicySpec("freqtier", seed=11),
        CONFIG,
    )
    key_a = ParallelExecutor._stream_key(a)
    assert key_a is not None
    assert key_a == ParallelExecutor._stream_key(b)  # policy-independent
    assert key_a != ParallelExecutor._stream_key(other)


def test_publish_failure_counts_fallback(monkeypatch):
    import repro.core.shm as shm_mod

    def boom(*args, **kwargs):
        raise OSError("no shared memory on this platform")

    monkeypatch.setattr(shm_mod, "publish_stream", boom)
    executor = ParallelExecutor(jobs=2, share_streams=True)
    specs, handles = executor._substitute_shared(_grid())
    assert handles == []
    assert executor.stats.shm_fallbacks == 1
    assert not any(isinstance(s.workload, SharedStreamFactory) for s in specs)
