"""Tests for the HeMem baseline."""

import numpy as np
import pytest

from repro._units import PAGE_SIZE
from repro.cbf.exact import HEMEM_BYTES_PER_PAGE
from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import LOCAL_TIER
from repro.policies.hemem import HeMem
from repro.sampling.events import AccessBatch

from tests.conftest import tier_counts


def make_setup(local=128, cxl=4096, footprint=2048, **kwargs):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    policy = HeMem(
        sample_batch_size=kwargs.pop("sample_batch_size", 200),
        pebs_base_period=kwargs.pop("pebs_base_period", 4),
        **kwargs,
    )
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy


def drive(machine, policy, pages, now=0.0):
    batch = AccessBatch(page_ids=np.asarray(pages), num_ops=1.0, cpu_ns=0.0)
    return policy.on_batch(batch, now, tier_counts(machine, batch))


class TestMetadata:
    def test_total_metadata_covers_whole_footprint(self):
        machine, policy = make_setup()
        expected = machine.config.total_capacity_pages * HEMEM_BYTES_PER_PAGE
        assert policy.stats.metadata_bytes == expected

    def test_hot_metadata_reserved_in_local(self):
        machine, __ = make_setup(local=1024)
        expected_pages = -(-1024 * HEMEM_BYTES_PER_PAGE // PAGE_SIZE)
        assert machine.reserved_local_pages == expected_pages

    def test_metadata_is_110x_freqtier_scale(self):
        """Paper Section VII-C: HeMem uses ~110x FreqTier's memory."""
        from repro.cbf.sizing import cbf_bytes_for_fpr

        footprint_pages = 267 * (1 << 30) // PAGE_SIZE
        local_pages = 16 * (1 << 30) // PAGE_SIZE
        hemem_bytes = footprint_pages * HEMEM_BYTES_PER_PAGE
        freqtier_bytes = cbf_bytes_for_fpr(local_pages, 1e-3, 3) + 16 * (1 << 20)
        assert 40 < hemem_bytes / freqtier_bytes < 300


class TestBehaviour:
    def test_tracks_exact_frequencies(self):
        machine, policy = make_setup()
        hot = np.arange(1000, 1010)
        for i in range(10):
            drive(machine, policy, np.tile(hot, 100), now=float(i))
        assert policy.tracker.num_entries > 0

    def test_promotes_hot_pages(self):
        machine, policy = make_setup()
        hot = np.arange(1000, 1040)
        for i in range(30):
            drive(machine, policy, np.tile(hot, 30), now=float(i))
        placement = machine.placement_of(hot)
        assert np.count_nonzero(placement == LOCAL_TIER) > 10

    def test_demotes_by_exact_coldness(self):
        machine, policy = make_setup(local=64, footprint=1024)
        hot_local = np.arange(0, 20)
        hot_cxl = np.arange(500, 540)
        for i in range(30):
            drive(
                machine,
                policy,
                np.concatenate([np.tile(hot_local, 30), np.tile(hot_cxl, 30)]),
                now=float(i),
            )
        # Accessed local pages survive; never-accessed ones go first.
        placement_hot = machine.placement_of(hot_local)
        assert np.count_nonzero(placement_hot == LOCAL_TIER) >= 15

    def test_overhead_grows_with_samples(self):
        machine, policy = make_setup(table_update_ns=500.0)
        drive(machine, policy, np.arange(0, 2000))
        assert policy.stats.overhead_ns > 0

    def test_no_adaptive_intensity(self):
        """HeMem samples at full rate forever (vs FreqTier's ladder)."""
        machine, policy = make_setup()
        stable = np.arange(0, 50)
        for i in range(50):
            drive(machine, policy, np.tile(stable, 20), now=float(i))
        from repro.sampling.pebs import SamplingLevel

        assert policy.pebs.level == SamplingLevel.HIGH

    def test_validation(self):
        with pytest.raises(ValueError):
            HeMem(hot_threshold=0)
