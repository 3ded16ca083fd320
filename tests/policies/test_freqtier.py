"""Tests for the FreqTier policy (promotion, demotion, integration)."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.freqtier import FreqTier, FreqTierConfig
from repro.policies.freqtier.intensity import TieringState
from repro.sampling.events import AccessBatch
from repro.workloads.trace import SyntheticZipfWorkload

from tests.conftest import tier_counts


def make_setup(local=128, cxl=4096, footprint=2048, **cfg_kwargs):
    """Machine + attached FreqTier + allocated flat region."""
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    config = FreqTierConfig(
        sample_batch_size=cfg_kwargs.pop("sample_batch_size", 500),
        pebs_base_period=cfg_kwargs.pop("pebs_base_period", 4),
        window_accesses=cfg_kwargs.pop("window_accesses", 100_000),
        **cfg_kwargs,
    )
    policy = FreqTier(config=config, seed=1)
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy


def drive(machine, policy, pages: np.ndarray, now: float = 0.0) -> float:
    batch = AccessBatch(page_ids=pages, num_ops=1.0, cpu_ns=0.0)
    return policy.on_batch(batch, now, tier_counts(machine, batch))


class TestAttach:
    def test_cbf_sized_from_local_capacity(self):
        __, policy = make_setup(local=256)
        assert policy.cbf is not None
        # Sized for >= 256 keys at 1e-3 FPR.
        assert policy.cbf.num_counters >= 256 * 10

    def test_explicit_cbf_size_respected(self):
        __, policy = make_setup(cbf_num_counters=2048)
        assert policy.cbf.num_counters >= 2048  # blocked rounds up

    def test_blocked_by_default(self):
        __, policy = make_setup()
        assert policy.cbf.counters_per_block == 128

    def test_classic_cbf_optional(self):
        __, policy = make_setup(blocked_cbf=False)
        assert not hasattr(policy.cbf, "counters_per_block")

    def test_metadata_accounted(self):
        __, policy = make_setup()
        assert policy.stats.metadata_bytes > policy.cbf.nbytes

    def test_use_before_attach_raises(self):
        policy = FreqTier()
        with pytest.raises(RuntimeError):
            policy.machine


class TestPromotion:
    def test_hot_cxl_pages_get_promoted(self):
        machine, policy = make_setup()
        # Pages 1000-1019 live on CXL (local holds 0-127).
        hot = np.arange(1000, 1020)
        for i in range(40):
            drive(machine, policy, np.tile(hot, 50), now=float(i))
        placement = machine.placement_of(hot)
        assert np.count_nonzero(placement == LOCAL_TIER) >= 15
        assert policy.stats.promotions > 0

    def test_cold_pages_not_promoted(self):
        machine, policy = make_setup()
        rng = np.random.default_rng(0)
        # Uniform accesses over a wide range: nothing crosses threshold
        # fast, promotions stay far below the touched-page count.
        for i in range(10):
            drive(machine, policy, rng.integers(128, 2048, 500), now=float(i))
        assert policy.stats.promotions < 200

    def test_promotion_batched_through_one_syscall(self):
        machine, policy = make_setup()
        hot = np.arange(1000, 1050)
        for i in range(40):
            drive(machine, policy, np.tile(hot, 20), now=float(i))
        # Far fewer syscalls than promoted pages.
        assert policy.stats.promotion_calls < max(policy.stats.promotions, 1)


class TestDemotion:
    def test_demotes_cold_local_pages_to_make_room(self):
        machine, policy = make_setup(local=64, footprint=1024)
        # Local pages 0-63 are never accessed; CXL pages 500-540 are hot.
        hot = np.arange(500, 540)
        for i in range(40):
            drive(machine, policy, np.tile(hot, 25), now=float(i))
        assert policy.stats.demotions > 0
        placement = machine.placement_of(np.arange(0, 64))
        assert np.count_nonzero(placement == CXL_TIER) > 0

    def test_hot_local_pages_survive_demotion(self):
        machine, policy = make_setup(local=64, footprint=1024)
        hot_local = np.arange(0, 32)  # resident and hot
        hot_cxl = np.arange(500, 532)  # should displace pages 32-63
        mix = np.concatenate([np.tile(hot_local, 20), np.tile(hot_cxl, 20)])
        for i in range(40):
            drive(machine, policy, mix, now=float(i))
        placement = machine.placement_of(hot_local)
        assert np.count_nonzero(placement == LOCAL_TIER) >= 24

    def test_scan_cursor_persists(self):
        machine, policy = make_setup(local=64, footprint=1024)
        hot = np.arange(500, 540)
        for i in range(20):
            drive(machine, policy, np.tile(hot, 25), now=float(i))
        assert policy._scan_cursor != 0  # scan made progress and saved it


class TestIntensityIntegration:
    def test_windows_advance_and_can_reach_monitoring(self):
        machine, policy = make_setup(window_accesses=2_000)
        stable = np.arange(0, 50)  # all local, fully stable
        for i in range(40):
            drive(machine, policy, np.tile(stable, 20), now=float(i))
        # Stable hit ratio + no promotions: must leave HIGH sampling.
        assert policy.state == TieringState.MONITORING

    def test_overhead_reported(self):
        machine, policy = make_setup()
        overhead = drive(machine, policy, np.arange(0, 100))
        assert overhead >= 0.0
        assert policy.stats.overhead_ns == pytest.approx(overhead)


class TestEndToEndOnZipf:
    def test_beats_static_placement_hit_ratio(self):
        workload = SyntheticZipfWorkload(
            num_pages=4096, alpha=1.3, accesses_per_batch=20_000, seed=3
        )
        machine = Machine(
            MachineConfig(local_capacity_pages=256, cxl_capacity_pages=8192)
        )
        config = FreqTierConfig(
            sample_batch_size=2_000, pebs_base_period=8, window_accesses=200_000
        )
        policy = FreqTier(config=config, seed=3)
        policy.attach(machine)
        workload.setup(machine)
        static_hit = 256 / 4096  # uniform spread would be ~6%; Zipf
        # permuted hot pages make static placement ~footprint share.
        gen = iter(workload.batches())
        for i in range(60):
            batch = next(gen)
            counts = tier_counts(machine, batch)
            machine.traffic.record_accesses(*counts)
            policy.on_batch(batch, float(i), counts)
        assert machine.traffic.local_hit_ratio > 0.5  # >> static share

    def test_hot_threshold_exposed(self):
        __, policy = make_setup()
        assert policy.hot_threshold >= 1
