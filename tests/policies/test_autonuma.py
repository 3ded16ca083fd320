"""Tests for the AutoNUMA baseline."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.autonuma import AutoNUMA
from repro.sampling.events import AccessBatch

from tests.conftest import tier_counts


def make_setup(local=128, cxl=4096, footprint=2048, **kwargs):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    policy = AutoNUMA(
        scan_period_accesses=kwargs.pop("scan_period_accesses", 500),
        **kwargs,
    )
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy


def drive(machine, policy, pages, now=0.0):
    batch = AccessBatch(page_ids=np.asarray(pages), num_ops=1.0, cpu_ns=0.0)
    return policy.on_batch(batch, now, tier_counts(machine, batch))


class TestScanning:
    def test_scanner_sized_from_machine(self):
        machine, policy = make_setup()
        assert policy.scanner.total_pages == machine.config.total_capacity_pages

    def test_scan_ticks_follow_access_volume(self):
        machine, policy = make_setup()
        drive(machine, policy, np.arange(0, 1000))
        assert policy.scanner.windows_scanned == 2  # 1000 / 500

    def test_window_fraction_validated(self):
        with pytest.raises(ValueError):
            AutoNUMA(window_fraction=0.0)


class TestPromotion:
    def test_promotes_refaulted_cxl_pages(self):
        machine, policy = make_setup(window_fraction=0.5)
        hot_cxl = np.arange(1000, 1050)
        for i in range(30):
            drive(machine, policy, np.tile(hot_cxl, 20), now=float(i * 1000))
        assert policy.stats.promotions > 0
        placement = machine.placement_of(hot_cxl)
        assert np.count_nonzero(placement == LOCAL_TIER) > 0

    def test_hot_threshold_gates_promotion(self):
        machine, policy = make_setup(
            window_fraction=0.5, initial_hot_threshold_ns=1e-9
        )
        # With an (effectively) zero threshold no fault qualifies.
        # (Start at now > 0 so a first-batch fault has nonzero latency.)
        hot_cxl = np.arange(1000, 1050)
        for i in range(10):
            drive(machine, policy, np.tile(hot_cxl, 20), now=float((i + 1) * 1000))
        assert policy.stats.promotions == 0

    def test_rate_limit_is_hard_cap(self):
        machine, policy = make_setup(
            window_fraction=1.0,
            rate_limit_pages_per_window=10,
            rate_window_accesses=10_000_000,  # never resets in test
        )
        wide = np.arange(1000, 2000)
        for i in range(20):
            drive(machine, policy, np.tile(wide, 2), now=float(i * 1000))
        assert policy.stats.promotions <= 10


class TestThresholdAdaptation:
    def test_threshold_tightens_when_over_limit(self):
        machine, policy = make_setup(
            window_fraction=1.0,
            rate_limit_pages_per_window=5,
            rate_window_accesses=2_000,
        )
        before = policy.hot_threshold_ns
        wide = np.arange(1000, 2000)
        for i in range(10):
            drive(machine, policy, np.tile(wide, 2), now=float(i * 1000))
        assert policy.hot_threshold_ns < before

    def test_threshold_loosens_when_idle(self):
        machine, policy = make_setup(rate_window_accesses=1_000)
        before = policy.hot_threshold_ns
        quiet = np.arange(0, 50)  # local-only, no faults promoted
        for i in range(30):
            drive(machine, policy, np.tile(quiet, 40), now=float(i * 1000))
        assert policy.hot_threshold_ns > before


class TestDemotion:
    def test_untouched_pages_demoted_first(self):
        machine, policy = make_setup(local=64, footprint=1024, window_fraction=0.5)
        # Keep pages 0-31 warm; 32-63 never touched; 500-550 hot on CXL.
        warm = np.arange(0, 32)
        hot_cxl = np.arange(500, 550)
        for i in range(30):
            drive(
                machine,
                policy,
                np.concatenate([np.tile(warm, 20), np.tile(hot_cxl, 20)]),
                now=float(i * 1000),
            )
        if policy.stats.demotions:
            placement_untouched = machine.placement_of(np.arange(32, 64))
            placement_warm = machine.placement_of(warm)
            demoted_untouched = np.count_nonzero(placement_untouched == CXL_TIER)
            demoted_warm = np.count_nonzero(placement_warm == CXL_TIER)
            assert demoted_untouched >= demoted_warm

    def test_mglru_generations_age(self):
        machine, policy = make_setup(rate_window_accesses=500)
        seen = np.arange(0, 50)
        for i in range(5):
            drive(machine, policy, np.tile(seen, 20), now=float(i))
        assert policy._generation[seen].max() > 0
        # Stop touching them: generations decay.
        for i in range(8):
            drive(machine, policy, np.tile(np.arange(60, 100), 25), now=float(i))
        assert policy._generation[seen].max() < policy.MAX_GENERATION
