"""Tests for AllLocal, StaticNoMigration and MULTI-CLOCK."""

import numpy as np

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import LOCAL_TIER
from repro.policies.alllocal import AllLocal
from repro.policies.multiclock import MultiClock
from repro.policies.static_policy import StaticNoMigration
from repro.sampling.events import AccessBatch

from tests.conftest import tier_counts


def drive(machine, policy, pages, now=0.0):
    batch = AccessBatch(page_ids=np.asarray(pages), num_ops=1.0, cpu_ns=0.0)
    return policy.on_batch(batch, now, tier_counts(machine, batch))


class TestNoOpPolicies:
    def test_all_local_never_migrates(self):
        machine = Machine(
            MachineConfig(local_capacity_pages=1000, cxl_capacity_pages=64)
        )
        policy = AllLocal()
        policy.attach(machine)
        machine.allocate(500)
        assert drive(machine, policy, np.arange(0, 500)) == 0.0
        assert machine.traffic.pages_migrated == 0
        machine.service_accesses(np.arange(0, 500))
        assert machine.traffic.local_hit_ratio == 1.0

    def test_static_keeps_default_placement(self):
        machine = Machine(
            MachineConfig(local_capacity_pages=100, cxl_capacity_pages=1000)
        )
        policy = StaticNoMigration()
        policy.attach(machine)
        machine.allocate(500)
        for i in range(5):
            drive(machine, policy, np.arange(0, 500), now=float(i))
        assert machine.traffic.pages_migrated == 0
        assert machine.local_used_pages == 100


class TestMultiClock:
    def make_setup(self, local=128, footprint=2048):
        machine = Machine(
            MachineConfig(local_capacity_pages=local, cxl_capacity_pages=4096)
        )
        policy = MultiClock(sample_batch_size=200, pebs_base_period=4)
        policy.attach(machine)
        machine.allocate(footprint)
        return machine, policy

    def test_promotes_multi_access_pages(self):
        machine, policy = self.make_setup()
        hot = np.arange(1000, 1040)
        for i in range(20):
            drive(machine, policy, np.tile(hot, 30), now=float(i))
        placement = machine.placement_of(hot)
        assert np.count_nonzero(placement == LOCAL_TIER) > 0

    def test_single_access_pages_not_promoted(self):
        machine, policy = self.make_setup()
        # Each page seen at most once between sweeps.
        for i in range(10):
            drive(machine, policy, np.arange(1000 + i * 100, 1100 + i * 100), float(i))
        assert policy.stats.promotions < 10

    def test_sweep_resets_classification(self):
        machine, policy = self.make_setup()
        policy.sweep_interval_samples = 100
        hot = np.arange(1000, 1020)
        for i in range(10):
            drive(machine, policy, np.tile(hot, 50), now=float(i))
        # After enough samples, sweeps must have zeroed states at least once.
        assert policy._seen.max() <= 2
