"""Shared fixtures for the test suite."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import LOCAL_TIER
from repro.memsim.tier import CXL1_CONFIG

_REPO_ROOT = Path(__file__).resolve().parent.parent


def tier_counts(machine: Machine, batch) -> tuple[int, int]:
    """``(n_local, n_cxl)`` of ``batch`` under ``machine``'s current
    placement: the split the engine hands ``TieringPolicy.on_batch``."""
    tiers = machine.placement_of(batch.page_ids)
    n_local = int(np.count_nonzero(tiers == LOCAL_TIER))
    return n_local, batch.num_accesses - n_local


def _is_pycache_only(directory: Path) -> bool:
    """True when ``directory`` holds nothing but a __pycache__ dir.

    A package directory whose sources were removed (e.g. by a branch
    switch) can leave behind orphaned ``.pyc`` files that python is
    happy to import -- the tests would then exercise deleted code.
    """
    children = list(directory.iterdir())
    return (
        len(children) == 1
        and children[0].name == "__pycache__"
        and children[0].is_dir()
    )


@pytest.fixture(scope="session", autouse=True)
def _purge_stale_pycache_dirs():
    """Delete package dirs that contain only a stale __pycache__."""
    for root in (_REPO_ROOT / "src" / "repro", _REPO_ROOT / "tests"):
        if not root.is_dir():
            continue
        for cache in root.rglob("__pycache__"):
            parent = cache.parent
            if parent != root and _is_pycache_only(parent):
                shutil.rmtree(parent, ignore_errors=True)
    yield


@pytest.fixture
def small_machine() -> Machine:
    """A machine with 256 local pages and 8192 CXL pages (1:32)."""
    return Machine(
        MachineConfig(local_capacity_pages=256, cxl_capacity_pages=8192)
    )


@pytest.fixture
def tiny_machine() -> Machine:
    """A machine small enough to reason about by hand."""
    return Machine(MachineConfig(local_capacity_pages=8, cxl_capacity_pages=64))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def cxl1_machine_factory():
    """Factory building CXL-1 machines of arbitrary capacities."""

    def build(local: int, cxl: int) -> Machine:
        return Machine(
            MachineConfig(
                local_capacity_pages=local,
                cxl_capacity_pages=cxl,
                memory=CXL1_CONFIG,
            )
        )

    return build
