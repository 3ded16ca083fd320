"""GAP trace emission: program-order batches over unchanged kernels.

Batches list their accesses in program order (no per-batch shuffle),
the backward Brandes pass reuses the forward CSR gathers, and frontier
deduplication uses a reusable mask.  None of that may change what a
kernel computes or which pages a batch touches, so for a forced source
each batch's *sorted* page multiset and each kernel's outputs are
pinned to digests of the shuffling generator these paths replaced.
"""

import hashlib

import numpy as np
import pytest
from scipy import stats

from repro._units import PAGE_SIZE
from repro.memsim.machine import Machine, MachineConfig
from repro.sampling.pebs import PEBSSampler, SamplingLevel
from repro.workloads.gap import (
    LINE,
    GapWorkload,
    _Array,
    _dedup_sorted,
    _expand_ranges,
)

#: (kernel, scale, source) -> (batches, sorted-page digest, output
#: digest) over two trials at seed 5, recorded from the shuffling
#: generator.  "hub" forces the highest-degree node as the source,
#: "leaf" the first degree-1 node; CC and PageRank take no source.
GOLDEN = {
    ("bfs", 10, "hub"): (8, "ef96dc8316076e48", "2892bc5337b9b0a6"),
    ("bfs", 10, "leaf"): (12, "bc27047a62b8a08a", "fe5d7d52cd02a628"),
    ("bc", 10, "hub"): (14, "6bb2a73f3bb11f46", "6151753a7b87744c"),
    ("bc", 10, "leaf"): (22, "5edfaf7183e4613d", "0ebaa9f777e6ec18"),
    ("bc", 9, "hub"): (18, "e8834c38a3cc971f", "b4ad6636abe456c1"),
    ("cc", 10, None): (6, "166af977c5c63cb2", "9f65a5a0089017b4"),
    ("pr", 9, None): (20, "cf049c45e886ef56", "5acfa99ebc0c2c84"),
}


def _forced(kernel, scale, which, seed=5, trials=2):
    workload = GapWorkload(kernel, scale=scale, num_trials=trials, seed=seed)
    degrees = np.diff(workload.graph.indptr)
    if which == "hub":
        source = int(np.argmax(degrees))
    else:
        source = int(np.flatnonzero(degrees == 1)[0])
    workload._pick_source = lambda: source
    pages = workload.footprint_pages
    workload.setup(
        Machine(MachineConfig(local_capacity_pages=pages, cxl_capacity_pages=pages))
    )
    return workload


def _digests(workload):
    pages = hashlib.sha256()
    count = 0
    for batch in workload.batches():
        count += 1
        pages.update(np.sort(batch.page_ids).astype("<i8").tobytes())
        pages.update(b"|")
    outputs = hashlib.sha256()
    for key in sorted(workload.last_kernel_state):
        value = workload.last_kernel_state[key]
        outputs.update(key.encode())
        outputs.update(value.astype(value.dtype.newbyteorder("<")).tobytes())
    return count, pages.hexdigest()[:16], outputs.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
def test_page_multisets_and_outputs_match_golden(case):
    count, pages, outputs = _digests(_forced(*case))
    want_count, want_pages, want_outputs = GOLDEN[case]
    assert count == want_count
    assert pages == want_pages, "a batch's page multiset changed"
    assert outputs == want_outputs, "kernel outputs changed"


def test_emission_draws_no_randomness():
    """The RNG only picks sources: a trial leaves it where the pick did."""
    traced = GapWorkload("bc", scale=9, num_trials=3, seed=2)
    traced.setup(
        Machine(MachineConfig(local_capacity_pages=4096, cxl_capacity_pages=64))
    )
    picked = []
    pick = traced._pick_source

    def recording_pick():
        picked.append(pick())
        return picked[-1]

    traced._pick_source = recording_pick
    for __ in traced.batches():
        pass
    fresh = GapWorkload("bc", scale=9, num_trials=3, seed=2)
    assert picked == [fresh._pick_source() for __ in range(3)]
    assert traced.state_dict()["rng"] == fresh.state_dict()["rng"]


def test_batches_are_in_program_order():
    """A BC trial opens with the source's indptr line and its CSR slice."""
    workload = _forced("bc", 9, "hub", trials=1)
    source = int(np.argmax(np.diff(workload.graph.indptr)))
    first = next(iter(workload.batches()))
    indptr, indices = workload._indptr_arr, workload._indices_arr
    assert first.page_ids[0] == indptr.pages_of_elements([source])[0]
    start, end = workload.graph.indptr[source : source + 2]
    slice_pages = indices.pages_of_ranges([start], [end - start])
    assert np.array_equal(first.page_ids[1 : 1 + slice_pages.size], slice_pages)


class TestDedupSorted:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_equals_unique(self, dtype):
        rng = np.random.default_rng(0)
        mask = np.zeros(1000, dtype=bool)
        for size in (1, 7, 500, 5000):
            ids = rng.integers(0, 1000, size=size).astype(dtype)
            out = _dedup_sorted(ids, mask)
            assert np.array_equal(out, np.unique(ids))
            assert out.dtype == np.int64
            assert not mask.any(), "the mask must be left clear for reuse"

    def test_empty_input(self):
        mask = np.zeros(16, dtype=bool)
        out = _dedup_sorted(np.zeros(0, dtype=np.int64), mask)
        assert out.size == 0 and out.dtype == np.int64
        assert np.array_equal(out, np.unique(np.zeros(0, dtype=np.int64)))


class TestPageMapping:
    @pytest.mark.parametrize("elem_bytes", [4, 8])
    def test_shift_matches_line_then_page_division(self, elem_bytes):
        arr = _Array(elem_bytes, 1 << 20)
        arr.start_page = 37
        elems = np.random.default_rng(1).integers(0, 1 << 20, size=10_000)
        lines = (elems * elem_bytes) // LINE
        want = arr.start_page + (lines * LINE) // PAGE_SIZE
        assert np.array_equal(arr.pages_of_elements(elems), want)
        assert np.array_equal(arr.pages_of_elements(elems.astype(np.int32)), want)

    def test_rejects_non_power_of_two_elements(self):
        with pytest.raises(ValueError):
            _Array(12, 10)

    def test_expand_ranges_matches_aranges(self):
        starts = np.array([5, 0, 40, 9, 3], dtype=np.int64)
        counts = np.array([3, 0, 1, 4, 0], dtype=np.int64)
        want = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        )
        assert np.array_equal(_expand_ranges(starts, counts), want)
        empty = np.zeros(0, dtype=np.int64)
        assert _expand_ranges(empty, empty).size == 0


def _array_ranges(workload):
    return {
        name: (arr.start_page, arr.start_page + arr.num_pages)
        for name, arr in (
            ("indptr", workload._indptr_arr),
            ("indices", workload._indices_arr),
            ("prop32", workload._prop32),
            ("prop64_a", workload._prop64_a),
            ("prop64_b", workload._prop64_b),
        )
    }


@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_pebs_per_array_sample_rates_on_program_order_batch(phase):
    """Program order lays each array out as one contiguous block of the
    batch; i.i.d. position sampling must still hit every array at its
    offered share (chi-squared on per-array counts vs offered x p)."""
    workload = _forced("bc", 12, "hub", trials=1)
    batches = list(workload.batches())
    depth = (len(batches) + 1) // 2  # forward batches come first
    pool = batches[:depth] if phase == "forward" else batches[depth:]
    batch = max(pool, key=lambda b: b.num_accesses)
    ranges = _array_ranges(workload)
    sampler = PEBSSampler(base_period=64, ring_capacity=1 << 30, seed=11)
    sampler.set_level(SamplingLevel.HIGH)
    reps = 200
    observed = dict.fromkeys(ranges, 0)
    for __ in range(reps):
        sampler.observe(batch)
        sampled = sampler.drain().page_ids
        for name, (lo, hi) in ranges.items():
            observed[name] += int(np.count_nonzero((sampled >= lo) & (sampled < hi)))
    p = sampler.sampling_probability
    chi2, dof = 0.0, 0
    for name, (lo, hi) in ranges.items():
        offered = int(np.count_nonzero((batch.page_ids >= lo) & (batch.page_ids < hi)))
        if offered == 0:
            assert observed[name] == 0
            continue
        expected = offered * reps * p
        chi2 += (observed[name] - expected) ** 2 / expected
        dof += 1
    assert dof >= 3, "the batch should touch several arrays"
    # Counts are unconditioned Poisson-like draws: chi2 with one degree
    # of freedom per array.
    assert chi2 < stats.chi2.ppf(0.999, dof), f"chi2={chi2:.1f} over {dof} arrays"
