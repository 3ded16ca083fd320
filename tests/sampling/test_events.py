"""Tests for sampling event types."""

import numpy as np
import pytest

from repro.sampling.events import AccessBatch, SampleBatch


class TestAccessBatch:
    def test_basic(self):
        b = AccessBatch(page_ids=np.array([1, 2, 3]), num_ops=2.0, cpu_ns=10.0)
        assert b.num_accesses == 3
        assert b.bytes_per_access == 64.0

    def test_coerces_dtype(self):
        b = AccessBatch(page_ids=[1, 2], num_ops=1.0, cpu_ns=0.0)
        assert b.page_ids.dtype == np.int64

    def test_explicit_batch_is_head_only(self):
        ids = np.array([4, 1, 4, 9], dtype=np.int32)
        b = AccessBatch(page_ids=ids, num_ops=1.0, cpu_ns=0.0)
        # Stored as a compressed batch without runs, without copies.
        assert b.head_page_ids is ids
        assert b.page_ids is ids
        assert b.run_starts.size == 0 and b.run_counts.size == 0
        np.testing.assert_array_equal(b.pages_at(np.array([1, 3])), [1, 9])
        np.testing.assert_array_equal(b.strided_pages(2), [4, 4])

    def test_validation(self):
        with pytest.raises(ValueError):
            AccessBatch(page_ids=np.array([1]), num_ops=-1.0, cpu_ns=0.0)
        with pytest.raises(ValueError):
            AccessBatch(page_ids=np.array([1]), num_ops=1.0, cpu_ns=-1.0)
        with pytest.raises(ValueError):
            AccessBatch(
                page_ids=np.array([1]), num_ops=1.0, cpu_ns=0.0, bytes_per_access=0
            )


class TestCompressedAccessBatch:
    @staticmethod
    def _batch(head, starts, counts):
        return AccessBatch(
            page_ids=None,
            num_ops=1.0,
            cpu_ns=0.0,
            head_page_ids=np.asarray(head, dtype=np.int64),
            run_starts=np.asarray(starts, dtype=np.int64),
            run_counts=np.asarray(counts, dtype=np.int64),
        )

    def test_empty_batch(self):
        b = self._batch([], [], [])
        assert b.num_accesses == 0
        assert b.page_ids.size == 0
        assert b.pages_at(np.empty(0, dtype=np.int64)).size == 0
        assert b.strided_pages(7).size == 0

    def test_single_run_batch(self):
        b = self._batch([], [10], [4])
        assert b.num_accesses == 4
        np.testing.assert_array_equal(
            b.pages_at(np.array([0, 3])), [10, 13]
        )
        np.testing.assert_array_equal(b.strided_pages(2), [10, 12])
        np.testing.assert_array_equal(b.page_ids, [10, 11, 12, 13])

    def test_run_spanning_final_access(self):
        """The last position falls inside the last run, not the head."""
        b = self._batch([5], [20, 30], [2, 3])
        assert b.num_accesses == 6
        assert b.pages_at(np.array([b.num_accesses - 1]))[0] == 32
        np.testing.assert_array_equal(b.strided_pages(5), [5, 32])

    def test_pages_at_out_of_range_raises(self):
        b = self._batch([5], [20], [2])
        with pytest.raises(IndexError):
            b.pages_at(np.array([3]))
        with pytest.raises(IndexError):
            b.pages_at(np.array([-1]))

    def test_pages_at_matches_expansion(self):
        b = self._batch([7, 2], [100, 50], [3, 2])
        positions = np.arange(b.num_accesses)
        np.testing.assert_array_equal(
            b.pages_at(positions), b.page_ids[positions]
        )

    def test_release_expanded_recomputes_identically(self):
        b = self._batch([7], [100], [3])
        first = b.page_ids.copy()
        b.release_expanded()
        assert b._page_ids is None
        np.testing.assert_array_equal(b.page_ids, first)

    def test_release_expanded_noop_on_explicit_batch(self):
        b = AccessBatch(page_ids=np.array([1, 2]), num_ops=1.0, cpu_ns=0.0)
        b.release_expanded()
        np.testing.assert_array_equal(b.page_ids, [1, 2])


class TestSampleBatch:
    def test_empty(self):
        b = SampleBatch.empty()
        assert b.num_samples == 0
        assert b.lost == 0
