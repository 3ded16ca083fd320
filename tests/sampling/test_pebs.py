"""Tests for the PEBS sampler model."""

import numpy as np
import pytest

from repro.sampling.events import AccessBatch
from repro.sampling.pebs import PEBSSampler, SamplingLevel


def make_batch(n: int) -> AccessBatch:
    return AccessBatch(page_ids=np.arange(n), num_ops=1.0, cpu_ns=0.0)


class TestLevels:
    def test_period_ladder_is_decades(self):
        s = PEBSSampler(base_period=64)
        s.set_level(SamplingLevel.HIGH)
        assert s.period == 64
        s.set_level(SamplingLevel.MEDIUM)
        assert s.period == 640
        s.set_level(SamplingLevel.LOW)
        assert s.period == 6400

    def test_off_level(self):
        s = PEBSSampler()
        s.set_level(SamplingLevel.OFF)
        assert s.period is None
        assert s.sampling_probability == 0.0
        s.observe(make_batch(1000))
        assert s.pending_samples == 0

    def test_nominal_hz_labels(self):
        assert SamplingLevel.HIGH.nominal_hz == 100_000
        assert SamplingLevel.MEDIUM.nominal_hz == 10_000
        assert SamplingLevel.LOW.nominal_hz == 1_000
        assert SamplingLevel.OFF.nominal_hz == 0


class TestSampling:
    def test_rate_approximates_period(self):
        s = PEBSSampler(base_period=10, seed=0)
        s.observe(make_batch(100_000))
        assert s.pending_samples == pytest.approx(10_000, rel=0.1)

    def test_lower_level_samples_less(self):
        high = PEBSSampler(base_period=10, seed=0)
        low = PEBSSampler(base_period=10, seed=0)
        low.set_level(SamplingLevel.LOW)
        batch = make_batch(100_000)
        high.observe(batch)
        low.observe(batch)
        assert low.pending_samples < high.pending_samples / 20

    def test_sampled_pages_come_from_batch(self):
        s = PEBSSampler(base_period=4, seed=2)
        pages = np.arange(100, 200)
        s.observe(AccessBatch(page_ids=pages, num_ops=1.0, cpu_ns=0.0))
        out = s.drain()
        assert np.all((out.page_ids >= 100) & (out.page_ids < 200))

    def test_deterministic_with_seed(self):
        a = PEBSSampler(base_period=8, seed=3)
        b = PEBSSampler(base_period=8, seed=3)
        batch = make_batch(10_000)
        a.observe(batch)
        b.observe(batch)
        assert np.array_equal(a.drain().page_ids, b.drain().page_ids)


class TestRingBuffer:
    def test_overflow_drops_and_counts(self):
        s = PEBSSampler(base_period=1, ring_capacity=100, seed=0)
        s.observe(make_batch(500))
        assert s.pending_samples == 100
        out = s.drain()
        assert out.num_samples == 100
        assert out.lost == 400
        assert s.total_lost == 400

    def test_drain_resets(self):
        s = PEBSSampler(base_period=1, seed=0)
        s.observe(make_batch(10))
        s.drain()
        assert s.pending_samples == 0
        out = s.drain()
        assert out.num_samples == 0
        assert out.lost == 0

    def test_lost_counter_clears_after_drain(self):
        s = PEBSSampler(base_period=1, ring_capacity=5, seed=0)
        s.observe(make_batch(10))
        assert s.drain().lost == 5
        s.observe(make_batch(3))
        assert s.drain().lost == 0


class TestSkipSamplingStatistics:
    """Distributional guarantees of the O(samples) skip sampler.

    Skip sampling is statistically equivalent to Bernoulli thinning --
    per-batch sample counts follow Binomial(n, 1/period) and sampled
    positions are uniform -- while drawing O(samples) RNG values
    instead of one per offered access.
    """

    def _collect_counts(self, sampler, batch, reps):
        counts = []
        for _ in range(reps):
            before = sampler.total_samples
            sampler.observe(batch)
            counts.append(sampler.total_samples - before)
            sampler.drain()
        return np.array(counts)

    def test_sample_count_follows_binomial_law(self):
        n, reps = 50_000, 2_000
        s = PEBSSampler(base_period=64, seed=42)
        s.set_level(SamplingLevel.MEDIUM)  # period 640
        batch = make_batch(n)
        counts = self._collect_counts(s, batch, reps)
        p = 1.0 / 640
        mean_exp = n * p
        var_exp = n * p * (1 - p)
        # Mean within 5 sigma of the binomial mean (fixed seed: stable).
        assert abs(counts.mean() - mean_exp) < 5 * np.sqrt(var_exp / reps)
        # Variance within 20% of the binomial variance.
        assert 0.8 * var_exp < counts.var() < 1.2 * var_exp

    def test_sampled_positions_uniform_chi_squared(self):
        n, bins = 50_000, 10
        s = PEBSSampler(base_period=64, seed=7)
        s.set_level(SamplingLevel.MEDIUM)
        ids = np.arange(n)
        hist = np.zeros(bins)
        for _ in range(400):
            s.observe(AccessBatch(page_ids=ids, num_ops=1.0, cpu_ns=0.0))
            out = s.drain()
            hist += np.bincount(out.page_ids // (n // bins), minlength=bins)[:bins]
        expected = hist.sum() / bins
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        # 9 degrees of freedom; 99.9th percentile is 27.9.
        assert chi2 < 27.9, f"positions not uniform: chi2={chi2:.1f}"

    def test_rng_work_is_o_samples(self):
        """The point of skip sampling: RNG draws track samples, not accesses."""
        n = 100_000
        batch = make_batch(n)
        for level, min_reduction in [
            (SamplingLevel.MEDIUM, 100.0),
            (SamplingLevel.LOW, 1_000.0),
        ]:
            s = PEBSSampler(base_period=64, seed=0)
            s.set_level(level)
            for _ in range(20):
                s.observe(batch)
                s.drain()
            reduction = s.total_offered / max(s.rng_values_drawn, 1)
            assert reduction > min_reduction, (level, reduction)

    def test_gap_carry_spans_batches(self):
        """Batch boundaries are invisible: tiny batches at LOW level
        still sample at the nominal long-run rate."""
        s = PEBSSampler(base_period=64, seed=5)
        s.set_level(SamplingLevel.LOW)  # period 6400 >> batch size
        batch = make_batch(1_000)
        for _ in range(3_000):  # 3M accesses -> ~469 samples expected
            s.observe(batch)
        expected = 3_000_000 / 6400
        assert s.total_samples == pytest.approx(expected, rel=0.25)

    def test_level_change_redraws_gap(self):
        """A level change mid-stream adopts the new rate immediately."""
        s = PEBSSampler(base_period=64, seed=9)
        s.set_level(SamplingLevel.LOW)
        batch = make_batch(10_000)
        s.observe(batch)
        s.set_level(SamplingLevel.HIGH)
        before = s.total_samples
        for _ in range(20):
            s.observe(batch)
        got = s.total_samples - before
        assert got == pytest.approx(200_000 / 64, rel=0.2)

    def test_overflow_accounting_with_skip_period(self):
        """Ring overflow at period > 1 still counts every lost sample."""
        s = PEBSSampler(base_period=4, ring_capacity=50, seed=0)
        s.observe(make_batch(10_000))
        assert s.pending_samples == 50
        out = s.drain()
        assert out.num_samples == 50
        assert out.lost > 0
        assert out.lost == s.total_lost
        # ~2500 hits at period 4; everything beyond the ring is lost.
        assert out.lost == pytest.approx(2_450, rel=0.1)

    def test_off_then_on_resumes_cleanly(self):
        s = PEBSSampler(base_period=8, seed=1)
        s.set_level(SamplingLevel.OFF)
        s.observe(make_batch(1_000))
        assert s.pending_samples == 0
        s.set_level(SamplingLevel.HIGH)
        s.observe(make_batch(10_000))
        assert s.pending_samples == pytest.approx(1_250, rel=0.3)


class TestOverhead:
    def test_overhead_linear_in_samples(self):
        s = PEBSSampler(sample_cost_ns=100.0)
        assert s.overhead_ns(50) == 5_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PEBSSampler(base_period=0)
        with pytest.raises(ValueError):
            PEBSSampler(ring_capacity=0)
