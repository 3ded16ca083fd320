"""Tests for metrics reduction."""

import json

import numpy as np
import pytest

from repro.core.metrics import BatchRecord, ExperimentResult, MetricsCollector
from repro.memsim.costmodel import BatchCost
from repro.state import decode_state, encode_state


def cost(total: float, overhead: float = 0.0) -> BatchCost:
    return BatchCost(
        cpu_ns=total - overhead,
        local_mem_ns=0.0,
        cxl_mem_ns=0.0,
        migration_ns=0.0,
        overhead_ns=overhead,
    )


def collect(batches) -> ExperimentResult:
    """batches: list of (ops, local, cxl, duration, label)."""
    mc = MetricsCollector()
    now = 0.0
    for ops, local, cxl, duration, label in batches:
        mc.record_batch(
            start_ns=now,
            cost=cost(duration),
            num_ops=ops,
            local_accesses=local,
            cxl_accesses=cxl,
            pages_migrated=0,
            label=label,
        )
        now += duration
    return mc.finalize(
        policy_name="p",
        workload_name="w",
        traffic_breakdown={"local": 0.5, "cxl": 0.4, "migration": 0.1},
        migration_bytes=0,
        warmup_fraction=0.25,
    )


class TestBatchRecord:
    def test_derived_fields(self):
        r = BatchRecord(
            start_ns=10.0,
            duration_ns=5.0,
            num_ops=2.0,
            num_accesses=10,
            local_accesses=8,
            cxl_accesses=2,
            pages_migrated=0,
            overhead_ns=0.0,
        )
        assert r.end_ns == 15.0
        assert r.per_op_latency_ns == 2.5
        assert r.hit_ratio == 0.8

    def test_zero_ops_latency_none(self):
        r = BatchRecord(0, 1.0, 0.0, 0, 0, 0, 0, 0.0)
        assert r.per_op_latency_ns is None
        assert r.hit_ratio is None


class TestReduction:
    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            ExperimentResult.from_records(
                [], "p", "w", {}, 0
            )

    def test_hit_ratios(self):
        res = collect(
            [
                (10, 50, 50, 100.0, ""),  # warmup (first 25% of time)
                (10, 90, 10, 100.0, ""),
                (10, 90, 10, 100.0, ""),
                (10, 90, 10, 100.0, ""),
            ]
        )
        assert res.overall_hit_ratio == pytest.approx(320 / 400)
        assert res.steady_hit_ratio == pytest.approx(0.9)

    def test_throughput(self):
        res = collect([(100, 1, 0, 1e9, "")] * 4)  # 100 ops per second
        assert res.steady_throughput_ops_per_s == pytest.approx(100.0)

    def test_p50_is_median(self):
        res = collect(
            [
                (10, 1, 0, 100.0, ""),
                (10, 1, 0, 100.0, ""),
                (10, 1, 0, 100.0, ""),
                (10, 1, 0, 1000.0, ""),
            ]
        )
        # Steady batches have per-op latencies 10, 10, 100 -> median 10.
        assert res.steady_p50_latency_ns == pytest.approx(10.0)

    def test_per_label_times(self):
        res = collect(
            [
                (1, 1, 0, 10.0, "trial0"),
                (1, 1, 0, 20.0, "trial0"),
                (1, 1, 0, 40.0, "trial1"),
            ]
        )
        assert res.time_per_label_ns == {"trial0": 30.0, "trial1": 40.0}

    def test_mean_time_per_label_skips_warmup_labels(self):
        res = collect(
            [
                (1, 1, 0, 100.0, "t0"),
                (1, 1, 0, 10.0, "t1"),
                (1, 1, 0, 10.0, "t2"),
                (1, 1, 0, 10.0, "t3"),
            ]
        )
        # Skips the first 25% of labels (t0, the slow warmup).
        assert res.mean_time_per_label_ns() == pytest.approx(10.0)

    def test_timeline_points(self):
        res = collect([(10, 9, 1, 100.0, "")] * 3)
        assert len(res.hit_ratio_timeline) == 3
        assert res.hit_ratio_timeline[0][1] == pytest.approx(0.9)


def filled(n: int) -> MetricsCollector:
    mc = MetricsCollector()
    for i in range(n):
        mc.record_batch(
            start_ns=i * 1.5,
            cost=cost(1.5 + i % 7, overhead=0.25),
            num_ops=i / 3,
            local_accesses=i,
            cxl_accesses=2 * i + 1,
            pages_migrated=i % 5,
            label=f"t{i % 4}" if i % 3 else "",
        )
    return mc


def snapshot_round_trip(state: dict) -> dict:
    """``state`` through the checkpoint codec and a JSON render."""
    return decode_state(json.loads(json.dumps(encode_state(state))))


class TestCollectorState:
    def test_state_is_columnar(self):
        state = filled(5).state_dict()
        assert set(state) == {"columns", "labels"}
        assert state["labels"] == ["", "t1", "t2", "", "t0"]
        for column in state["columns"].values():
            assert isinstance(column, np.ndarray)
            assert column.shape == (5,)

    @pytest.mark.parametrize("n", [0, 7, 1025], ids=["empty", "labels", "grown"])
    def test_round_trip_is_exact(self, n):
        mc = filled(n)
        restored = MetricsCollector()
        restored.load_state(snapshot_round_trip(mc.state_dict()))
        assert len(restored) == n
        assert restored.records == mc.records
        again = restored.state_dict()
        original = mc.state_dict()
        assert again["labels"] == original["labels"]
        for name, column in original["columns"].items():
            assert again["columns"][name].dtype == column.dtype
            assert np.array_equal(again["columns"][name], column)

    def test_restored_collector_keeps_recording(self):
        mc = filled(1024)  # exactly full: the next record grows
        restored = MetricsCollector()
        restored.load_state(snapshot_round_trip(mc.state_dict()))
        for collector in (mc, restored):
            collector.record_batch(9.0, cost(2.0), 1.0, 3, 4, 1, label="x")
        assert restored.records == mc.records


class TestRelativeTo:
    def test_all_local_ratios(self):
        fast = collect([(10, 1, 0, 100.0, "t0")] * 4)
        slow = collect([(10, 1, 0, 200.0, "t0")] * 4)
        rel = slow.relative_to(fast)
        assert rel["throughput"] == pytest.approx(0.5)
        assert rel["p50_latency"] == pytest.approx(0.5)

    def test_label_time_relative(self):
        fast = collect([(1, 1, 0, 10.0, f"t{i}") for i in range(4)])
        slow = collect([(1, 1, 0, 30.0, f"t{i}") for i in range(4)])
        assert slow.relative_to(fast)["label_time"] == pytest.approx(1 / 3)

    def test_summary_keys(self):
        res = collect([(10, 9, 1, 100.0, "")] * 2)
        s = res.summary()
        assert {"policy", "workload", "p50_latency_us", "throughput_mops"} <= set(s)
