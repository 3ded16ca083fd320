"""TieringDaemon behaviour: ticks, overload, deadlines, swaps, drain."""

import asyncio

import pytest

from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.obs.sinks import ListSink
from repro.serve import (
    ServeConfig,
    TieringDaemon,
    VirtualTimeDriver,
    WatchdogGaveUp,
)
from repro.state import encode_state
from repro.state.snapshot import canonical_json

from tests.serve.conftest import make_daemon, zipf_factory


def traced():
    sink = ListSink()
    return sink, Tracer(sinks=[sink])


class TestTick:
    def test_tick_services_round_robin(self):
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=4),
            tenants={"a": zipf_factory(seed=1), "b": zipf_factory(seed=2)},
        )
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=2)
        driver.offer_round()
        report = daemon.tick()
        assert report.served == 4
        assert daemon.queues["a"].counters.served == 2
        assert daemon.queues["b"].counters.served == 2
        assert report.mode == "full"
        assert daemon.engine.batches_done == 4

    def test_tick_is_bounded(self):
        daemon = make_daemon(serve=ServeConfig(max_batches_per_tick=2))
        driver = VirtualTimeDriver(daemon, arrivals=6, max_offers=6)
        driver.offer_round()
        report = daemon.tick()
        assert report.served == 2
        assert report.queue_depth_end == 4

    def test_empty_tick_is_fine(self, daemon):
        report = daemon.tick()
        assert report.served == 0
        assert daemon.ticks == 1

    def test_virtual_latency_recorded(self, daemon):
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=2)
        driver.offer_round()
        daemon.tick()
        summary = daemon.slo.summary("enqueue_to_service_ns")
        assert summary["count"] == 2
        assert summary["min"] > 0  # service completion is after enqueue


class TestOverloadAcceptance:
    """The issue's overload criterion: queue depth and p999 stay
    bounded, work is shed, the daemon degrades, and once the burst
    passes it re-promotes to full via hysteresis."""

    def test_shed_degrade_then_repromote(self):
        sink, tracer = traced()
        serve = ServeConfig(
            queue_capacity=8,
            max_batches_per_tick=2,
            degrade_after_ticks=2,
            promote_after_ticks=3,
            degrade_queue_high=0.5,
            promote_queue_low=0.125,
        )
        daemon = make_daemon(serve=serve, tracer=tracer)
        driver = VirtualTimeDriver(
            daemon,
            arrivals=lambda r, t: 4 if r < 12 else 0,  # burst, then calm
            max_offers=48,
        )
        driver.run(40)

        modes = [r.mode for r in driver.reports]
        assert "monitor_only" in modes  # degraded all the way down
        assert modes[-1] == "full"  # ...and recovered
        assert daemon.degradations >= 1 and daemon.promotions >= 1
        # Queue depth stays bounded by the configured capacity.
        depths = [r.queue_depth_end for r in driver.reports]
        assert max(depths) <= serve.queue_capacity
        assert daemon.slo.summary("queue_depth")["p999"] <= serve.queue_capacity
        # Latency p999 is bounded: no entry can wait longer than the
        # virtual span of the run.
        latency = daemon.slo.summary("enqueue_to_service_ns")
        assert latency["p999"] <= daemon.engine.now_ns
        # Overflow was shed, and the trace says so.
        assert daemon.queues["a"].counters.shed > 0
        shed_events = [e for e in sink.events if e["type"] == "load_shed"]
        assert sum(e["count"] for e in shed_events) == (
            daemon.queues["a"].counters.shed
        )
        reasons = {e["reason"] for e in sink.events if e["type"] == "degraded"}
        assert reasons == {"overload", "recovered"}

    def test_migrations_gated_below_full(self):
        serve = ServeConfig(
            queue_capacity=4,
            max_batches_per_tick=1,
            degrade_after_ticks=1,
            degrade_queue_high=0.5,
        )
        daemon = make_daemon(serve=serve)
        driver = VirtualTimeDriver(daemon, arrivals=3, max_offers=30)
        driver.run(12)
        assert daemon.mode != "full"
        assert daemon.engine.machine.migrations_deferred >= 0
        assert daemon.migration_stall_ns > 0


class TestDeadlineBudget:
    def test_budget_cuts_policy_work_mid_tick(self):
        sink, tracer = traced()
        # A budget of 1 simulated ns: the first policy invocation
        # exhausts it, so later batches in the tick run policy-free.
        serve = ServeConfig(tick_budget_ns=1.0, max_batches_per_tick=4)
        daemon = make_daemon(serve=serve, tracer=tracer)
        driver = VirtualTimeDriver(daemon, arrivals=4, max_offers=4)
        driver.offer_round()
        report = daemon.tick()
        assert report.budget_exceeded
        assert daemon.deadline_ticks == 1
        events = [e for e in sink.events if e["type"] == "deadline_exceeded"]
        assert len(events) == 1  # fires once per tick, not per batch
        assert events[0]["spent_ns"] > events[0]["budget_ns"]
        batches = [e for e in sink.events if e["type"] == "batch"]
        assert len(batches) == 4
        # Policy ran for the first batch only.
        assert batches[0]["overhead_ns"] > 0
        assert all(b["overhead_ns"] == 0 for b in batches[1:])


class TestHotSwap:
    def test_serve_swap_applies_at_tick_boundary(self):
        sink, tracer = traced()
        daemon = make_daemon(
            serve=ServeConfig(queue_capacity=8), tracer=tracer
        )
        daemon.swap_config(serve={"queue_capacity": 3, "tick_budget_ns": 5.0})
        assert daemon.serve.queue_capacity == 8  # not yet
        daemon.tick()
        assert daemon.serve.queue_capacity == 3
        assert daemon.queues["a"].capacity == 3
        events = [e for e in sink.events if e["type"] == "config_swapped"]
        assert len(events) == 1
        assert events[0]["changed"] == [
            "serve.queue_capacity", "serve.tick_budget_ns",
        ]

    def test_policy_swap_via_reconfigure(self):
        daemon = make_daemon()
        old = daemon.engine.policy.config.initial_hot_threshold
        daemon.swap_config(policy={"initial_hot_threshold": old + 3})
        daemon.tick()
        assert daemon.engine.policy.config.initial_hot_threshold == old + 3
        assert daemon.config_swaps == 1

    def test_unknown_policy_field_rejected(self):
        daemon = make_daemon()
        daemon.swap_config(policy={"not_a_real_knob": 1})
        with pytest.raises(ValueError, match="not_a_real_knob"):
            daemon.tick()

    def test_invalid_serve_swap_rejected(self):
        daemon = make_daemon()
        daemon.swap_config(serve={"queue_capacity": 0})
        with pytest.raises(ValueError, match="queue_capacity"):
            daemon.tick()


class TestDrainAndFinalize:
    def test_drain_services_backlog_and_emits_event(self):
        sink, tracer = traced()
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=2), tracer=tracer
        )
        driver = VirtualTimeDriver(daemon, arrivals=5, max_offers=5)
        driver.offer_round()
        served = daemon.drain()
        assert served == 5
        events = [e for e in sink.events if e["type"] == "drain_complete"]
        assert len(events) == 1
        assert events[0]["served"] == 5 and events[0]["remaining"] == 0

    def test_finalize_none_when_nothing_served(self, daemon):
        assert daemon.finalize() is None

    def test_finalize_reduces_served_batches(self, daemon):
        driver = VirtualTimeDriver(daemon, arrivals=3, max_offers=6)
        result = driver.finish()
        assert result is not None
        assert result.policy_name == "FreqTier"
        assert result.workload_name.startswith("serve[")

    def test_slo_summary_has_quantiles_and_counters(self, daemon):
        VirtualTimeDriver(daemon, arrivals=2, max_offers=6).finish()
        slo = daemon.slo_summary()
        for key in (
            "enqueue_to_service_ns_p50",
            "enqueue_to_service_ns_p99",
            "enqueue_to_service_ns_p999",
            "a_served",
            "a_shed",
            "migration_stall_ns",
            "restarts",
            "deadline_ticks",
        ):
            assert key in slo
        assert slo["a_served"] == 6


def _encoded_bytes(section) -> int:
    return len(canonical_json(encode_state(section)))


class TestCheckpointSize:
    def test_snapshot_is_flat_in_ticks_apart_from_metrics(self, tmp_path):
        """Between tick 20 and tick 80 only the metrics columns grow
        (one fixed-size row per batch) and the PEBS ring refills; every
        other section keeps its size up to counter digits."""
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=2),
            tenants={"a": zipf_factory(seed=1), "b": zipf_factory(seed=2)},
            checkpoint_dir=str(tmp_path),
        )
        driver = VirtualTimeDriver(daemon, arrivals=1)
        sizes = {}
        for tick in (20, 80):
            driver.run(tick - daemon.ticks)
            daemon.save_checkpoint()
            payload = daemon.checkpoint_manager.load_latest().payload
            metrics = payload["engine"].pop("metrics")
            pebs = payload["engine"]["policy"]["pebs"]
            ring = pebs.pop("pending_pages")
            capacity = daemon.engine.policy.pebs.ring_capacity
            assert ring.size == pebs["pending_count"] <= capacity
            sizes[tick] = {
                "metrics": _encoded_bytes(metrics),
                "ring": _encoded_bytes(ring),
                "rest": _encoded_bytes(payload),
                "batches": daemon.engine.batches_done,
            }
        early, late = sizes[20], sizes[80]
        assert abs(late["rest"] - early["rest"]) <= 256
        # Whole non-metrics sections: at most one ring's worth apart.
        assert abs(
            (late["rest"] + late["ring"]) - (early["rest"] + early["ring"])
        ) <= max(early["ring"], late["ring"]) + 256
        # Metrics: 8 base64-packed 8-byte columns plus a label per batch.
        per_batch = (late["metrics"] - early["metrics"]) / (
            late["batches"] - early["batches"]
        )
        assert 0 < per_batch <= 8 * 8 * 4 / 3 + 8


class TestWatchdogGiveUp:
    def test_gives_up_past_restart_budget(self, tmp_path):
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=2, max_restarts=0),
            faults=FaultPlan(seed=1, crash_after_batches=3),
            checkpoint_dir=str(tmp_path),
        )
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=12)
        with pytest.raises(WatchdogGaveUp, match="InjectedCrash"):
            driver.run(12)


class TestAsyncioFrontend:
    def test_serve_forever_drains_on_stop(self):
        daemon = make_daemon(serve=ServeConfig(max_batches_per_tick=2))

        async def scenario():
            task = asyncio.ensure_future(
                daemon.serve_forever(
                    poll_s=0.001, install_signal_handlers=False
                )
            )
            workload = daemon.tenants["a"]
            stream = workload.batches()
            for _ in range(5):
                outcome = await daemon.submit_async("a", next(stream))
                assert outcome == "enqueued"
            await asyncio.sleep(0.05)
            daemon.request_stop()
            return await task

        served = asyncio.run(scenario())
        assert served == 5
        assert daemon.queues["a"].counters.served == 5

    def test_submit_async_blocks_until_space(self):
        daemon = make_daemon(
            serve=ServeConfig(
                queue_capacity=1, backpressure="block", max_batches_per_tick=1
            )
        )

        async def scenario():
            workload = daemon.tenants["a"]
            stream = workload.batches()
            task = asyncio.ensure_future(
                daemon.serve_forever(
                    poll_s=0.001, install_signal_handlers=False
                )
            )
            for _ in range(3):  # each submit must wait for the loop
                outcome = await daemon.submit_async("a", next(stream))
                assert outcome == "enqueued"
            daemon.request_stop()
            return await task

        served = asyncio.run(scenario())
        assert served == 3
        assert daemon.queues["a"].counters.blocked >= 0
