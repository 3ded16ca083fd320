"""The benchmark's workloads and the loop that measures them.

A workload runs as *instances*: simulator stacks built through the
public entry points (``WorkloadSpec``/``PolicySpec``,
``SimulationEngine``, ``TieringDaemon``, ``VirtualTimeDriver``), each
seeded from the run's ``--seed``.  A few hot items dominate each
instance's access stream, so results of one instance swing with its
seed; a *repeat* therefore runs several instances on fresh stacks and
pools them.  An instance runs a fixed amount of work, so a repeat's
simulated metrics depend only on the seed and every repeat of a run
must reproduce them bit for bit.

A *step* is one generated and serviced batch offline, or one driver
round (offer the round's arrivals, then one guarded daemon tick) when
serving.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import checks
import spans
from repro import (
    ExperimentConfig,
    PolicySpec,
    ServeConfig,
    SimulationEngine,
    TieringDaemon,
    VirtualTimeDriver,
    WorkloadSpec,
)
from repro.core.runner import build_machine

WORKLOADS = ("cdn_churn", "gap_bc", "serve_burst")

#: Work per instance and instances per repeat.  ``full`` is what the
#: benchmark measures; ``tiny`` only exercises every code path, for the
#: self-test.
SIZES = {
    "full": {
        "cdn_churn": {"slab_pages": 16_384, "ops_per_batch": 10_000,
                      "batches": 1_000, "instances": 2, "warmup": 100},
        "gap_bc": {"scale": 16, "batches": 1_000, "instances": 2,
                   "warmup": 30},
        "serve_burst": {"slab_pages": 8_192, "ops_per_batch": 2_000,
                        "instances": 16, "warmup": 40},
    },
    "tiny": {
        "cdn_churn": {"slab_pages": 1_024, "ops_per_batch": 500,
                      "batches": 20, "instances": 2, "warmup": 5},
        "gap_bc": {"scale": 9, "batches": 20, "instances": 2, "warmup": 5},
        "serve_burst": {"slab_pages": 256, "ops_per_batch": 50,
                        "instances": 1, "warmup": 5},
    },
}

MIN_REPEATS = 2


@dataclass
class Instance:
    """What one instance did on one stack."""

    setup_ns: int = 0
    step_ns: list[int] = field(default_factory=list)
    accesses: int = 0
    #: Simulated metrics of this instance.
    sim: dict[str, float] = field(default_factory=dict)
    #: Simulated enqueue-to-service wait of every serviced batch.
    waits_ns: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Requests turned away (shed, rejected, or steps that failed)
    #: out of those offered.
    refused: int = 0
    offered: int = 0
    steps_failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: End-of-instance counters read from the stack, for the traced run.
    totals: dict[str, float] = field(default_factory=dict)


@dataclass
class Repeat:
    """One pass over every instance of a workload."""

    instances: list[Instance]

    @property
    def step_ns(self) -> list[int]:
        return [ns for part in self.instances for ns in part.step_ns]

    @property
    def loop_ns(self) -> int:
        return sum(sum(part.step_ns) for part in self.instances)

    @property
    def accesses(self) -> int:
        return sum(part.accesses for part in self.instances)

    @property
    def setup_ns(self) -> list[int]:
        return [part.setup_ns for part in self.instances]

    @property
    def steps_failed(self) -> int:
        return sum(part.steps_failed for part in self.instances)

    @property
    def failures(self) -> list[str]:
        return [f for part in self.instances for f in part.failures]

    @property
    def wait_count(self) -> int:
        return sum(part.waits_ns.size for part in self.instances)

    @property
    def sim(self) -> dict[str, float | None]:
        """Simulated metrics pooled over the instances.

        Times and counts add up; ratios are means over instances; wait
        quantiles are over every batch of every instance.
        """
        # An instance whose step raised has no simulated metrics.
        sims = [part.sim for part in self.instances if part.sim]
        pooled: dict[str, float | None] = {}
        for key in sims[0] if sims else ():
            values = [sim[key] for sim in sims]
            if None in values:
                pooled[key] = None
            elif key in ("hit_ratio", "sim_mops", "metadata_kb"):
                pooled[key] = statistics.fmean(values)
            else:
                pooled[key] = sum(values)
        waits = np.concatenate([part.waits_ns for part in self.instances])
        if waits.size:
            p50, p99 = np.percentile(waits, [50, 99])
            pooled["wait_p50_us"] = p50 / 1e3
            pooled["wait_p99_us"] = p99 / 1e3
        pooled["failed_fraction"] = sum(
            part.refused for part in self.instances
        ) / max(sum(part.offered for part in self.instances), 1)
        return pooled


def _span(recorder: spans.SpanRecorder | None, name: str) -> int:
    return recorder.begin(name) if recorder is not None else -1


def _end(recorder: spans.SpanRecorder | None, index: int) -> None:
    if recorder is not None:
        recorder.end(index)


class OfflineWorkload:
    """FreqTier on a workload stream under :class:`SimulationEngine`.

    Offline runs are a closed loop: each batch is issued when the one
    before it completes, so its simulated wait is its own simulated
    service time.
    """

    def __init__(
        self,
        workload,
        config: ExperimentConfig,
        seeds: list[int],
        batches: int,
        warmup: int,
    ):
        #: ``workload(seed)`` is the instance's :class:`WorkloadSpec`.
        self.workload = workload
        self.config = config
        self.seeds = seeds
        self.batches = batches
        self.warmup = warmup

    def build(self, seed: int) -> SimulationEngine:
        workload = self.workload(seed)()
        machine = build_machine(workload.footprint_pages, self.config)
        engine = SimulationEngine(
            machine, workload, PolicySpec("freqtier", seed=seed)()
        )
        engine.setup()
        return engine

    def close(self, engine: SimulationEngine) -> None:
        pass

    def run(self, engine, steps=None, recorder=None) -> Instance:
        part = Instance()
        workload = engine.workload
        kernel_state = getattr(workload, "last_kernel_state", None)
        service_ns = []
        stream = workload.batches()
        for i in range(self.batches if steps is None else steps):
            root = _span(recorder, "bench.step")
            try:
                t0 = perf_counter_ns()
                batch = next(stream)
                outcome = engine.step(batch)
                t1 = perf_counter_ns()
            except Exception as exc:  # noqa: BLE001 - a raising step fails the run
                _end(recorder, root)
                part.steps_failed += 1
                part.failures.append(f"step {i} raised {exc!r}")
                return part
            _end(recorder, root)
            part.step_ns.append(t1 - t0)
            service_ns.append(outcome.total_ns)
            errors = checks.step_accounting(
                outcome.n_local, outcome.n_cxl, batch.num_accesses
            )
            state = getattr(workload, "last_kernel_state", None)
            if state is not kernel_state and "sigma" in state:
                # A betweenness trial just completed; its arrays are final.
                kernel_state = state
                errors += checks.brandes_result(
                    workload.graph.indptr,
                    workload.graph.indices,
                    int(state["source"][0]),
                    state["level"],
                    state["sigma"],
                    state["delta"],
                )
            if errors:
                part.steps_failed += 1
                part.failures.extend(f"step {i}: {e}" for e in errors)
        part.accesses = engine.accesses_done
        part.refused = part.steps_failed
        part.offered = len(part.step_ns)
        root = _span(recorder, "bench.finalize")
        result = engine.finalize()
        _end(recorder, root)
        throughput = result.steady_throughput_ops_per_s
        part.waits_ns = np.asarray(service_ns)
        part.sim = {
            "sim_time_s": engine.now_ns / 1e9,
            "sim_mops": throughput / 1e6 if throughput else None,
            "hit_ratio": result.steady_hit_ratio,
            "metadata_kb": result.policy_stats["metadata_bytes"] / 1024,
            "pages_migrated": result.pages_migrated,
            "accesses": engine.accesses_done,
        }
        stats = engine.policy.stats
        part.totals = {
            "policies.promoted": stats.promotions,
            "policies.demoted": stats.demotions,
            "memsim.migrations_deferred": engine.machine.migrations_deferred,
        }
        return part


def round_robin_order(
    tenants: list[str], depths: dict[str, int], max_batches: int
) -> list[str]:
    """Tenants in the order one daemon tick serves them.

    Mirrors :meth:`TieringDaemon.tick`: queues are polled round-robin in
    sorted tenant order, an empty queue is skipped, and the tick stops
    after ``max_batches`` or when every queue is empty.  ``depths`` are
    the queue depths when the tick starts.
    """
    left = dict(depths)
    order: list[str] = []
    cursor = 0
    while len(order) < max_batches:
        for _ in range(len(tenants)):
            tenant = tenants[cursor % len(tenants)]
            cursor += 1
            if left[tenant]:
                left[tenant] -= 1
                order.append(tenant)
                break
        else:
            break
    return order


class ServeWorkload:
    """FreqTier behind :class:`TieringDaemon` for a CDN and a social
    tenant, fed by a virtual-time open loop: a burst above the per-tick
    service capacity, then a calm phase below it, so the degradation
    ladder steps down during the burst and climbs back in the calm."""

    BURST_ROUNDS, BURST_RATE = 30, 6
    CALM_ROUNDS, CALM_RATE = 60, 2

    def __init__(
        self,
        tenant_params: dict[str, int],
        config: ExperimentConfig,
        serve: ServeConfig,
        seeds: list[int],
        state_dir: Path,
        warmup: int,
    ):
        #: ``WorkloadSpec`` parameters shared by both tenants.
        self.tenant_params = tenant_params
        self.config = config
        self.serve = serve
        self.seeds = seeds
        self.state_dir = state_dir
        self.warmup = warmup
        self.offers_per_tenant = (
            self.BURST_ROUNDS * self.BURST_RATE
            + self.CALM_ROUNDS * self.CALM_RATE
        )

    def arrivals(self, round_index: int, tenant: str) -> int:
        if round_index < self.BURST_ROUNDS:
            return self.BURST_RATE
        return self.CALM_RATE

    def build(self, seed: int) -> VirtualTimeDriver:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        daemon = TieringDaemon(
            {
                "cdn": WorkloadSpec("cdn", **self.tenant_params, seed=2 * seed),
                "social": WorkloadSpec(
                    "social", **self.tenant_params, seed=2 * seed + 1
                ),
            },
            PolicySpec("freqtier", seed=seed),
            self.config,
            serve=self.serve,
            checkpoint_dir=tempfile.mkdtemp(prefix="ckpt-", dir=self.state_dir),
        )
        return VirtualTimeDriver(
            daemon, self.arrivals, max_offers=self.offers_per_tenant
        )

    def close(self, driver: VirtualTimeDriver) -> None:
        shutil.rmtree(driver.daemon.checkpoint_manager.directory)

    def run(self, driver, steps=None, recorder=None) -> Instance:
        part = Instance()
        daemon = driver.daemon
        queues = daemon.queues
        tenants = sorted(queues)
        # Enqueue times of each tenant's queued batches, oldest first,
        # and of every served batch in service order.
        queued = {tenant: deque() for tenant in tenants}
        served_enqueue_ns: list[float] = []
        last = {t: queues[t].counters.as_dict() for t in tenants}
        round_index = 0
        while not (
            driver.streams_exhausted and not any(map(len, queues.values()))
        ) and (steps is None or round_index < steps):
            engine = daemon.engine
            offer_ns = engine.now_ns
            accesses = engine.accesses_done
            local = engine.machine.traffic.local_accesses
            cxl = engine.machine.traffic.cxl_accesses
            root = _span(recorder, "bench.step")
            try:
                t0 = perf_counter_ns()
                report = driver.step()
                t1 = perf_counter_ns()
            except Exception as exc:  # noqa: BLE001 - a raising step fails the run
                _end(recorder, root)
                part.steps_failed += 1
                part.failures.append(f"round {round_index} raised {exc!r}")
                return part
            _end(recorder, root)
            part.step_ns.append(t1 - t0)
            errors = []
            if report is None:
                errors.append("tick crashed and was restored from a checkpoint")
            errors += checks.step_accounting(
                engine.machine.traffic.local_accesses - local,
                engine.machine.traffic.cxl_accesses - cxl,
                engine.accesses_done - accesses,
            )
            served = {}
            for tenant in tenants:
                now = queues[tenant].counters.as_dict()
                queued[tenant].extend(
                    [offer_ns] * (now["enqueued"] - last[tenant]["enqueued"])
                )
                for _ in range(now["shed"] - last[tenant]["shed"]):
                    queued[tenant].popleft()
                served[tenant] = now["served"] - last[tenant]["served"]
                last[tenant] = now
            order = round_robin_order(
                tenants,
                {t: served[t] + len(queues[t]) for t in tenants},
                daemon.serve.max_batches_per_tick,
            )
            if sorted(order) != sorted(
                t for t in tenants for _ in range(served[t])
            ):
                errors.append(f"service order {order} != served {served}")
            served_enqueue_ns.extend(queued[t].popleft() for t in order)
            if errors:
                part.steps_failed += 1
                part.failures.extend(f"round {round_index}: {e}" for e in errors)
            round_index += 1
        engine = daemon.engine
        part.accesses = engine.accesses_done
        if steps is not None:
            return part
        part.failures += checks.serve_drained(
            last, {t: len(queues[t]) for t in tenants}
        )
        if not (daemon.degradations and daemon.promotions):
            part.failures.append(
                f"ladder moved {daemon.degradations} rungs down and "
                f"{daemon.promotions} up; the schedule must do both"
            )
        end_ns = np.array([r.end_ns for r in engine.metrics.records])
        part.waits_ns = end_ns - np.array(served_enqueue_ns)
        part.failures += checks.waits_match_registry(
            part.waits_ns, daemon.slo.summary("enqueue_to_service_ns")
        )
        root = _span(recorder, "bench.finalize")
        result = daemon.finalize(warmup_fraction=0.25)
        _end(recorder, root)
        part.offered = sum(c["offered"] for c in last.values())
        part.refused = sum(c["shed"] + c["rejected"] for c in last.values())
        part.sim = {
            "sim_time_s": engine.now_ns / 1e9,
            "sim_mops": result.steady_throughput_ops_per_s / 1e6,
            "hit_ratio": result.steady_hit_ratio,
            "metadata_kb": result.policy_stats["metadata_bytes"] / 1024,
            "pages_migrated": result.pages_migrated,
            "accesses": engine.accesses_done,
            "degradations": daemon.degradations,
            "promotions": daemon.promotions,
        }
        stats = engine.policy.stats
        part.totals = {
            "policies.promoted": stats.promotions,
            "policies.demoted": stats.demotions,
            "memsim.migrations_deferred": engine.machine.migrations_deferred,
            "serve.shed": sum(c["shed"] for c in last.values()),
            "serve.rejected": sum(c["rejected"] for c in last.values()),
            "serve.degradations": daemon.degradations,
            "serve.promotions": daemon.promotions,
            "serve.deadline_ticks": daemon.deadline_ticks,
            "serve.queue_depth_p99": daemon.slo.quantile("queue_depth", 0.99),
        }
        return part


def make_workload(name: str, seed: int, state_dir: Path, size: str = "full"):
    """The named benchmark workload, with every input drawn from ``seed``."""
    sz = SIZES[size][name]
    seeds = [seed * 1000 + i for i in range(sz["instances"])]
    if name == "cdn_churn":
        return OfflineWorkload(
            lambda s: WorkloadSpec(
                "cdn",
                slab_pages=sz["slab_pages"],
                ops_per_batch=sz["ops_per_batch"],
                churn_swaps_per_batch=500,
                seed=s,
            ),
            ExperimentConfig(local_fraction=0.06, ratio_label="1:32"),
            seeds,
            sz["batches"],
            sz["warmup"],
        )
    if name == "gap_bc":
        return OfflineWorkload(
            # More trials than any instance reaches: instances stop on a
            # batch count, never on an exhausted stream.
            lambda s: WorkloadSpec(
                "gap", kernel="bc", scale=sz["scale"], avg_degree=4,
                num_trials=1_000_000, seed=s,
            ),
            ExperimentConfig(local_fraction=0.10, ratio_label="1:16"),
            seeds,
            sz["batches"],
            sz["warmup"],
        )
    if name == "serve_burst":
        return ServeWorkload(
            {"slab_pages": sz["slab_pages"],
             "ops_per_batch": sz["ops_per_batch"]},
            ExperimentConfig(local_fraction=0.06, ratio_label="1:32"),
            ServeConfig(
                queue_capacity=64,
                backpressure="shed-oldest",
                max_batches_per_tick=8,
                tick_budget_ns=150_000.0,
                # Every 10 ticks: snapshot sizes grow with the run, and at
                # this cadence neighbouring snapshots differ little, so
                # the p99 round does not jump between two of them.
                checkpoint_every_ticks=10,
            ),
            seeds,
            state_dir,
            sz["warmup"],
        )
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _run_instance(bench, seed: int, steps=None, recorder=None) -> Instance:
    root = _span(recorder, "bench.setup")
    t0 = perf_counter_ns()
    stack = bench.build(seed)
    setup_ns = perf_counter_ns() - t0
    _end(recorder, root)
    try:
        part = bench.run(stack, steps=steps, recorder=recorder)
    finally:
        bench.close(stack)
    part.setup_ns = setup_ns
    return part


def run_repeats(bench, budget_s: float, count: int | None = None,
                recorder=None) -> list[Repeat]:
    """Exactly ``count`` repeats, or else as many as fit in ``budget_s``
    (at least :data:`MIN_REPEATS`)."""
    repeats: list[Repeat] = []
    start = perf_counter()
    while True:
        done = len(repeats)
        if count is not None:
            if done >= count:
                break
        elif done >= MIN_REPEATS:
            elapsed = perf_counter() - start
            if elapsed * (done + 1) / done > budget_s:
                break
        repeats.append(Repeat([
            _run_instance(bench, seed, recorder=recorder)
            for seed in bench.seeds
        ]))
    return repeats


@dataclass
class Measurement:
    warmup: Instance
    repeats: list[Repeat]
    traced: list[Repeat] = field(default_factory=list)
    recorder: spans.SpanRecorder | None = None


def measure(bench, seconds: float, trace: bool) -> Measurement:
    """A few untimed warm-up steps, then repeats for ``seconds``; with
    ``trace``, half the time goes to untraced repeats and as many traced
    repeats follow."""
    warmup = _run_instance(bench, bench.seeds[0], steps=bench.warmup)
    repeats = run_repeats(bench, seconds / 2 if trace else seconds)
    out = Measurement(warmup, repeats)
    if trace:
        out.recorder = spans.SpanRecorder()
        with spans.instrumented(out.recorder):
            out.traced = run_repeats(
                bench, seconds, count=len(repeats), recorder=out.recorder
            )
    return out
