"""Span tracing for the benchmark's traced run.

The traced run wraps public functions of each layer -- from this file,
not from inside the program -- and records one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory
and are written out once, when the run ends.  Per-layer times and counts
are derived from the spans afterwards: a span's self time is its
duration minus the durations of its direct children.

Span names are ``<layer>.<call>`` where the layer is the ``repro``
module the wrapped function belongs to; roots opened by the benchmark
itself are ``bench.step``, ``bench.setup`` and ``bench.finalize``.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from time import perf_counter_ns

from repro import (
    CacheLibWorkload,
    CountingBloomFilter,
    FreqTier,
    GapWorkload,
    Machine,
    SimulationEngine,
    TieringDaemon,
    accel,
)
from repro.core.metrics import MetricsCollector
from repro.memsim.costmodel import CostModel
from repro.sampling.pebs import PEBSSampler

#: Kernels of :mod:`repro.accel` that are timed, with the bytes each call
#: moves, computed from its argument sizes: arrays streamed once count
#: in full, and a gather counts one element of the gathered-from array
#: per index.
ACCEL_KERNELS: dict[str, Callable[..., int]] = {
    "placement_counts": lambda placement, page_ids, out: (
        page_ids.nbytes + out.nbytes + page_ids.size * placement.itemsize
    ),
    "compressed_placement_counts": lambda placement, prefix, head, starts,
    counts: (
        head.nbytes + head.size * placement.itemsize + starts.nbytes
        + counts.nbytes + 2 * starts.size * prefix.itemsize
    ),
    "placement_prefix": lambda placement, prefix: (
        placement.nbytes + prefix.nbytes
    ),
    "cbf_fused_update": lambda store, bits, per_byte, max_value, idx,
    totals: (
        idx.nbytes + 2 * totals.nbytes + 2 * idx.size * store.itemsize
    ),
    "run_pages_at": lambda head, starts, counts, offsets, positions,
    sorted_positions=False: (
        2 * positions.nbytes + positions.size * offsets.itemsize
    ),
    "gap_positions": lambda gaps, pos, n, out: gaps.nbytes + out.nbytes,
}


class SpanRecorder:
    """In-memory span list plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index]``; parent -1 = root.
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(recorder: SpanRecorder, fn, name: str, before=None, after=None):
    """``fn`` inside a span; ``before``/``after`` take counts outside it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        context = before(*args, **kwargs) if before is not None else None
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(context, result, *args, **kwargs)
        return result

    return traced


def _traced_batches(recorder: SpanRecorder, batches):
    """A workload's ``batches`` whose every ``next`` is one span."""
    counts = recorder.counts

    @functools.wraps(batches)
    def traced(self):
        stream = batches(self)
        while True:
            index = recorder.begin("workloads.gen")
            try:
                batch = next(stream)
            except StopIteration:
                return
            finally:
                recorder.end(index)
            counts["workloads.batches"] += 1
            counts["workloads.accesses"] += batch.num_accesses
            counts["workloads.compressed"] += batch.run_starts is not None
            yield batch

    return traced


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every measured layer's public functions for the duration."""
    counts = recorder.counts

    def sampling_state(policy, *args, **kwargs):
        counts["policies.sampling_batches"] += policy.intensity.sampling_active

    def policy_overhead(_, overhead_ns, *args, **kwargs):
        counts["policies.sim_overhead_ns"] += overhead_ns

    def cbf_keys(cbf, keys, *args, **kwargs):
        counts["cbf.keys"] += len(keys)

    def sampler_totals(sampler, *args, **kwargs):
        return sampler.total_offered, sampler.total_samples

    def sampler_deltas(before, _, sampler, *args, **kwargs):
        counts["sampling.offered"] += sampler.total_offered - before[0]
        counts["sampling.samples"] += sampler.total_samples - before[1]

    def move_attempt(machine, pages, *args, **kwargs):
        counts["memsim.pages_attempted"] += len(pages)

    def move_outcome(_, outcome, *args, **kwargs):
        counts["memsim.pages_moved"] += outcome.num_moved

    def tick_mode(daemon, *args, **kwargs):
        counts["serve.ticks_degraded"] += daemon.ladder.mode != "full"

    def checkpoint_size(_, __, daemon, *args, **kwargs):
        newest = daemon.checkpoint_manager.generations()[-1]
        counts["state.checkpoint_bytes"] += newest.stat().st_size

    targets = [
        (CacheLibWorkload, "batches", None),
        (GapWorkload, "batches", None),
        (SimulationEngine, "setup", ("core.engine.setup", None, None)),
        (SimulationEngine, "step", ("core.engine.step", None, None)),
        (MetricsCollector, "finalize", ("core.metrics.finalize", None, None)),
        (FreqTier, "on_batch",
         ("policies.on_batch", sampling_state, policy_overhead)),
        (CountingBloomFilter, "increase", ("cbf.increase", cbf_keys, None)),
        (CountingBloomFilter, "get", ("cbf.query", None, None)),
        (CountingBloomFilter, "get_by_indices", ("cbf.query", None, None)),
        (CountingBloomFilter, "age", ("cbf.age", None, None)),
        (PEBSSampler, "observe",
         ("sampling.observe", sampler_totals, sampler_deltas)),
        (Machine, "move_pages_ex",
         ("memsim.move", move_attempt, move_outcome)),
        (CostModel, "batch_cost", ("memsim.cost", None, None)),
        (TieringDaemon, "submit", ("serve.submit", None, None)),
        (TieringDaemon, "tick", ("serve.tick", tick_mode, None)),
        (TieringDaemon, "save_checkpoint",
         ("state.checkpoint", None, checkpoint_size)),
    ]
    for kernel, nbytes in ACCEL_KERNELS.items():

        def moved(*args, _kernel=kernel, _nbytes=nbytes, **kwargs):
            counts[f"accel.{_kernel}_bytes"] += _nbytes(*args, **kwargs)

        targets.append((accel, kernel, (f"accel.{kernel}", moved, None)))

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, how in targets:
            fn = getattr(owner, attr)
            if how is None:
                setattr(owner, attr, _traced_batches(recorder, fn))
            else:
                setattr(owner, attr, _wrap(recorder, fn, *how))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    totals: dict[str, float],
    untraced_loop_ns: int,
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    Times and counts are totals over the traced repeats.  ``totals``
    holds end-of-repeat counters read from the stack (promotions, ladder
    moves ...), summed over the same repeats; ``untraced_loop_ns`` is the
    step time of as many untraced repeats of the same work.
    """
    spans = recorder.spans
    child_ns = [0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    dur: defaultdict[str, int] = defaultdict(int)
    own: defaultdict[str, int] = defaultdict(int)
    calls: Counter[str] = Counter()
    loop_self_ns = 0
    for i, (name, start, end, _) in enumerate(spans):
        dur[name] += end - start
        own[name] += end - start - child_ns[i]
        calls[name] += 1
        if spans[root[i]][0] == "bench.step":
            loop_self_ns += end - start - child_ns[i]
    counts = recorder.counts

    def s(ns: float) -> float:
        return ns / 1e9

    metrics = {
        "workloads.gen_s": s(dur["workloads.gen"]),
        "workloads.batches": counts["workloads.batches"],
        "workloads.accesses": counts["workloads.accesses"],
        "workloads.compressed_share": _ratio(
            counts["workloads.compressed"], counts["workloads.batches"]
        ),
        "core.engine.step_s": s(dur["core.engine.step"]),
        "core.engine.self_s": s(own["core.engine.step"]),
        "core.engine.setup_s": s(dur["core.engine.setup"]),
        "core.metrics.finalize_s": s(dur["core.metrics.finalize"]),
        "policies.on_batch_s": s(dur["policies.on_batch"]),
        "policies.self_s": s(own["policies.on_batch"]),
        "policies.calls": calls["policies.on_batch"],
        "policies.sampling_share": _ratio(
            counts["policies.sampling_batches"], calls["policies.on_batch"]
        ),
        "policies.promoted": totals["policies.promoted"],
        "policies.demoted": totals["policies.demoted"],
        "policies.sim_overhead_ms": counts["policies.sim_overhead_ns"] / 1e6,
        "cbf.increase_s": s(dur["cbf.increase"]),
        "cbf.increase_calls": calls["cbf.increase"],
        "cbf.keys": counts["cbf.keys"],
        "cbf.query_s": s(dur["cbf.query"]),
        "cbf.age_calls": calls["cbf.age"],
        "sampling.observe_s": s(dur["sampling.observe"]),
        "sampling.observe_calls": calls["sampling.observe"],
        "sampling.offered": counts["sampling.offered"],
        "sampling.samples": counts["sampling.samples"],
        "sampling.sample_ratio": _ratio(
            counts["sampling.samples"], counts["sampling.offered"]
        ),
        "memsim.move_s": s(dur["memsim.move"]),
        "memsim.move_calls": calls["memsim.move"],
        "memsim.pages_attempted": counts["memsim.pages_attempted"],
        "memsim.pages_moved": counts["memsim.pages_moved"],
        "memsim.move_success_ratio": _ratio(
            counts["memsim.pages_moved"], counts["memsim.pages_attempted"]
        ),
        "memsim.cost_s": s(dur["memsim.cost"]),
        "memsim.migrations_deferred": totals["memsim.migrations_deferred"],
    }
    for kernel in ACCEL_KERNELS:
        metrics[f"accel.{kernel}_s"] = s(dur[f"accel.{kernel}"])
        metrics[f"accel.{kernel}_calls"] = calls[f"accel.{kernel}"]
        metrics[f"accel.{kernel}_mb"] = counts[f"accel.{kernel}_bytes"] / 1e6
    traced_loop_ns = dur["bench.step"]
    metrics.update({
        "serve.submit_s": s(dur["serve.submit"]),
        "serve.submits": calls["serve.submit"],
        "serve.shed": totals["serve.shed"],
        "serve.rejected": totals["serve.rejected"],
        "serve.tick_s": s(dur["serve.tick"]),
        "serve.tick_self_s": s(own["serve.tick"]),
        "serve.ticks": calls["serve.tick"],
        "serve.ticks_degraded": counts["serve.ticks_degraded"],
        "serve.degradations": totals["serve.degradations"],
        "serve.promotions": totals["serve.promotions"],
        "serve.deadline_ticks": totals["serve.deadline_ticks"],
        "serve.queue_depth_p99": totals["serve.queue_depth_p99"],
        "state.checkpoint_s": s(dur["state.checkpoint"]),
        "state.checkpoints": calls["state.checkpoint"],
        "state.checkpoint_mb": counts["state.checkpoint_bytes"] / 1e6,
        "bench.self_s": s(own["bench.step"]),
        "bench.self_time_sum_s": s(loop_self_ns),
        "bench.traced_loop_s": s(traced_loop_ns),
        "bench.untraced_loop_s": s(untraced_loop_ns),
        "bench.trace_overhead_s": s(traced_loop_ns - untraced_loop_ns),
    })
    return metrics
