"""End-to-end benchmark of the tiering simulator, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload cdn_churn --seed 1 --seconds 25 --trace 0

The workloads are described in ``perfbench/record.json``.  With
``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics from a span-traced run
(plus as many untraced repeats, to give the tracing overhead) and
writes its spans to ``.perfbench/``.  The report lists every metric
with its unit and sample count; the last line of standard output is
one JSON object with the metrics named in ``BENCHMARK.json``.  The
exit status is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from repro import accel  # noqa: E402

RECORD = json.loads((HERE / "record.json").read_text())

#: Units of the metrics the report and JSON carry.
E2E_UNITS = {
    "accesses_per_s": "1/s",
    "step_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_time_s": "s",
    "hit_ratio": "ratio",
    "metadata_kb": "KiB",
    "wait_p99_us": "us",
}
#: Reported, but not in the JSON: each is undefined, zero by design or
#: ill-conditioned on some workload (see record.json).
REPORT_ONLY_UNITS = {
    "step_p50_ms": "ms",
    "sim_mops": "Mops/s",
    "wait_p50_us": "us",
    "failed_fraction": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def end_to_end(m: harness.Measurement) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts, from untraced repeats."""
    step_ns = np.concatenate([r.step_ns for r in m.repeats])
    setup_ns = [ns for r in m.repeats for ns in r.setup_ns]
    loop_ns = sum(r.loop_ns for r in m.repeats)
    p50, p99 = np.percentile(step_ns, [50, 99]) / 1e6
    host = {
        # Median over repeats: one repeat slowed by a burst of load from
        # elsewhere on the machine does not move it.
        "accesses_per_s": float(np.median(
            [r.accesses / (r.loop_ns / 1e9) for r in m.repeats]
        )),
        "step_p50_ms": p50,
        "step_p99_ms": p99,
        "setup_s": float(np.median(setup_ns)) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    sim = m.repeats[0].sim
    metrics = {
        **host,
        **{
            key: sim.get(key)
            for key in {**E2E_UNITS, **REPORT_ONLY_UNITS}
            if key not in host
        },
    }
    samples = {
        "accesses_per_s": f"median of {len(m.repeats)} repeats, "
        f"{len(step_ns)} steps, {loop_ns / 1e9:.2f} s",
        "step_p50_ms": f"{len(step_ns)} steps",
        "step_p99_ms": f"{len(step_ns)} steps, "
        f"{int(np.sum(step_ns > p99 * 1e6))} beyond p99",
        "setup_s": f"{len(setup_ns)} set-ups",
        "sim_time_s": f"{len(m.repeats[0].instances)} instances",
        "wait_p50_us": f"{m.repeats[0].wait_count} batches",
        "wait_p99_us": f"{m.repeats[0].wait_count} batches",
    }
    return metrics, samples


def per_layer(m: harness.Measurement) -> dict:
    totals: defaultdict[str, float] = defaultdict(float)
    for rep in m.traced:
        for part in rep.instances:
            for key, value in part.totals.items():
                totals[key] += value or 0.0
    metrics = spans.layer_metrics(
        m.recorder, totals, sum(r.loop_ns for r in m.repeats)
    )
    metrics["bench.repeats"] = len(m.traced)
    return metrics


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    state_dir: Path,
    size: str = "full",
) -> tuple[int, dict]:
    """Measure one workload, print its report; returns (exit status, result)."""
    bench = harness.make_workload(workload, seed, state_dir, size)
    m = harness.measure(bench, seconds, bool(trace))
    runs = [harness.Repeat([m.warmup])] + m.repeats + m.traced
    failures = [f for rep in runs for f in rep.failures]
    reference = m.repeats[0].sim
    for i, rep in enumerate(m.repeats[1:] + m.traced, start=1):
        failures += checks.identical(reference, rep.sim, f"repeat {i}")
    attempted = sum(len(rep.step_ns) + rep.steps_failed for rep in runs)
    failed = sum(rep.steps_failed for rep in runs)

    print(
        f"perfbench {workload} seed={seed} backend={accel.backend_name()} "
        f"{'traced' if trace else 'untraced'} "
        f"repeats={len(m.repeats)}+{len(m.traced)} traced"
    )
    if trace:
        metrics = per_layer(m)
        units = {name: _unit(name) for name in metrics}
        loop_s = metrics["bench.untraced_loop_s"]
        self_sum_s = metrics["bench.self_time_sum_s"]
        if abs(self_sum_s - loop_s) > abs(
            metrics["bench.trace_overhead_s"]
        ) + 1e-6 * loop_s:
            failures.append(
                f"layer self times sum to {self_sum_s} s, more than the "
                f"trace overhead away from the untraced loop's {loop_s} s"
            )
        m.recorder.write(state_dir / f"spans-{workload}-seed{seed}.jsonl")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.6g} {units[name]}")
    else:
        values, samples = end_to_end(m)
        units = {**E2E_UNITS, **REPORT_ONLY_UNITS}
        for name, value in values.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            note = samples.get(name, "")
            print(f"  {name:<16} {shown:>14} {units[name]:<7} {note}")
        metrics = {name: values[name] for name in E2E_UNITS}
    for failure in failures[:20]:
        print(f"  CHECK FAILED: {failure}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more failed checks")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return (1 if failures else 0), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=RECORD["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status, result = run_workload(
        args.workload, args.seed, args.seconds, args.trace,
        ROOT / ".perfbench",
    )
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
