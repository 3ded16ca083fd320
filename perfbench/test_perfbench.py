"""Self-test of the benchmark at a tiny size.

Run from the repository root::

    python -m pytest perfbench -q

It checks that a run emits every metric ``BENCHMARK.json`` names, with
its unit, and that each correctness check rejects a deliberately
corrupted input.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from repro import WorkloadSpec  # noqa: E402
from repro.memsim.machine import Machine, MachineConfig  # noqa: E402
from repro.obs.registry import HistogramRegistry  # noqa: E402
from repro.workloads.kronecker import generate_kronecker  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int, tmp_path: Path) -> tuple[int, dict]:
    return run.run_workload(
        workload, seed=3, seconds=0.01, trace=trace, state_dir=tmp_path,
        size="tiny",
    )


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    _, result = tiny_run(workload, trace, tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert result["attempted"] >= 1
    if trace:
        assert list(tmp_path.glob(f"spans-{workload}-seed3.jsonl"))


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_runs_pass_every_check(workload, tmp_path):
    status, result = tiny_run(workload, 1, tmp_path)
    assert (status, result["correct"], result["failed"]) == (0, True, 0)


@pytest.mark.xfail(
    strict=True,
    reason="GapWorkload records frontier[0] as the parent of every node "
    "discovered at a level, so the BFS tree check fails",
)
def test_gap_bfs_parents_form_a_bfs_tree():
    workload = WorkloadSpec("gap", kernel="bfs", scale=9, num_trials=1,
                            seed=5)()
    workload.setup(Machine(MachineConfig(
        local_capacity_pages=workload.footprint_pages,
        cxl_capacity_pages=8,
    )))
    for _ in workload.batches():
        pass
    graph, state = workload.graph, workload.last_kernel_state
    assert checks.bfs_tree(
        checks.edge_keys(graph.indptr, graph.indices), graph.num_nodes,
        state["parent"], int(state["source"][0]),
    ) == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "cdn_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_step_accounting_rejects_lost_accesses():
    assert checks.step_accounting(6, 4, 10) == []
    assert checks.step_accounting(5, 4, 10)
    assert checks.step_accounting(-1, 11, 10)


def test_serve_drained_rejects_unbalanced_books_and_backlog():
    counters = {"cdn": {"offered": 10, "served": 7, "shed": 2, "rejected": 1}}
    assert checks.serve_drained(counters, {"cdn": 0}) == []
    assert checks.serve_drained(counters, {"cdn": 1})
    counters["cdn"]["served"] = 6
    assert checks.serve_drained(counters, {"cdn": 0})


def _bfs_parents(indptr, indices, source):
    parent = np.full(indptr.size - 1, -1, dtype=np.int64)
    parent[source] = source
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nbr in indices[indptr[node]:indptr[node + 1]]:
            if parent[nbr] < 0:
                parent[nbr] = node
                frontier.append(nbr)
    return parent


def test_bfs_tree_rejects_a_corrupted_parent_array():
    graph = generate_kronecker(7, 4, seed=5)
    keys = checks.edge_keys(graph.indptr, graph.indices)
    n = graph.num_nodes
    source = int(np.argmax(graph.degrees()))
    parent = _bfs_parents(graph.indptr, graph.indices, source)
    assert checks.bfs_tree(keys, n, parent, source) == []

    not_own_parent = parent.copy()
    not_own_parent[source] = graph.indices[graph.indptr[source]]
    assert checks.bfs_tree(keys, n, not_own_parent, source)

    reached = np.flatnonzero(parent >= 0)
    leaf = int(reached[reached != source][-1])
    strangers = np.setdiff1d(
        reached, graph.indices[graph.indptr[leaf]:graph.indptr[leaf + 1]]
    )
    not_a_neighbour = parent.copy()
    not_a_neighbour[leaf] = strangers[strangers != leaf][0]
    assert checks.bfs_tree(keys, n, not_a_neighbour, source)

    out_of_range = parent.copy()
    out_of_range[leaf] = n
    assert checks.bfs_tree(keys, n, out_of_range, source)


def _brandes(indptr, indices, source):
    n = indptr.size - 1
    level = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    level[source], sigma[source] = 0, 1.0
    order, queue = [], deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for nbr in indices[indptr[node]:indptr[node + 1]]:
            if level[nbr] < 0:
                level[nbr] = level[node] + 1
                queue.append(nbr)
            if level[nbr] == level[node] + 1:
                sigma[nbr] += sigma[node]
    delta = np.zeros(n)
    for node in reversed(order):
        for nbr in indices[indptr[node]:indptr[node + 1]]:
            if level[nbr] == level[node] + 1:
                delta[node] += sigma[node] / sigma[nbr] * (1 + delta[nbr])
    return level, sigma, delta


def test_brandes_result_rejects_corrupted_arrays():
    graph = generate_kronecker(7, 4, seed=5)
    source = int(np.argmax(graph.degrees()))
    level, sigma, delta = _brandes(graph.indptr, graph.indices, source)
    assert (level < 0).any()

    def check(level=level, sigma=sigma, delta=delta, source=source):
        return checks.brandes_result(
            graph.indptr, graph.indices, source, level, sigma, delta
        )

    assert check() == []
    assert check(source=int(np.flatnonzero(level == 1)[0]))
    far = int(np.argmax(level))
    for bump in (-1, 1):
        wrong = level.copy()
        wrong[far] += bump
        assert check(level=wrong)
    unreached = int(np.flatnonzero(level < 0)[0])
    wrong = level.copy()
    wrong[unreached] = int(level.max()) + 1
    assert check(level=wrong)
    for arrays in ({"sigma": sigma}, {"delta": delta}):
        (name, values), = arrays.items()
        wrong = values.copy()
        wrong[far] += 1.0
        assert check(**{name: wrong})
        wrong = values.copy()
        wrong[unreached] = 1.0
        assert check(**{name: wrong})


def test_identical_rejects_a_one_ulp_difference():
    sim = {"sim_time_s": 0.1, "hit_ratio": None}
    assert checks.identical(sim, dict(sim), "r") == []
    assert checks.identical(
        sim, {**sim, "sim_time_s": np.nextafter(0.1, 1.0)}, "r"
    )
    assert checks.identical(sim, {**sim, "extra": 1}, "r")


def test_waits_match_registry_rejects_a_wrong_reconstruction():
    waits = np.random.default_rng(0).gamma(2.0, 1e6, size=500)
    registry = HistogramRegistry()
    for wait in waits:
        registry.observe("wait", wait)
    summary = registry.summary("wait")
    assert checks.waits_match_registry(waits, summary) == []
    assert checks.waits_match_registry(waits[:-1], summary)
    assert checks.waits_match_registry(waits * 1.2, summary)
    assert checks.waits_match_registry(waits, None)


def test_round_robin_order_skips_empty_queues_and_caps_the_tick():
    order = harness.round_robin_order(["a", "b"], {"a": 1, "b": 5}, 4)
    assert order == ["a", "b", "b", "b"]
    assert harness.round_robin_order(["a", "b"], {"a": 0, "b": 0}, 8) == []
