"""Correctness checks run on every benchmark run.

Each check returns a list of error strings, empty when the check holds,
so the harness can count the steps that failed one and the self-test can
show every check rejecting a deliberately corrupted input.
"""

from __future__ import annotations

import math

import numpy as np

#: Growth factor of the daemon's log-bucket histograms: a streaming
#: quantile lands within one bucket of the exact sample it estimates.
HISTOGRAM_BUCKET_GROWTH = 1.08


def step_accounting(n_local: int, n_cxl: int, accesses: int) -> list[str]:
    """Every access of a step was serviced by exactly one tier."""
    if n_local < 0 or n_cxl < 0 or n_local + n_cxl != accesses:
        return [
            f"n_local + n_cxl = {n_local} + {n_cxl} != {accesses} accesses"
        ]
    return []


def serve_drained(
    counters: dict[str, dict[str, int]], depths: dict[str, int]
) -> list[str]:
    """After drain every offer is disposed of and every queue is empty."""
    errors = []
    for tenant, c in sorted(counters.items()):
        disposed = c["served"] + c["shed"] + c["rejected"]
        if c["offered"] != disposed:
            errors.append(
                f"{tenant}: offered {c['offered']} != served {c['served']}"
                f" + shed {c['shed']} + rejected {c['rejected']}"
            )
        if depths[tenant] != 0:
            errors.append(f"{tenant}: queue depth {depths[tenant]} after drain")
    return errors


def edge_keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sorted ``node * num_nodes + neighbour`` keys of a CSR graph."""
    num_nodes = indptr.size - 1
    rows = np.repeat(
        np.arange(num_nodes, dtype=np.int64), np.diff(indptr).astype(np.int64)
    )
    return np.sort(rows * num_nodes + indices.astype(np.int64))


def bfs_tree(
    keys: np.ndarray, num_nodes: int, parent: np.ndarray, source: int
) -> list[str]:
    """``parent`` is a BFS tree: the source is its own parent and every
    other reached node's parent is one of its neighbours in the graph
    whose :func:`edge_keys` are ``keys``."""
    errors = []
    if not 0 <= source < num_nodes or parent[source] != source:
        errors.append(f"source {source} is not its own parent")
    reached = np.flatnonzero(parent >= 0)
    reached = reached[reached != source]
    parents = parent[reached].astype(np.int64)
    wanted = reached * num_nodes + np.minimum(parents, num_nodes - 1)
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    bad = reached[(keys[pos] != wanted) | (parents >= num_nodes)]
    if bad.size:
        errors.append(
            f"{bad.size} of {reached.size} reached nodes have a parent that "
            f"is not a neighbour (first: node {bad[0]}, parent "
            f"{parent[bad[0]]})"
        )
    return errors


def brandes_result(
    indptr: np.ndarray,
    indices: np.ndarray,
    source: int,
    level: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
) -> list[str]:
    """``level``, ``sigma`` and ``delta`` are the Brandes betweenness
    arrays of ``source`` in the undirected CSR graph ``indptr``/``indices``.

    ``level`` must be the BFS distance from the source: it is 0 at the
    source, no edge leaves the reached set or skips a level, and every
    other reached node has a neighbour one level up, which ``sigma`` of
    at least 1 proves.  ``sigma`` (shortest-path counts) and ``delta``
    (dependencies) must satisfy their defining sums over the graph's
    edges, stored both ways as the CSR graph stores them.
    """
    num_nodes = indptr.size - 1
    rows = np.repeat(
        np.arange(num_nodes, dtype=np.int64), np.diff(indptr).astype(np.int64)
    )
    cols = indices.astype(np.int64)
    errors = []
    if not 0 <= source < num_nodes or level[source] != 0:
        return [f"source {source} is not at level 0"]
    reached = level >= 0
    lu, lv = level[rows], level[cols]
    bad_edges = reached[rows] & ((lv < 0) | (lv > lu + 1))
    if bad_edges.any():
        first = int(np.argmax(bad_edges))
        errors.append(
            f"{int(bad_edges.sum())} edges leave the reached set or skip a "
            f"level (first: {rows[first]} at level {lu[first]} -> "
            f"{cols[first]} at level {lv[first]})"
        )
    down = reached[rows] & (lv == lu + 1)
    want_sigma = np.bincount(
        cols[down], weights=sigma[rows[down]], minlength=num_nodes
    )
    want_sigma[source] = 1.0
    for name, got, want in (
        ("sigma", sigma, want_sigma),
        ("delta", delta, np.bincount(
            rows[down],
            weights=sigma[rows[down]] / np.maximum(sigma[cols[down]], 1e-300)
            * (1.0 + delta[cols[down]]),
            minlength=num_nodes,
        )),
    ):
        bad = ~np.isclose(got, want, rtol=1e-9, atol=0.0)
        if bad.any():
            node = int(np.argmax(bad))
            errors.append(
                f"{int(bad.sum())} nodes have a wrong {name} (first: node "
                f"{node}, {got[node]!r} != {want[node]!r})"
            )
    unreached = ~reached & ((sigma != 0) | (level != -1))
    short = reached & (sigma < 1)
    if unreached.any() or short.any():
        errors.append(
            f"{int(short.sum())} reached nodes count no shortest path and "
            f"{int(unreached.sum())} unreached nodes are labelled"
        )
    return errors


def identical(reference: dict, other: dict, what: str) -> list[str]:
    """Simulated metrics repeat bit for bit."""
    return [
        f"{what}: {key} = {other.get(key)!r}, first repeat had {value!r}"
        for key, value in reference.items()
        if other.get(key) != value
    ] + [
        f"{what}: unexpected metric {key}" for key in other
        if key not in reference
    ]


def waits_match_registry(
    waits_ns: np.ndarray, summary: dict[str, float] | None
) -> list[str]:
    """Reconstructed per-batch waits agree with the daemon's SLO registry:
    same count and sum, and its p50/p99 within one histogram bucket."""
    if summary is None:
        return ["daemon recorded no enqueue_to_service_ns samples"]
    errors = []
    if int(summary["count"]) != waits_ns.size:
        return [
            f"registry counted {int(summary['count'])} waits, "
            f"reconstruction has {waits_ns.size}"
        ]
    total = float(waits_ns.sum())
    if not math.isclose(summary["sum"], total, rel_tol=1e-9):
        errors.append(f"registry wait sum {summary['sum']} != {total}")
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        exact = float(np.quantile(waits_ns, q, method="inverted_cdf"))
        estimate = summary[label]
        ratio = estimate / exact if exact > 0 else math.inf
        if not 1 / HISTOGRAM_BUCKET_GROWTH <= ratio <= HISTOGRAM_BUCKET_GROWTH:
            errors.append(
                f"registry wait {label} {estimate} is not within one "
                f"bucket of the exact {exact}"
            )
    return errors
