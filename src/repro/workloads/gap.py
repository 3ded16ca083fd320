"""GAP benchmark kernels (BC, BFS, CC, + PageRank) as page-granular traces.

The paper evaluates three GAP kernels on a Kronecker graph (Table I);
PageRank is included as an extension.  The kernels are *actually
executed* over the CSR graph from
:mod:`~repro.workloads.kronecker`, and every array touched during
execution is mapped onto machine pages so the tiering policies see the
genuine access pattern: hub-heavy neighbor-list gathers, streaming CSR
scans, and random property-array accesses.

Memory layout (one region per array, mirroring the GAP C++ layout):

- ``indptr``  -- int64 CSR row pointers,
- ``indices`` -- int32 CSR column indices,
- per-kernel property arrays (parent / component / sigma / delta ...).

Accesses are emitted at cache-line granularity (one access per 64-byte
line touched), matching how the hardware counters in the paper's setup
observe traffic.  Each batch lists its accesses in program order: the
consumers (placement counts, i.i.d. PEBS positions, the sorting
coalescer) see only the batch's page multiset, so a per-batch shuffle
would cost RNG time without changing what a policy observes.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro._units import PAGE_SIZE
from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads.kronecker import CSRGraph, generate_kronecker
from repro.workloads.spec import Workload

#: Bytes per cache line (one emitted access covers one line).
LINE = 64

#: Modeled compute per emitted access (address arithmetic etc.), ns.
CPU_NS_PER_ACCESS = 4.0

KERNELS = ("bfs", "cc", "bc", "pr")

#: PageRank parameters (GAP defaults).
PR_DAMPING = 0.85
PR_ITERATIONS = 10

#: ``log2(PAGE_SIZE)``: byte offsets map to pages with one shift.
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
#: ``log2(LINE)``.
_LINE_SHIFT = LINE.bit_length() - 1
assert 1 << _PAGE_SHIFT == PAGE_SIZE and 1 << _LINE_SHIFT == LINE


def _lines_of_ranges(
    byte_starts: np.ndarray, byte_lens: np.ndarray
) -> np.ndarray:
    """Cache-line ids touched by the byte ranges (one id per line).

    Expands each ``[start, start+len)`` range into the 64-byte line
    indices it covers.  Vectorized via the repeat/cumsum expansion.
    """
    byte_starts = np.asarray(byte_starts, dtype=np.int64)
    byte_lens = np.asarray(byte_lens, dtype=np.int64)
    keep = byte_lens > 0
    byte_starts, byte_lens = byte_starts[keep], byte_lens[keep]
    if byte_starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = byte_starts >> _LINE_SHIFT
    last = (byte_starts + byte_lens - 1) >> _LINE_SHIFT
    return _expand_ranges(first, last - first + 1)


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``.

    One ``repeat`` of the per-range shift ``start - (output offset of the
    range)`` plus one ``arange``; zero counts contribute nothing.
    """
    shift = starts.astype(np.int64)
    shift[1:] -= np.cumsum(counts[:-1])
    expanded = np.repeat(shift, counts)
    expanded += np.arange(expanded.size, dtype=np.int64)
    return expanded


def _dedup_sorted(ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` for ids in ``[0, mask.size)``, as int64.

    Marks ``ids`` in the all-False boolean ``mask`` and reads the marks
    back in index order, then clears them so the mask can be reused.
    """
    mask[ids] = True
    out = np.flatnonzero(mask)
    mask[out] = False
    return out


class _Array:
    """A simulated array living in one machine region."""

    def __init__(self, elem_bytes: int, num_elems: int):
        if elem_bytes & (elem_bytes - 1) or not 0 < elem_bytes <= PAGE_SIZE:
            raise ValueError(f"elem_bytes must be a power of two <= {PAGE_SIZE}")
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems
        self.start_page = 0  # set at setup()
        # Element index -> page offset: (e * elem_bytes) >> log2(PAGE_SIZE),
        # i.e. e >> (log2(PAGE_SIZE) - log2(elem_bytes)).
        self._elem_shift = _PAGE_SHIFT - (elem_bytes.bit_length() - 1)

    @property
    def num_pages(self) -> int:
        return -(-self.num_elems * self.elem_bytes // PAGE_SIZE)

    def pages_of_elements(self, elems: np.ndarray) -> np.ndarray:
        """Page ids for random accesses to ``elems`` (one line each)."""
        pages = np.right_shift(elems, self._elem_shift, dtype=np.int64)
        pages += self.start_page
        return pages

    def pages_of_ranges(
        self, starts: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Page ids (one per line) for element ranges [start, start+len)."""
        pages = _lines_of_ranges(
            np.asarray(starts, dtype=np.int64) * self.elem_bytes,
            np.asarray(lens, dtype=np.int64) * self.elem_bytes,
        )
        pages >>= _PAGE_SHIFT - _LINE_SHIFT
        pages += self.start_page
        return pages


class GapWorkload(Workload):
    """One GAP kernel run repeatedly as trials (paper Table IV).

    Parameters
    ----------
    kernel:
        ``"bfs"``, ``"cc"``, ``"bc"`` or ``"pr"`` (PageRank, an
        extension beyond the paper's three kernels).
    scale:
        Kronecker scale (``2**scale`` nodes).
    avg_degree:
        Undirected edges per node (the paper uses 4).
    num_trials:
        Kernel repetitions (different BFS/BC sources per trial).
    """

    def __init__(
        self,
        kernel: str,
        scale: int = 16,
        avg_degree: int = 4,
        num_trials: int = 4,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.kernel = kernel
        self.name = f"gap-{kernel}"
        self.num_trials = int(num_trials)
        self.graph: CSRGraph = generate_kronecker(scale, avg_degree, seed=seed)
        n = self.graph.num_nodes
        self._indptr_arr = _Array(8, n + 1)
        self._indices_arr = _Array(4, self.graph.num_directed_edges)
        # Property arrays: BFS parent / CC component / BC sigma+delta+level.
        self._prop32 = _Array(4, n)
        self._prop64_a = _Array(8, n)
        self._prop64_b = _Array(8, n)
        self._rng = np.random.default_rng(seed + 7)
        self._degrees = np.diff(self.graph.indptr).astype(np.int64)
        # Neighbour ids are gathered from one int64 copy of the CSR
        # column indices (made on the first trial) instead of converting
        # every gather.
        self._indices64: np.ndarray | None = None
        # Reusable all-False scratch mask for frontier deduplication.
        self._seen = np.zeros(n, dtype=bool)
        # Graph-constant full-sweep data of CC / PageRank, built lazily
        # on first use (the pages again after every setup()).
        self._edge_src: np.ndarray | None = None
        self._sweep_pages: list[np.ndarray] | None = None
        #: Kernel outputs of the most recent trial (verification hook):
        #: bfs -> {"parent"}; cc -> {"comp"}; bc -> {"sigma", "level",
        #: "delta"}; pr -> {"rank"}.
        self.last_kernel_state: dict[str, np.ndarray] = {}

    @property
    def footprint_pages(self) -> int:
        return (
            self._indptr_arr.num_pages
            + self._indices_arr.num_pages
            + self._prop32.num_pages
            + self._prop64_a.num_pages
            + self._prop64_b.num_pages
        )

    def setup(self, machine: Machine) -> None:
        for arr, label in (
            (self._indptr_arr, "indptr"),
            (self._indices_arr, "indices"),
            (self._prop32, "prop32"),
            (self._prop64_a, "prop64a"),
            (self._prop64_b, "prop64b"),
        ):
            region = machine.allocate(arr.num_pages, name=f"gap-{label}")
            arr.start_page = region.start_page
        self._sweep_pages = None  # page ids depend on the layout
        self._machine = machine

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """RNG state only; the graph and layout are seed-deterministic."""
        return {"rng": self._rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]

    # -- trace emission ------------------------------------------------------

    def _pick_source(self) -> int:
        """A random non-isolated source node (GAP requires degree > 0)."""
        degrees = self._degrees
        for __ in range(64):
            node = int(self._rng.integers(0, self.graph.num_nodes))
            if degrees[node] > 0:
                return node
        # Fall back to the highest-degree node (always connected).
        return int(np.argmax(degrees))

    def batches(self) -> Iterator[AccessBatch]:
        if self._indices64 is None:
            self._indices64 = self.graph.indices.astype(np.int64)
        for trial in range(self.num_trials):
            source = self._pick_source()
            if self.kernel == "bfs":
                yield from self._bfs_trace(source, trial)
            elif self.kernel == "cc":
                yield from self._cc_trace(trial)
            elif self.kernel == "pr":
                yield from self._pr_trace(trial)
            else:
                yield from self._bc_trace(source, trial)

    def _emit(self, pages: list[np.ndarray], trial: int) -> AccessBatch:
        """One batch holding ``pages`` in program order."""
        all_pages = np.concatenate(pages) if pages else np.zeros(0, dtype=np.int64)
        return AccessBatch(
            page_ids=all_pages,
            num_ops=0.0,
            cpu_ns=all_pages.size * CPU_NS_PER_ACCESS,
            label=f"trial{trial}",
        )

    def _gather_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """All neighbors of ``frontier`` (int64), each node's neighbor
        count, and the pages touched to read them."""
        starts = self.graph.indptr[frontier]
        counts = self._degrees[frontier]
        pages = [self._indptr_arr.pages_of_elements(frontier)]
        if not counts.any():
            return np.zeros(0, dtype=np.int64), counts, pages
        neighbors = self._indices64[_expand_ranges(starts, counts)]
        pages.append(self._indices_arr.pages_of_ranges(starts, counts))
        return neighbors, counts, pages

    # -- BFS (direction-optimizing omitted; top-down level-synchronous) ----------

    def _bfs_trace(self, source: int, trial: int) -> Iterator[AccessBatch]:
        n = self.graph.num_nodes
        parent = np.full(n, -1, dtype=np.int64)
        parent[source] = source
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            neighbors, __, pages = self._gather_neighbors(frontier)
            if neighbors.size:
                # Reading parent[] of every neighbor to test visited.
                pages.append(self._prop32.pages_of_elements(neighbors))
                fresh = _dedup_sorted(neighbors[parent[neighbors] < 0], self._seen)
                if fresh.size:
                    parent[fresh] = frontier[0]  # representative parent
                    pages.append(self._prop32.pages_of_elements(fresh))
                frontier = fresh
            else:
                frontier = np.zeros(0, dtype=np.int64)
            yield self._emit(pages, trial)
        self.last_kernel_state = {
            "parent": parent,
            "source": np.array([source]),
        }

    # -- full-graph sweeps (CC and PageRank) ------------------------------------------

    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge (source, destination) ids in CSR scan order (int64)."""
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.graph.num_nodes, dtype=np.int64), self._degrees
            )
        return self._edge_src, self._indices64

    def _sweep(self) -> list[np.ndarray]:
        """Pages one CC or PageRank iteration touches; graph-constant.

        A streaming scan of the full CSR plus line-sampled random
        accesses to the property arrays at the edge endpoints.
        """
        if self._sweep_pages is None:
            edge_src, edge_dst = self._edges()
            pages = [
                self._indptr_arr.pages_of_ranges(
                    np.array([0]), np.array([self.graph.num_nodes + 1])
                ),
                self._indices_arr.pages_of_ranges(
                    np.array([0]), np.array([self.graph.num_directed_edges])
                ),
            ]
            if self.kernel == "cc":
                # Gathers/scatters on the component array: one line
                # access per 16 edge endpoints (line reuse).
                pages.append(self._prop32.pages_of_elements(edge_dst[::16]))
                pages.append(self._prop32.pages_of_elements(edge_src[::16]))
            else:
                # Rank gathers (reads of src ranks) and scatters (dst
                # accumulation), one line access per 8 edges.
                pages.append(self._prop64_a.pages_of_elements(edge_src[::8]))
                pages.append(self._prop64_b.pages_of_elements(edge_dst[::8]))
            self._sweep_pages = pages
        return self._sweep_pages

    # -- Connected components (Shiloach-Vishkin style label propagation) ----------

    def _cc_trace(self, trial: int) -> Iterator[AccessBatch]:
        n = self.graph.num_nodes
        comp = np.arange(n, dtype=np.int64)
        edge_src, edge_dst = self._edges()
        for _ in range(64):  # safety bound; converges much sooner
            old = comp.copy()
            # comp[dst] = min(comp[dst], comp[src]) over the full edge scan.
            np.minimum.at(comp, edge_dst, comp[edge_src])
            comp = comp[comp]  # pointer jumping
            yield self._emit(self._sweep(), trial)
            if np.array_equal(old, comp):
                break
        self.last_kernel_state = {"comp": comp}

    # -- PageRank (power iteration, GAP defaults) -----------------------------------

    def _pr_trace(self, trial: int) -> Iterator[AccessBatch]:
        """Power-iteration PageRank: full CSR scans + rank gathers."""
        n = self.graph.num_nodes
        degrees = np.maximum(self._degrees.astype(np.float64), 1.0)
        rank = np.full(n, 1.0 / n, dtype=np.float64)
        edge_src, edge_dst = self._edges()
        base = (1.0 - PR_DAMPING) / n
        for _ in range(PR_ITERATIONS):
            contrib = rank[edge_src] / degrees[edge_src]
            # Sums in edge order, exactly like np.add.at into zeros.
            incoming = np.bincount(edge_dst, weights=contrib, minlength=n)
            rank = base + PR_DAMPING * incoming
            yield self._emit(self._sweep(), trial)
        self.last_kernel_state = {"rank": rank}

    # -- Betweenness centrality (Brandes, level-synchronous) ------------------------

    def _bc_trace(self, source: int, trial: int) -> Iterator[AccessBatch]:
        n = self.graph.num_nodes
        level = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        level[source] = 0
        sigma[source] = 1.0
        frontier = np.array([source], dtype=np.int64)
        # Forward gathers of every level past the source, reused by the
        # backward pass: (front, int32 neighbors, counts, CSR pages).
        gathers: list[tuple] = []
        depth = 0
        # Forward phase: BFS counting shortest paths.
        while frontier.size:
            neighbors, counts, pages = self._gather_neighbors(frontier)
            if depth:
                gathers.append(
                    (frontier, neighbors.astype(np.int32), counts, pages[:])
                )
            if neighbors.size:
                pages.append(self._prop64_a.pages_of_elements(neighbors))
                # Every undiscovered neighbor lands on level depth + 1,
                # and none is there yet: each gets its sigma only from
                # this level, so summing into zeros is exact.
                undiscovered = level[neighbors] < 0
                targets = neighbors[undiscovered]
                src_sigma = np.repeat(sigma[frontier], counts)
                sigma += np.bincount(
                    targets, weights=src_sigma[undiscovered], minlength=n
                )
                fresh = _dedup_sorted(targets, self._seen)
                if fresh.size:
                    level[fresh] = depth + 1
                    pages.append(self._prop32.pages_of_elements(fresh))
                frontier = fresh
            else:
                frontier = np.zeros(0, dtype=np.int64)
            depth += 1
            yield self._emit(pages, trial)
        # Backward phase: dependency accumulation, deepest level first.
        delta = np.zeros(n, dtype=np.float64)
        for front, neighbors, counts, pages in reversed(gathers):
            if neighbors.size:
                owner = np.repeat(front, counts)
                # Every owner sits on the front's level.
                predecessor = level[neighbors] == level[front[0]] - 1
                if predecessor.any():
                    pred = neighbors[predecessor]
                    succ = owner[predecessor]
                    contrib = (
                        sigma[pred]
                        / np.maximum(sigma[succ], 1e-12)
                        * (1.0 + delta[succ])
                    )
                    # Predecessors' delta is still zero: only this
                    # level feeds it.
                    delta += np.bincount(pred, weights=contrib, minlength=n)
                pages.append(self._prop64_a.pages_of_elements(neighbors))
                pages.append(self._prop64_b.pages_of_elements(owner[::4]))
            yield self._emit(pages, trial)
        self.last_kernel_state = {
            "sigma": sigma,
            "level": level,
            "delta": delta,
            "source": np.array([source]),
        }

    def describe(self) -> dict[str, object]:
        base = super().describe()
        base.update(
            {
                "kernel": self.kernel,
                "num_nodes": self.graph.num_nodes,
                "num_directed_edges": self.graph.num_directed_edges,
                "num_trials": self.num_trials,
            }
        )
        return base
