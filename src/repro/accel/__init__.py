"""The fused hot-path kernels, as plain NumPy functions.

The simulator's per-batch inner loop reduces to a handful of fused
kernels -- tier counting over a batch's head pages and page runs, the
CBF's conservative increase with readback, hash-index derivation, the
skip sampler's gap expansion and the workload's run expansion.  Each
is a pure vectorized function of its array arguments (plus scalar
shape/width parameters), so checkpoint/resume never depends on them.

The module is self-contained (imports nothing from the rest of
``repro``) so it stays a leaf package; the hash and packed-counter
math here mirrors :mod:`repro.cbf.hashing` and
:mod:`repro.cbf.counters` bit-for-bit, and
``tests/accel/test_kernel_equivalence.py`` pins that equivalence
against the originals (and every compressed-batch kernel against its
expanded-stream reference) on randomized inputs.
"""

from __future__ import annotations

import numpy as np

# splitmix64 constants (Steele, Lea, Flood 2014) -- must match
# repro.cbf.hashing exactly.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Tier codes (repro.memsim.pagetable: LOCAL_TIER=0, CXL_TIER=1).
_LOCAL_TIER = 0


# ---------------------------------------------------------------------------
# placement / traffic accounting
# ---------------------------------------------------------------------------


def placement_counts(
    placement: np.ndarray, page_ids: np.ndarray, out: np.ndarray
) -> tuple[int, int]:
    """Gather each page's tier code into ``out`` and split the counts.

    ``placement`` is the page table's int8 code array (``LOCAL_TIER=0``,
    ``CXL_TIER=1``, ``UNMAPPED=-1``); returns ``(n_local, n_cxl)`` where
    ``n_cxl`` counts every non-local access.  Out-of-range page ids
    raise ``IndexError``.  The per-access reference that
    :func:`compressed_placement_counts` (the engine's counting kernel)
    is held to on the expanded stream.
    """
    n = page_ids.size
    view = out[:n]
    np.take(placement, page_ids, out=view)
    n_local = int(np.count_nonzero(view == _LOCAL_TIER))
    return n_local, n - n_local


def placement_prefix(placement: np.ndarray, prefix: np.ndarray) -> None:
    """Prefix sum of local placements into caller-owned scratch.

    Writes ``prefix[i] = #{j < i : placement[j] == LOCAL_TIER}`` for
    ``i`` in ``[0, placement.size]``; ``prefix`` must hold
    ``placement.size + 1`` int64 elements.  The result feeds
    :func:`compressed_placement_counts` and stays valid until the
    placement array next changes (track
    ``PageTable.version`` to reuse it across batches).
    """
    n = placement.size
    prefix[0] = 0
    np.cumsum(placement == _LOCAL_TIER, dtype=np.int64, out=prefix[1 : n + 1])


def compressed_placement_counts(
    placement: np.ndarray,
    prefix: np.ndarray,
    head: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
) -> tuple[int, int]:
    """Tier split of a run-compressed batch, without expanding it.

    Counts local accesses across ``head`` (single-page accesses, a
    direct gather) and the ``(starts, counts)`` page runs via the
    placement prefix sum built by :func:`placement_prefix`: the local
    hits in ``[s, s+c)`` are ``prefix[s+c] - prefix[s]``.  ``prefix``
    must describe the current ``placement`` contents; it is read only
    when there are runs, so a head-only batch may pass an empty array
    and skip the O(pages) rebuild.  Returns
    ``(n_local, n_cxl)`` with ``n_cxl`` counting every non-local
    access, exactly like :func:`placement_counts` on the expanded
    stream.  Out-of-range pages raise ``IndexError``.
    """
    n = placement.size
    n_local = 0
    total = 0
    if starts.size:
        ends = starts + counts
        if int(starts.min()) < 0 or int(ends.max()) > n:
            raise IndexError(
                f"run pages out of range [0, {n}) "
                f"(starts min {int(starts.min())}, ends max {int(ends.max())})"
            )
        n_local = int(prefix[ends].sum() - prefix[starts].sum())
        total = int(counts.sum())
    if head.size:
        # LOCAL_TIER is 0, so local head hits are exactly the zeros;
        # unmapped (-1) codes land in the non-local count, matching
        # placement_counts on the expanded stream.
        tiers = np.take(placement, head)
        n_local += head.size - int(np.count_nonzero(tiers))
        total += head.size
    return n_local, total - n_local


# ---------------------------------------------------------------------------
# run-compressed batch kernels (position gather, strided subsample,
# weighted per-page counts, hint-fault detection)
# ---------------------------------------------------------------------------


def run_pages_at(
    head: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    positions: np.ndarray,
    sorted_positions: bool = False,
) -> np.ndarray:
    """Position→page gather over a run-compressed batch.

    Program order is ``head`` first, then the ``(starts, counts)`` runs
    expanded in order; ``offsets`` is ``cumsum(counts)``.  Returns the
    int64 page id at each position: head positions are a direct gather,
    tail positions locate their run by binary search over ``offsets``
    -- O(len(positions)), never expanding the stream.  Positions
    outside ``[0, head.size + offsets[-1])`` raise ``IndexError``
    (matching a fancy-index gather on the expanded stream).

    ``sorted_positions`` is a caller promise that ``positions`` is
    ascending (true for skip-sampled and strided position streams); the
    kernel then splits head from tail positions with slices instead of
    boolean masks.  Passing it for unsorted positions is undefined.
    """
    n_head = head.size
    n_total = n_head + (int(offsets[-1]) if offsets.size else 0)
    if positions.size == 0:
        return np.empty(0, dtype=np.int64)
    if sorted_positions:
        lo, hi = int(positions[0]), int(positions[-1])
    else:
        lo, hi = int(positions.min()), int(positions.max())
    if lo < 0 or hi >= n_total:
        raise IndexError(
            f"sample positions out of range [0, {n_total})"
        )
    out = np.empty(positions.size, dtype=np.int64)
    if sorted_positions:
        # Ascending positions split at n_head: slices replace the
        # boolean masks and fancy gathers of the general path.
        split = int(np.searchsorted(positions, n_head))
        out[:split] = head[positions[:split]]
        tail = positions[split:] - n_head
        if tail.size:
            run = np.searchsorted(offsets, tail, side="right")
            out[split:] = starts[run] + tail - (offsets[run] - counts[run])
        return out
    in_head = positions < n_head
    if in_head.any():
        out[in_head] = head[positions[in_head]]
    tail = positions[~in_head] - n_head
    if tail.size:
        run = np.searchsorted(offsets, tail, side="right")
        out[~in_head] = starts[run] + tail - (offsets[run] - counts[run])
    return out


def strided_run_pages(
    head: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    stride: int,
    num_accesses: int,
) -> np.ndarray:
    """Pages at positions ``0, stride, 2*stride, ...`` of a compressed
    batch -- bit-identical to ``expanded_page_ids[::stride]`` (as int64)
    at O(samples + runs) cost.  Feeds the recency policies' strided
    touched-set walks (AutoNUMA MGLRU / TPP reference-bit sampling).
    """
    positions = np.arange(0, num_accesses, stride, dtype=np.int64)
    return run_pages_at(
        head, starts, counts, offsets, positions, sorted_positions=True
    )


def weighted_page_counts(
    head: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Accumulate a per-page access histogram of a compressed batch.

    The compressed form *is* a weighted histogram: each head page
    contributes 1 and each run contributes 1 to every page it covers.
    Adds those counts into ``out`` (int64, one slot per page) via a
    head bincount plus a difference-domain run sweep -- O(runs + pages)
    instead of O(accesses), equivalent to ``np.add.at(out, page_ids,
    1)`` on the expanded stream.  Pages outside ``[0, out.size)`` raise
    ``IndexError``.
    """
    n = out.size
    if head.size:
        if int(head.min()) < 0 or int(head.max()) >= n:
            raise IndexError(f"head pages out of range [0, {n})")
        out += np.bincount(head, minlength=n).astype(np.int64)
    if starts.size:
        ends = starts + counts
        if int(starts.min()) < 0 or int(ends.max()) > n:
            raise IndexError(f"run pages out of range [0, {n})")
        # Difference-domain histogram: +1 at each run start, -1 one
        # past its end, cumulative sum yields per-page coverage counts.
        delta = np.zeros(n + 1, dtype=np.int64)
        np.add.at(delta, starts, 1)
        np.add.at(delta, ends, -1)
        out += np.cumsum(delta[:n])


def hint_faults(
    unmap_time: np.ndarray,
    head: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Hint-fault detection over a run-compressed batch.

    Returns ``(faulted_pages, unmap_times)``: the first access in
    program order to each page whose ``unmap_time`` entry is >= 0, and
    that entry's value -- then clears those entries in place (the PTE
    restore), so a page faults at most once per batch.  Bit-identical
    (order included) to first-occurrence detection on the expanded
    stream; out-of-range pages are skipped, matching the scanner's
    in-range filter.  Cost is O(runs log U + faults) with U the
    currently-unmapped set, not O(accesses).
    """
    total = unmap_time.size
    parts: list[np.ndarray] = []
    if head.size:
        h = head[(head >= 0) & (head < total)]
        if h.size:
            h = h[unmap_time[h] >= 0.0]
            if h.size:
                parts.append(h.astype(np.int64, copy=False))
    if starts.size:
        mask = unmap_time >= 0.0
        # Candidate pages are the currently-unmapped ones each run
        # covers.  A prefix sum of the unmapped mask gives each page's
        # rank in the sorted unmapped set, so both run boundaries
        # become O(1) gathers (uprefix[p] = #unmapped pages below p);
        # expanding the resulting rank runs is then O(hits).  Clipping
        # run ends to [0, total] drops out-of-range pages, exactly as
        # a binary search against the unmapped set would.
        uprefix = np.empty(total + 1, dtype=np.int64)
        uprefix[0] = 0
        np.cumsum(mask, dtype=np.int64, out=uprefix[1:])
        if uprefix[total]:
            lo = uprefix[np.clip(starts, 0, total)]
            hi = uprefix[np.clip(starts + counts, 0, total)]
            seg_counts = hi - lo
            m = int(seg_counts.sum())
            if m:
                unmapped = np.nonzero(mask)[0]
                idx = np.empty(m, dtype=np.int64)
                expand_runs(lo, seg_counts, idx)
                parts.append(unmapped[idx])
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # First occurrence of each page in program order (head precedes the
    # runs; within a run ascending page order is program order).
    first_idx = np.unique(cand, return_index=True)[1]
    faulted = cand[np.sort(first_idx)]
    times = unmap_time[faulted].copy()
    unmap_time[faulted] = -1.0  # PTE restored by the fault
    return faulted, times


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def _mix_rows(keys: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """splitmix64 of ``keys`` under each seed: shape (len(seeds), n).

    Row ``i`` equals ``repro.cbf.hashing.splitmix64(keys, seeds[i])``;
    stacking the seeds turns k+1 small vector passes into one, which is
    most of the win on the short key arrays of the demotion scan.
    """
    with np.errstate(over="ignore"):
        z = keys[None, :] + (seeds * _GOLDEN + _GOLDEN)[:, None]
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def _fold(hashes: np.ndarray, upper: int) -> np.ndarray:
    """Lemire multiply-shift fold of 64-bit hashes onto [0, upper)."""
    hi = hashes >> _U64(32)
    lo = hashes & _U64(0xFFFFFFFF)
    u = _U64(upper)
    with np.errstate(over="ignore"):
        top = hi * u + ((lo * u) >> _U64(32))
    return (top >> _U64(32)).astype(np.int64)


def blocked_indices(
    keys: np.ndarray,
    seed: int,
    num_blocks: int,
    counters_per_block: int,
    num_hashes: int,
) -> np.ndarray:
    """Blocked-CBF slot indices, shape ``(len(keys), num_hashes)``.

    One splitmix64 hash selects the 64-byte block, ``num_hashes``
    further hashes select in-block slots (Lemire fold, no modulo bias).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    seeds = np.empty(num_hashes + 1, dtype=np.uint64)
    seeds[0] = _U64(seed & _MASK64)
    for i in range(num_hashes):
        seeds[1 + i] = _U64((seed + 101 + i) & _MASK64)
    hashes = _mix_rows(keys, seeds)  # (k+1, n)
    base = _fold(hashes[0], num_blocks) * np.int64(counters_per_block)
    out = np.empty((keys.size, num_hashes), dtype=np.int64)
    for i in range(num_hashes):
        np.add(base, _fold(hashes[1 + i], counters_per_block), out=out[:, i])
    return out


def classic_indices(
    keys: np.ndarray, num_hashes: int, num_slots: int, seed: int
) -> np.ndarray:
    """Kirsch--Mitzenmacher double-hashed slot indices ``(n, k)``."""
    keys = np.asarray(keys, dtype=np.uint64)
    seeds = np.array(
        [_U64(seed & _MASK64), _U64((seed + 1) & _MASK64)], dtype=np.uint64
    )
    hashes = _mix_rows(keys, seeds)
    h1 = hashes[0]
    h2 = hashes[1] | _U64(1)
    steps = np.arange(num_hashes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        combined = h1[:, None] + steps[None, :] * h2[:, None]
    return (combined % _U64(num_slots)).astype(np.int64)


# ---------------------------------------------------------------------------
# packed-counter CBF update
# ---------------------------------------------------------------------------


def _gather(
    store: np.ndarray, bits: int, per_byte: int, max_value: int, idx: np.ndarray
) -> np.ndarray:
    if bits in (8, 16):
        return store[idx].astype(np.int64)
    byte_idx = idx // per_byte
    shift = ((idx % per_byte) * bits).astype(np.uint8)
    return ((store[byte_idx] >> shift) & np.uint8(max_value)).astype(np.int64)


def _scatter_max(
    store: np.ndarray,
    bits: int,
    per_byte: int,
    max_value: int,
    idx: np.ndarray,
    vals: np.ndarray,
) -> None:
    if bits == 8:
        np.maximum.at(store, idx, vals.astype(np.uint8))
        return
    if bits == 16:
        np.maximum.at(store, idx, vals.astype(np.uint16))
        return
    # Sub-byte widths, one in-byte lane per pass (repro.cbf.counters
    # semantics): candidates for one byte differ only in the target
    # lane, so the byte-wise maximum equals the lane-wise maximum.
    positions = idx % per_byte
    mask = np.uint8(max_value)
    for pos in range(per_byte):
        sel = positions == pos
        if not sel.any():
            continue
        byte_idx = idx[sel] // per_byte
        shift = np.uint8(pos * bits)
        keep = store[byte_idx] & np.uint8(~(int(mask) << shift) & 0xFF)
        candidate = keep | (vals[sel].astype(np.uint8) << shift)
        np.maximum.at(store, byte_idx, candidate)


def cbf_fused_update(
    store: np.ndarray,
    bits: int,
    per_byte: int,
    max_value: int,
    idx: np.ndarray,
    totals: np.ndarray,
) -> np.ndarray:
    """Fused conservative CBF increase + frequency readback.

    For each row ``r`` of ``idx`` (the ``k`` counter slots of one
    unique key): read the min counter, raise the row's counters to
    ``min(min + totals[r], max_value)`` via scatter-max (duplicates
    across rows resolve to the largest target), then read back the new
    min.  Mutates ``store`` in place; returns the per-row new
    frequencies (int64).  ``store`` is the packed backing array of a
    :class:`repro.cbf.counters.PackedCounterArray` (uint8 for sub-byte
    and 8-bit widths, uint16 for 16-bit).
    """
    mins = _gather(store, bits, per_byte, max_value, idx).min(axis=1)
    target = np.minimum(mins + totals, max_value)
    flat = idx.ravel()
    _scatter_max(
        store,
        bits,
        per_byte,
        max_value,
        flat,
        np.broadcast_to(target[:, None], idx.shape).ravel(),
    )
    return _gather(store, bits, per_byte, max_value, idx).min(axis=1)


# ---------------------------------------------------------------------------
# skip-sampler gap expansion
# ---------------------------------------------------------------------------


def gap_positions(
    gaps: np.ndarray, pos: int, n: int, out: np.ndarray
) -> tuple[int, int, int]:
    """Expand geometric gaps into in-batch sample positions.

    Positions are ``pos, pos+gaps[0], pos+gaps[0]+gaps[1], ...``; those
    ``< n`` are written to ``out`` (which must hold ``len(gaps) + 1``
    elements).  Returns ``(count, carry, last)``: ``count`` positions
    written; ``carry`` = first position past the batch end minus ``n``
    when the chain crossed it, else ``-1``; ``last`` = the final
    position of the full chain (used to extend an uncrossed chain).
    """
    positions = out[: gaps.size + 1]
    positions[0] = pos
    np.cumsum(gaps, out=positions[1:])
    if pos:
        positions[1:] += pos
    count = int(np.searchsorted(positions, n, side="left"))
    if count < positions.size:
        carry = int(positions[count]) - n
    else:
        carry = -1
    return count, carry, int(positions[-1])


# ---------------------------------------------------------------------------
# run expansion (workload access streams)
# ---------------------------------------------------------------------------


def expand_runs(
    starts: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> None:
    """Expand ``(start, count)`` runs into per-page ids.

    Writes ``starts[i], starts[i]+1, ..., starts[i]+counts[i]-1`` for
    every run, concatenated, into ``out`` (sized ``counts.sum()``).
    """
    if out.size == 0:
        return
    if counts.size and int(counts.min()) == 0:
        # The boundary-scatter below needs strictly increasing run
        # ends; empty runs contribute nothing, so drop them.
        keep = counts > 0
        starts = starts[keep]
        counts = counts[keep]
    ends = np.cumsum(counts)
    # Difference-domain expansion: within a run consecutive elements
    # differ by 1, and at each run boundary the difference jumps to the
    # next start minus the previous run's last element.  One fill, one
    # small scatter and one cumsum -- no repeat, no arange.
    out[:] = 1
    out[0] = starts[0]
    if starts.size > 1:
        # next start minus the previous run's last value (start+count-1)
        out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    np.cumsum(out, out=out)


def backend_name() -> str:
    """Name of the kernel implementation (always ``"numpy"``)."""
    return "numpy"
