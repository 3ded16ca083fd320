"""Trace event schema.

Every event emitted by the tracer is one flat JSON-serializable dict
carrying three base fields plus a per-type payload:

- ``type``  -- one of :data:`EVENT_TYPES`;
- ``t_ns``  -- virtual-time timestamp (simulated nanoseconds, float);
- ``seq``   -- per-tracer monotonically increasing sequence number,
  the tie-breaker for events sharing a timestamp.

The payload field sets below are *required minimums*: emitters may
attach extra fields (they round-trip through the JSONL sink), but a
line missing a required field fails :func:`validate_event` -- the
contract the CI traced-smoke job enforces on real runs.
"""

from __future__ import annotations

from typing import Any

#: Fields every event carries, regardless of type.
BASE_FIELDS = frozenset({"type", "t_ns", "seq"})

#: Required payload fields per event type.
EVENT_TYPES: dict[str, frozenset[str]] = {
    # One simulated access batch serviced by the engine.
    "batch": frozenset(
        {"n_local", "n_cxl", "pages_migrated", "overhead_ns"}
    ),
    # One batched promotion pass that found promotion candidates.
    "promotion": frozenset({"candidates", "promoted", "threshold"}),
    # One watermark-gated demotion scan (Algorithm 2 invocation).
    "demotion_scan": frozenset({"chunks", "scanned", "demoted", "empty"}),
    # An observation window closed (dynamic-intensity bookkeeping).
    "window_close": frozenset(
        {"hit_ratio", "pages_promoted", "processing_rounds", "state", "level"}
    ),
    # The sampling level moved one step up or down the ladder.
    "level_change": frozenset({"from", "to", "reason"}),
    # SAMPLING <-> MONITORING state-machine transition.
    "state_transition": frozenset({"from", "to", "reason", "level"}),
    # The CBF counters were halved (periodic aging).
    "aging": frozenset({"samples"}),
    # Samples dropped from the PEBS ring (capacity or state flush).
    "ring_overflow": frozenset({"lost", "reason"}),
    # A parallel-executor cell was served from the result cache.
    "cache_hit": frozenset({"label", "fingerprint"}),
    # The fault injector fired (kind names the fault class).
    "fault_injected": frozenset({"kind", "count"}),
    # A policy re-attempted previously failed migrations.
    "migration_retry": frozenset({"direction", "count", "moved"}),
    # Pages that failed migration repeatedly were blacklisted
    # (pinned-page model: retrying them forever is wasted work).
    "page_blacklisted": frozenset({"direction", "count"}),
    # The engine wrote a durable checkpoint of the run state.
    "checkpoint_saved": frozenset({"batch", "file"}),
    # The engine restored its state from a checkpoint (resume).
    "checkpoint_restored": frozenset({"batch"}),
    # -- serving daemon (repro.serve) --------------------------------------
    # One daemon tick began (mode is the degradation-ladder rung;
    # queue_depth is the aggregate backlog at tick start).
    "tick_start": frozenset({"tick", "mode", "queue_depth"}),
    # The per-tick policy latency budget ran out mid-tick; remaining
    # batches were serviced without policy work.
    "deadline_exceeded": frozenset({"tick", "budget_ns", "spent_ns"}),
    # The degradation ladder moved (either direction; reason is
    # "overload" going down, "recovered" re-promoting).
    "degraded": frozenset({"from", "to", "reason"}),
    # Backpressure dropped or refused work on a tenant queue (reason
    # is "shed_oldest" or "reject").
    "load_shed": frozenset({"tenant", "count", "reason"}),
    # The watchdog restarted the policy loop from the newest valid
    # checkpoint (generation -1 = no checkpoint, fresh restart).
    "watchdog_restart": frozenset({"restarts", "reason", "generation"}),
    # A serve/policy config hot-swap was applied at a tick boundary.
    "config_swapped": frozenset({"changed"}),
    # A graceful drain finished: intake closed, queues fully serviced.
    "drain_complete": frozenset({"served", "remaining"}),
}


class TraceEventError(ValueError):
    """An event dict violates the trace schema."""


def validate_event(event: Any) -> None:
    """Raise :class:`TraceEventError` unless ``event`` is schema-valid."""
    if not isinstance(event, dict):
        raise TraceEventError(f"event must be a dict, got {type(event).__name__}")
    missing_base = BASE_FIELDS - event.keys()
    if missing_base:
        raise TraceEventError(
            f"event missing base fields {sorted(missing_base)}: {event!r}"
        )
    etype = event["type"]
    if etype not in EVENT_TYPES:
        valid = ", ".join(sorted(EVENT_TYPES))
        raise TraceEventError(f"unknown event type {etype!r}; known: {valid}")
    if not isinstance(event["t_ns"], (int, float)) or isinstance(
        event["t_ns"], bool
    ):
        raise TraceEventError(f"t_ns must be a number, got {event['t_ns']!r}")
    if not isinstance(event["seq"], int) or isinstance(event["seq"], bool):
        raise TraceEventError(f"seq must be an int, got {event['seq']!r}")
    missing = EVENT_TYPES[etype] - event.keys()
    if missing:
        raise TraceEventError(
            f"{etype!r} event missing fields {sorted(missing)}: {event!r}"
        )
