"""CheckpointManager: rotation, corruption fallback, inspection."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.state import (
    STATE_SCHEMA_VERSION,
    CheckpointManager,
    SnapshotError,
    payload_digest,
)


def _payload(n: int) -> dict:
    return {"progress": {"batches_done": n, "now_ns": float(n)}}


class TestRotation:
    def test_keeps_only_newest_generations(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        for n in range(5):
            mgr.save(_payload(n))
        names = [p.name for p in mgr.generations()]
        assert names == [
            "snap-00000003.json",
            "snap-00000004.json",
            "snap-00000005.json",
        ]

    def test_load_latest_returns_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for n in range(3):
            mgr.save(_payload(n))
        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 2
        assert loaded.generation == 3

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(tmp_path, keep=0)

    def test_path_collision_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(NotADirectoryError):
            CheckpointManager(target)


class TestCorruptionFallback:
    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(1))
        newest = mgr.save(_payload(2))
        newest.write_text("{ torn", encoding="utf-8")
        loaded = CheckpointManager(tmp_path).load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 1
        # The bad generation was quarantined, not deleted.
        assert (tmp_path / "snap-00000002.corrupt").exists()

    def test_digest_mismatch_is_treated_as_corrupt(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(1))
        newest = mgr.save(_payload(2))
        doc = json.loads(newest.read_text())
        doc["payload"]["progress"]["batches_done"] = 99  # bit-rot
        newest.write_text(json.dumps(doc), encoding="utf-8")
        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 1

    def test_all_corrupt_loads_none(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for n in range(2):
            path = mgr.save(_payload(n))
            path.write_text("garbage")
        assert mgr.load_latest() is None
        assert len(list(tmp_path.glob("*.corrupt"))) == 2

    def test_quarantined_sequence_numbers_never_reused(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(_payload(1))
        path.write_text("garbage")
        assert mgr.load_latest() is None  # quarantines snap-...1
        newest = mgr.save(_payload(2))
        assert newest.name == "snap-00000002.json"


def _array_payload(n: int) -> dict:
    return {
        **_payload(n),
        "pages": np.arange(n, n + 64, dtype=np.int64),
        "label": "ünïcode",
    }


def _payload_bytes(raw: bytes) -> bytes:
    """The payload's bytes exactly as they sit in a snapshot file."""
    start = raw.index(b'"payload":') + len(b'"payload":')
    assert raw.endswith(b"}")
    return raw[start:-1]


class TestOnDiskFormat:
    def test_digest_covers_the_written_payload_bytes(self, tmp_path):
        path = CheckpointManager(tmp_path).save(_array_payload(3))
        raw = path.read_bytes()
        doc = json.loads(raw)
        assert set(doc) == {"schema", "digest", "payload"}
        assert doc["schema"] == STATE_SCHEMA_VERSION
        body = _payload_bytes(raw)
        assert hashlib.sha256(body).hexdigest() == doc["digest"]
        # The written payload is the canonical rendering, so verify's
        # re-render of the parsed payload digests the same bytes.
        assert payload_digest(doc["payload"]) == doc["digest"]

    def test_flipped_payload_byte_is_quarantined(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_array_payload(1))
        newest = mgr.save(_array_payload(2))
        raw = bytearray(newest.read_bytes())
        # One base64 character inside the array blob: still valid JSON,
        # so only the digest can catch it.
        at = raw.index(b'"__ndarray__":"') + len(b'"__ndarray__":"') + 4
        raw[at] = ord("A") if raw[at] != ord("A") else ord("B")
        newest.write_bytes(bytes(raw))
        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 1
        assert np.array_equal(loaded.payload["pages"], np.arange(1, 65))
        assert (tmp_path / "snap-00000002.corrupt").exists()


def _write_old_schema(mgr: CheckpointManager, n: int):
    """A well-formed, digest-valid snapshot of the previous schema."""
    path = mgr.save(_payload(n))
    doc = json.loads(path.read_text())
    doc["schema"] = STATE_SCHEMA_VERSION - 1
    path.write_text(json.dumps(doc))
    return path


class TestSchemaRefusal:
    def test_old_schema_raises_and_is_left_in_place(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(1))
        old = _write_old_schema(mgr, 2)
        with pytest.raises(SnapshotError) as info:
            mgr.load_latest()
        message = str(info.value)
        assert f"schema {STATE_SCHEMA_VERSION - 1} " in message
        assert f"schema {STATE_SCHEMA_VERSION};" in message
        assert old.exists()
        assert not list(tmp_path.glob("*.corrupt"))

    def test_corrupt_newest_still_falls_back_onto_refusal(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        _write_old_schema(mgr, 1)
        torn = mgr.save(_payload(2))
        torn.write_text("{ torn")
        with pytest.raises(SnapshotError, match="schema"):
            mgr.load_latest()
        assert (tmp_path / "snap-00000002.corrupt").exists()
        assert (tmp_path / "snap-00000001.json").exists()

    def test_inspect_lists_old_schema_as_invalid(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        _write_old_schema(mgr, 1)
        (entry,) = mgr.inspect()
        assert entry["valid"] is False
        assert str(STATE_SCHEMA_VERSION - 1) in entry["error"]
        assert str(STATE_SCHEMA_VERSION) in entry["error"]


class TestInspect:
    def test_reports_validity_and_progress(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(10))
        bad = mgr.save(_payload(20))
        bad.write_text("{ torn")
        report = mgr.inspect()
        assert len(report) == 2
        good, torn = report
        assert good["valid"] is True
        assert good["progress"]["batches_done"] == 10
        assert torn["valid"] is False
        assert "error" in torn
        # inspect() never quarantines -- the torn file stays in place.
        assert bad.exists()
