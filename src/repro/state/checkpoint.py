"""Durable checkpoint generations with corruption fallback.

A :class:`CheckpointManager` owns one directory of rotated snapshot
generations (``snap-<seq>.json``).  Writes are atomic (temp file +
``os.replace``, the :meth:`repro.core.cache.ResultCache.put`
discipline), so a crash mid-save can never leave a half-written
generation that a resume would read.  Loads walk generations newest
first, verify schema + digest, and *quarantine* anything corrupt
(renamed ``*.corrupt``, kept for diagnosis) before falling back to the
next-newest valid generation -- a single corrupted file costs one
checkpoint interval of progress, never the run.  A well-formed snapshot
of another schema version is not corrupt: loading refuses it with
:class:`SnapshotError` and leaves the file in place.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.state.snapshot import (
    STATE_SCHEMA_VERSION,
    Snapshot,
    SnapshotError,
    render_document,
)

_SNAP_RE = re.compile(r"^snap-(\d{8})\.(?:json|corrupt)$")

#: Failures that mark a generation file as unreadable or corrupt.
_CORRUPT = (OSError, json.JSONDecodeError, UnicodeDecodeError, SnapshotError)


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A successfully verified generation, decoded and ready to restore."""

    payload: Any
    path: Path
    generation: int


class CheckpointManager:
    """Directory-backed store of rotated, verified snapshot generations."""

    def __init__(self, directory: str | os.PathLike, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(
                f"checkpoint path exists and is not a directory: "
                f"{self.directory}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.saves = 0

    # -- naming -----------------------------------------------------------

    @staticmethod
    def _seq_of(path: Path) -> int | None:
        match = _SNAP_RE.match(path.name)
        return int(match.group(1)) if match else None

    def generations(self) -> list[Path]:
        """Valid-named generation files, oldest first (corrupt excluded)."""
        found = [
            path
            for path in self.directory.glob("snap-*.json")
            if self._seq_of(path) is not None
        ]
        return sorted(found, key=lambda p: self._seq_of(p))

    def _next_seq(self) -> int:
        """One past the highest sequence ever used (corrupt files count,
        so a quarantined generation's number is never reused)."""
        highest = 0
        for path in self.directory.iterdir():
            seq = self._seq_of(path)
            if seq is not None:
                highest = max(highest, seq)
        return highest + 1

    # -- save -------------------------------------------------------------

    def save(self, payload: Any) -> Path:
        """Write ``payload`` as the newest generation (atomic), rotate."""
        document = render_document(payload)
        seq = self._next_seq()
        path = self.directory / f"snap-{seq:08d}.json"
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(document)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        self.saves += 1
        self._rotate()
        return path

    def _rotate(self) -> None:
        generations = self.generations()
        for stale in generations[: max(0, len(generations) - self.keep)]:
            stale.unlink(missing_ok=True)

    # -- load -------------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move an invalid generation aside (best-effort, never raises)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    @staticmethod
    def _read(path: Path) -> Snapshot:
        with open(path, encoding="utf-8") as fh:
            return Snapshot.from_json_dict(json.load(fh))

    def load_latest(self) -> LoadedCheckpoint | None:
        """Newest generation that verifies, or None if none does.

        Corrupt generations (unreadable, bad JSON, digest mismatch) are
        quarantined on the way down, so the next load does not
        re-verify known-bad files.  A generation of another schema
        version raises :class:`SnapshotError` naming both versions and
        stays where it is: it is valid for the release that wrote it.
        """
        for path in reversed(self.generations()):
            try:
                snapshot = self._read(path)
            except _CORRUPT:
                self._quarantine(path)
                continue
            if snapshot.schema != STATE_SCHEMA_VERSION:
                raise SnapshotError(
                    f"{path}: snapshot schema {snapshot.schema} is not the "
                    f"supported schema {STATE_SCHEMA_VERSION}; this release "
                    f"does not read it (file left in place)"
                )
            try:
                snapshot.verify()
            except SnapshotError:
                self._quarantine(path)
                continue
            seq = self._seq_of(path)
            return LoadedCheckpoint(
                payload=snapshot.decoded(),
                path=path,
                generation=seq if seq is not None else 0,
            )
        return None

    # -- introspection ----------------------------------------------------

    def inspect(self) -> list[dict[str, Any]]:
        """Verification status of every generation (no quarantining).

        Used by ``repro.cli checkpoint inspect``: each entry reports the
        generation number, file, validity, and -- for valid snapshots --
        the recorded progress summary when present.  A snapshot of
        another schema version is listed as invalid, with its ``schema``
        and both versions in its error text.
        """
        report: list[dict[str, Any]] = []
        for path in self.generations():
            entry: dict[str, Any] = {
                "generation": self._seq_of(path),
                "file": path.name,
                "bytes": path.stat().st_size if path.exists() else 0,
            }
            try:
                snapshot = self._read(path)
                entry["schema"] = snapshot.schema
                snapshot.verify()
            except _CORRUPT as exc:
                entry.update(valid=False, error=str(exc))
            else:
                entry.update(valid=True, digest=snapshot.digest)
                payload = snapshot.payload
                if isinstance(payload, dict):
                    for section in ("identity", "progress"):
                        value = payload.get(section)
                        if isinstance(value, dict):
                            entry[section] = value
            report.append(entry)
        return report
