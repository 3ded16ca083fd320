"""Versioned, integrity-checked snapshots of a live experiment.

A :class:`Snapshot` is one parsed snapshot document: an encoded state
payload (see :mod:`repro.state.codec`) with a schema version and a
sha256 digest of the payload's canonical JSON rendering.  The digest
makes torn or bit-rotted checkpoint files detectable *before* any state
is restored into a half-built engine; the schema version makes
snapshots from incompatible layouts fail loudly instead of resurrecting
garbage.

:func:`render_document` is the write path: it renders the payload
once, canonically, and digests exactly the bytes it writes, so a save
costs one encode and one C-encoder pass over the state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.state.codec import decode_state, encode_state

#: Bump whenever the snapshot payload layout changes incompatibly;
#: older generations are then refused (never translated).
#: 2: metrics stored as columns, the PEBS ring as one array.
STATE_SCHEMA_VERSION = 2


class SnapshotError(ValueError):
    """A snapshot failed schema or integrity verification."""


def canonical_json(encoded_payload: Any) -> str:
    """The canonical (sorted-key, compact, ASCII) JSON rendering."""
    return json.dumps(encoded_payload, sort_keys=True, separators=(",", ":"))


def payload_digest(encoded_payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of the payload."""
    return hashlib.sha256(
        canonical_json(encoded_payload).encode("ascii")
    ).hexdigest()


def render_document(payload: Any) -> bytes:
    """A live payload as a complete snapshot file, in one pass.

    The payload is encoded and rendered once; the digest is taken over
    those exact bytes, which are then spliced unchanged into the
    ``{"schema", "digest", "payload"}`` document.  Parsing the file and
    re-rendering its payload canonically reproduces the same bytes, so
    :meth:`Snapshot.verify` checks it like any other snapshot.
    """
    body = canonical_json(encode_state(payload)).encode("ascii")
    digest = hashlib.sha256(body).hexdigest()
    head = f'{{"schema":{STATE_SCHEMA_VERSION},"digest":"{digest}","payload":'
    return b"".join((head.encode("ascii"), body, b"}"))


@dataclass(frozen=True)
class Snapshot:
    """One schema-stamped, digest-protected state payload."""

    schema: int
    digest: str
    #: Codec-encoded (JSON-safe) payload; decode with :meth:`decoded`.
    payload: Any

    def verify(self) -> None:
        """Raise :class:`SnapshotError` unless schema and digest check out."""
        if self.schema != STATE_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema {self.schema} != supported "
                f"{STATE_SCHEMA_VERSION}"
            )
        actual = payload_digest(self.payload)
        if actual != self.digest:
            raise SnapshotError(
                f"snapshot digest mismatch: recorded {self.digest[:12]}..., "
                f"computed {actual[:12]}..."
            )

    def decoded(self) -> Any:
        """The payload with ndarray markers decoded back to arrays."""
        return decode_state(self.payload)

    @classmethod
    def from_json_dict(cls, data: Any) -> Snapshot:
        """Parse a loaded JSON document; raises SnapshotError on shape
        problems (verification is separate -- call :meth:`verify`)."""
        if not isinstance(data, dict):
            raise SnapshotError(f"snapshot document must be a dict, got {type(data).__name__}")
        missing = {"schema", "digest", "payload"} - set(data)
        if missing:
            raise SnapshotError(f"snapshot document missing keys: {sorted(missing)}")
        schema, digest = data["schema"], data["digest"]
        if not isinstance(schema, int) or not isinstance(digest, str):
            raise SnapshotError("snapshot schema/digest have wrong types")
        return cls(schema=schema, digest=digest, payload=data["payload"])
