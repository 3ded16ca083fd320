"""JSON-safe encoding of live simulator state.

Snapshot payloads are nested dicts assembled from ``state_dict()``
methods all over the simulator.  Most values are already plain JSON
scalars (numpy RNG bit-generator states, counters, cursors), but two
kinds are not:

- **numpy arrays** (page placements, CBF counter stores, per-page
  timestamps) -- encoded as a marker dict carrying base64 raw bytes,
  dtype and shape, so the round trip is *bit-exact* (no float
  stringification, no precision loss);
- **numpy scalars** -- collapsed to the equivalent Python scalar.

Tuples become lists (JSON has no tuple); ``state_dict()`` producers
must accept lists back in ``load_state()``.
"""

from __future__ import annotations

import base64
from typing import Any

import numpy as np

#: Marker key identifying an encoded ndarray.  The key is not a valid
#: Python identifier on purpose, so no state dict can collide with it.
NDARRAY_KEY = "__ndarray__"

_NDARRAY_FIELDS = frozenset({NDARRAY_KEY, "dtype", "shape"})

#: Exact types that are JSON values as they are.  Checked by exact type
#: first, so a long list of labels or counters costs one set lookup per
#: item (numpy scalars subclassing ``float`` still go through ``item``).
_PLAIN = frozenset({str, int, float, bool, type(None)})


def encode_state(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable values.

    Raises TypeError for anything that cannot round-trip (sets,
    arbitrary objects, non-string dict keys): state dicts must be
    explicit about their representation rather than rely on lossy
    coercion.
    """
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            NDARRAY_KEY: base64.b64encode(data.tobytes()).decode("ascii"),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"state dict keys must be str, got {key!r} "
                    f"({type(key).__name__}); serialize as a list of pairs"
                )
            out[key] = encode_state(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [encode_state(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} into snapshot state")


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state` (ndarray markers come back as
    writable arrays)."""
    if isinstance(obj, dict):
        if set(obj) == _NDARRAY_FIELDS:
            raw = base64.b64decode(obj[NDARRAY_KEY])
            arr = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
            return arr.reshape(obj["shape"]).copy()
        return {key: decode_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_state(item) for item in obj]
    return obj


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """The full bit-generator state of ``rng`` (JSON-safe as-is)."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a state captured by :func:`rng_state`."""
    rng.bit_generator.state = state
