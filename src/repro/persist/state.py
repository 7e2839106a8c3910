"""State codec: object state trees → JSON + packed ``.npy`` payloads.

The artifact format stores a model as a *state tree*: a JSON document in
which every ``numpy`` array has been hoisted out into a named payload
(written as a raw ``.npy`` file and checksummed by the manifest), and
every domain object has been replaced by a ``{"__hd__": "object"}``
marker carrying its registered class name plus the encoded result of its
``get_state()``.

Supported leaf/compound values:

* ``None``, ``bool``, ``int``, ``float``, ``str`` (numpy scalars are
  normalised to their Python equivalents);
* ``numpy.ndarray`` of any non-object dtype → payload reference;
* ``list`` / ``tuple`` (tuples round-trip as tuples);
* ``dict`` with string keys;
* instances of classes registered in :mod:`repro.persist.registry`.

Anything else raises :class:`~repro.persist.errors.StateError` naming
the offending path inside the tree, so a model with unsupported state
fails at *save* time with a pointer to the attribute — never at load
time with a corrupt artifact.

There is deliberately no pickle fallback anywhere in this module: the
class marker resolves through an explicit registry (never a dynamic
import of an attacker-controlled dotted path), and payloads are plain
``.npy`` arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.persist.errors import StateError

#: Marker key identifying codec nodes inside the JSON tree.  User dicts
#: are wrapped in a ``dict`` node, so a state dict that happens to contain
#: this key never collides with the codec's own markers.
MARKER = "__hd__"


def _normalize_scalar(value: Any) -> Any:
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def encode_value(value: Any, path: str, payloads: Dict[str, np.ndarray]) -> Any:
    """Encode one value into the JSON tree, appending arrays to ``payloads``."""
    from repro.persist.registry import lookup_class

    value = _normalize_scalar(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            raise StateError(
                f"{path}: object-dtype arrays cannot be persisted (would "
                f"require pickle); convert to a numeric or string-free layout"
            )
        ref = f"a{len(payloads):04d}"
        payloads[ref] = value
        return {MARKER: "ndarray", "ref": ref}
    if isinstance(value, tuple):
        return {
            MARKER: "tuple",
            "items": [
                encode_value(v, f"{path}[{i}]", payloads) for i, v in enumerate(value)
            ],
        }
    if isinstance(value, list):
        return [encode_value(v, f"{path}[{i}]", payloads) for i, v in enumerate(value)]
    if isinstance(value, dict):
        items: Dict[str, Any] = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise StateError(
                    f"{path}: dict key {key!r} is not a string; JSON state "
                    f"trees require string keys (store key lists explicitly)"
                )
            items[key] = encode_value(v, f"{path}.{key}", payloads)
        return {MARKER: "dict", "items": items}
    entry = lookup_class(type(value))
    if entry is not None:
        return {
            MARKER: "object",
            "class": entry.name,
            "state": encode_value(entry.to_state(value), f"{path}<{entry.name}>", payloads),
        }
    raise StateError(
        f"{path}: cannot persist value of type {type(value).__module__}."
        f"{type(value).__qualname__}; register it in repro.persist.registry "
        f"or store plain arrays/scalars"
    )


def decode_value(node: Any, path: str, payloads: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode_value` over an already-verified payload map."""
    from repro.persist.registry import lookup_name

    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, list):
        return [decode_value(v, f"{path}[{i}]", payloads) for i, v in enumerate(node)]
    if isinstance(node, dict):
        kind = node.get(MARKER)
        if kind == "ndarray":
            ref = node.get("ref")
            if ref not in payloads:
                raise StateError(f"{path}: dangling payload reference {ref!r}")
            return payloads[ref]
        if kind == "tuple":
            return tuple(
                decode_value(v, f"{path}[{i}]", payloads)
                for i, v in enumerate(node["items"])
            )
        if kind == "dict":
            return {
                key: decode_value(v, f"{path}.{key}", payloads)
                for key, v in node["items"].items()
            }
        if kind == "object":
            entry = lookup_name(node.get("class"))
            if entry is None:
                raise StateError(
                    f"{path}: artifact references unknown class "
                    f"{node.get('class')!r}; not in the persistence registry "
                    f"of this build"
                )
            state = decode_value(node["state"], f"{path}<{entry.name}>", payloads)
            try:
                return entry.from_state(state)
            except (TypeError, ValueError) as exc:
                # e.g. a persisted constructor parameter this build's
                # class no longer accepts: an artifact error, not a crash.
                raise StateError(
                    f"{path}: cannot rebuild {entry.name} from its saved "
                    f"state: {exc}"
                ) from exc
        raise StateError(f"{path}: unrecognised codec node {kind!r}")
    raise StateError(f"{path}: unrecognised JSON value of type {type(node).__name__}")


def encode_state(obj: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Encode a registered object into ``(json_tree, payloads)``."""
    payloads: Dict[str, np.ndarray] = {}
    tree = encode_value(obj, "$", payloads)
    if not (isinstance(tree, dict) and tree.get(MARKER) == "object"):
        raise StateError(
            f"top-level artifact object of type {type(obj).__name__} is not "
            f"registered in repro.persist.registry"
        )
    return tree, payloads


def decode_state(tree: Any, payloads: Dict[str, np.ndarray]) -> Any:
    """Decode the tree produced by :func:`encode_state`."""
    return decode_value(tree, "$", payloads)


__all__: List[str] = [
    "MARKER",
    "decode_state",
    "decode_value",
    "encode_state",
    "encode_value",
]
