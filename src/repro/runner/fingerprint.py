"""Canonical content fingerprints.

A fingerprint pins a value exactly: every recorded digest (the harness
rows, the kernel pins, the deploy and epoch-loop digests) and the
benchmark's digest gates are :func:`canonical_fingerprint` values, so
equal digests must mean byte-identical results.  Canonicalization is
strict by construction — an object kind the canonicalizer does not
recognize raises :class:`FingerprintError` instead of falling back to
``repr`` (whose output can embed memory addresses and would silently
produce unstable digests).

Canonical form rules:

- dataclasses carry their qualified class name plus every field, so
  two different spec types with identical field values never collide;
- dicts sort by key; sets/frozensets sort by canonical encoding;
- enums encode as (class, value); callables as ``module.qualname``
  (lambdas and closures are rejected — their identity is not stable
  across processes);
- floats round-trip through ``repr`` (shortest exact form), so
  ``0.1 + 0.2`` and ``0.30000000000000004`` collide exactly when the
  bits do.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping


class FingerprintError(TypeError):
    """An object cannot be canonicalized for fingerprinting."""


def canonical_form(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical structure."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__qualname__,
                "value": canonical_form(obj.value)}
    custom = getattr(type(obj), "__fingerprint__", None)
    if custom is not None:
        return {
            "__custom__": f"{type(obj).__module__}."
                          f"{type(obj).__qualname__}",
            "value": canonical_form(custom(obj)),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": f"{type(obj).__module__}."
                             f"{type(obj).__qualname__}",
            "fields": {
                field.name: canonical_form(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        items = [(canonical_form(k), canonical_form(v))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return [canonical_form(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        encoded = [canonical_form(item) for item in obj]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": encoded}
    if isinstance(obj, type):
        return {"__type__": f"{obj.__module__}.{obj.__qualname__}"}
    if callable(obj):
        qualname = getattr(obj, "__qualname__", "")
        module = getattr(obj, "__module__", "")
        if not module or not qualname or "<locals>" in qualname \
                or "<lambda>" in qualname:
            raise FingerprintError(
                f"cannot fingerprint callable {obj!r}: only module-level "
                f"functions have a stable cross-process identity"
            )
        return {"__callable__": f"{module}.{qualname}"}
    raise FingerprintError(
        f"cannot fingerprint {type(obj).__qualname__!r} value {obj!r}; "
        f"pass primitives, dataclasses, enums, containers, or "
        f"module-level callables"
    )


def canonical_fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    encoded = json.dumps(canonical_form(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


__all__ = [
    "FingerprintError",
    "canonical_form",
    "canonical_fingerprint",
]
