"""Fuzz-regression corpus: replay fuzz-found failures forever.

Every failure the Hypothesis fuzz suites find is distilled to the seed
and knobs that reproduce it and appended to a JSON corpus file
(``tests/regressions/corpus.json``).  The corpus replays in the tier-1
test job — fast and fully deterministic — so a fixed bug can never
silently regress, even though the property suites only run behind the
``property`` marker.

An entry captures exactly the inputs of the canonical fuzz recipe
(mirroring ``test_random_chains_are_equivalent``):

    rng = random.Random(seed)
    chain = random_chain_spec(rng, max_len=max_len)
    traffic = random_traffic_spec(rng)
    algorithm = rng.choice(["kl", "agglomerative"])
    run_differential(chain, traffic_spec=traffic,
                     packet_count=packet_count, batch_size=batch_size,
                     algorithm=algorithm)

The loader is deliberately strict (:class:`CorpusFormatError` on any
malformed entry): a corrupt appended entry must fail loudly in CI, not
silently replay nothing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.validate.differential import DifferentialReport, run_differential
from repro.validate.fuzz import (
    MIN_CHAIN_NFS,
    random_chain_spec,
    random_traffic_spec,
)

#: Corpus file format version this loader understands.
CORPUS_VERSION = 1

_REQUIRED_FIELDS: Dict[str, type] = {
    "id": str,
    "seed": int,
    "max_len": int,
    "packet_count": int,
    "batch_size": int,
}

_OPTIONAL_FIELDS: Dict[str, type] = {
    "description": str,
}


class CorpusFormatError(ValueError):
    """The corpus file is malformed (schema violation)."""


@dataclass(frozen=True)
class CorpusEntry:
    """One fuzz-found failure, pinned by seed and generator knobs."""

    id: str
    seed: int
    max_len: int
    packet_count: int
    batch_size: int
    description: str = ""

    def replay(self) -> DifferentialReport:
        """Re-run the differential check exactly as the fuzzer did."""
        rng = random.Random(self.seed)
        chain_spec = random_chain_spec(rng, max_len=self.max_len)
        traffic = random_traffic_spec(rng)
        algorithm = rng.choice(["kl", "agglomerative"])
        return run_differential(
            chain_spec,
            traffic_spec=traffic,
            packet_count=self.packet_count,
            batch_size=self.batch_size,
            algorithm=algorithm,
        )


def _check_entry(raw: Any, index: int) -> CorpusEntry:
    where = f"corpus entry #{index}"
    if not isinstance(raw, dict):
        raise CorpusFormatError(f"{where}: expected an object, got "
                                f"{type(raw).__name__}")
    for key, expected in _REQUIRED_FIELDS.items():
        if key not in raw:
            raise CorpusFormatError(f"{where}: missing required field "
                                    f"{key!r}")
        value = raw[key]
        # bool is an int subclass; reject it explicitly for int fields.
        bad_bool = expected is int and isinstance(value, bool)
        if not isinstance(value, expected) or bad_bool:
            raise CorpusFormatError(
                f"{where}: field {key!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    for key, expected in _OPTIONAL_FIELDS.items():
        if key in raw and not isinstance(raw[key], expected):
            raise CorpusFormatError(
                f"{where}: field {key!r} must be {expected.__name__}, "
                f"got {type(raw[key]).__name__}"
            )
    unknown = set(raw) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
    if unknown:
        raise CorpusFormatError(
            f"{where}: unknown field(s) {sorted(unknown)}; allowed: "
            f"{sorted(_REQUIRED_FIELDS) + sorted(_OPTIONAL_FIELDS)}"
        )
    for key, floor in (("max_len", MIN_CHAIN_NFS), ("packet_count", 1),
                       ("batch_size", 1)):
        if raw[key] < floor:
            raise CorpusFormatError(f"{where}: {key!r} must be at least "
                                    f"{floor}, got {raw[key]}")
    if raw["seed"] < 0:
        raise CorpusFormatError(f"{where}: 'seed' must be non-negative")
    return CorpusEntry(
        id=raw["id"],
        seed=raw["seed"],
        max_len=raw["max_len"],
        packet_count=raw["packet_count"],
        batch_size=raw["batch_size"],
        description=raw.get("description", ""),
    )


def load_corpus(path: Union[str, Path]) -> List[CorpusEntry]:
    """Load and strictly validate a regression-corpus file.

    Raises :class:`CorpusFormatError` on any schema violation: wrong
    top-level shape, unsupported version, missing/unknown/ill-typed
    entry fields, knobs below their floors (a random chain has at
    least 2 NFs, a trace and a batch at least 1 packet), or duplicate
    entry ids.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CorpusFormatError(f"{path}: top level must be an object")
    if raw.get("version") != CORPUS_VERSION:
        raise CorpusFormatError(
            f"{path}: unsupported corpus version {raw.get('version')!r} "
            f"(expected {CORPUS_VERSION})"
        )
    entries_raw = raw.get("entries")
    if not isinstance(entries_raw, list):
        raise CorpusFormatError(f"{path}: 'entries' must be a list")
    unknown_top = set(raw) - {"version", "entries"}
    if unknown_top:
        raise CorpusFormatError(
            f"{path}: unknown top-level field(s) {sorted(unknown_top)}"
        )
    entries = [_check_entry(e, i) for i, e in enumerate(entries_raw)]
    seen: Dict[str, int] = {}
    for index, entry in enumerate(entries):
        if entry.id in seen:
            raise CorpusFormatError(
                f"corpus entry #{index}: duplicate id {entry.id!r} "
                f"(first used by entry #{seen[entry.id]})"
            )
        seen[entry.id] = index
    return entries


__all__ = ["CORPUS_VERSION", "CorpusEntry", "CorpusFormatError",
           "load_corpus"]
