"""Declarative description of a parameter sweep.

A :class:`SweepSpec` is the unit of work the
:class:`~repro.runner.runner.SweepRunner` executes: a named grid of
parameter points and a module-level *point function* that measures
one point.

Point functions must be importable module-level callables taking
keyword arguments (the merged ``params`` + grid point) and returning a
list of rows.  That contract is what makes a point executable in a
worker process: the pool pickles the spec there and the rows back.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, \
    Sequence


class SweepSpec:
    """One experiment's parameter grid plus its point function."""

    __slots__ = ("name", "point", "grid", "params")

    def __init__(self, name: str, point: Callable[..., List[Any]],
                 grid: Sequence[Mapping[str, Any]],
                 params: Optional[Mapping[str, Any]] = None):
        self.name = name
        self.point = point
        self.grid = tuple(dict(p) for p in grid)
        self.params = dict(params or {})
        qualname = getattr(point, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"sweep {name!r}: point function {qualname!r} must be "
                f"module-level so worker processes can import it"
            )

    def __repr__(self) -> str:
        return f"SweepSpec(name={self.name!r}, points={len(self.grid)})"

    def point_params(self, index: int) -> Dict[str, Any]:
        """The merged keyword arguments of grid point ``index``."""
        merged = dict(self.params)
        merged.update(self.grid[index])
        return merged

    def __len__(self) -> int:
        return len(self.grid)


__all__ = ["SweepSpec"]
