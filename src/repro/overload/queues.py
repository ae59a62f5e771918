"""Bounded-queue drop policies.

A :class:`~repro.sim.kernel.ResourceTimeline` built with a
``queue_limit`` refuses to let more than that many tasks wait on one
resource at once.  What happens to the overflow is pluggable:

- :class:`TailDrop` — the arriving batch is dropped (classic NIC ring
  behaviour: the newest work loses).
- :class:`HeadDrop` — the *oldest* in-flight batch is sacrificed and
  the arriving batch takes over its committed service slot (head-drop
  queues hand the evicted head's future service to the newcomer).
  The old batch's delivery is cancelled — its packets move from
  delivered to dropped and its latency sample is withdrawn — while
  the newcomer inherits the completion time, so the delivered rate
  matches tail-drop but the surviving samples are *fresher* (lower
  mean/p50 latency under sustained overload).
- :class:`DeadlineDrop` — the arriving batch is dropped only if its
  *projected* completion (current backlog drain plus a smoothed
  per-batch span estimate) already misses the latency SLO; work that
  would be delivered dead-on-arrival is never started.

Policies are frozen dataclasses keyed by a ``name`` string so sweep
grids and CLI flags stay trivially fingerprintable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

#: The policy names :func:`parse_drop_policy` accepts.
DROP_POLICY_NAMES: Tuple[str, ...] = ("tail", "head", "deadline")


@dataclass(frozen=True)
class DropPolicy:
    """Base class for bounded-queue overflow policies."""

    name: ClassVar[str] = "?"


@dataclass(frozen=True)
class TailDrop(DropPolicy):
    """Drop the arriving batch when the ingress queue is full."""

    name: ClassVar[str] = "tail"


@dataclass(frozen=True)
class HeadDrop(DropPolicy):
    """Cancel the oldest in-flight batch; the arriving batch takes
    over its committed service slot (completion and deliverables)."""

    name: ClassVar[str] = "head"


@dataclass(frozen=True)
class DeadlineDrop(DropPolicy):
    """Shed arriving batches whose projected completion misses the SLO.

    ``deadline_ms`` defaults to the enclosing
    :class:`~repro.overload.config.OverloadConfig`'s ``slo_ms``; set it
    explicitly to shed against a different (e.g. tighter) bound than
    the reported SLO.
    """

    name: ClassVar[str] = "deadline"
    deadline_ms: Optional[float] = None

    def __post_init__(self):
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ValueError("deadline_ms must be positive")


def parse_drop_policy(text: str) -> DropPolicy:
    """Build a policy from its CLI/sweep name (``tail``/``head``/
    ``deadline``); ``deadline:<ms>`` pins an explicit deadline."""
    name, _, argument = text.partition(":")
    if name == "tail":
        return TailDrop()
    if name == "head":
        return HeadDrop()
    if name == "deadline":
        return DeadlineDrop(
            deadline_ms=float(argument) if argument else None
        )
    raise ValueError(
        f"unknown drop policy {text!r}; expected one of "
        f"{list(DROP_POLICY_NAMES)}"
    )


__all__ = [
    "DROP_POLICY_NAMES",
    "DeadlineDrop",
    "DropPolicy",
    "HeadDrop",
    "TailDrop",
    "parse_drop_policy",
]
