"""Exact integer draws from a :class:`random.Random` stream, without
its per-draw call chain.

``randint`` reaches the Mersenne Twister through ``randrange`` and
``_randbelow``: three Python frames per draw, which the seeded input
builders (ACLs, FIBs, flow tables) pay tens of thousands of times.
:func:`_below` is ``_randbelow`` itself, called on the bound
``getrandbits``, so it consumes the same words and returns the same
values:

- ``randint(a, b)`` is ``a + _below(bits, b - a + 1)``;
- ``choice(seq)`` is ``seq[_below(bits, len(seq))]``;
- ``randrange(n)`` is ``_below(bits, n)``.
"""

from __future__ import annotations

from typing import Callable


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform integer in ``[0, n)``, drawn as ``Random._randbelow``
    draws it: ``n.bit_length()`` bits at a time until one is below
    ``n``."""
    if n < 1:
        raise ValueError(f"empty range: nothing below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
