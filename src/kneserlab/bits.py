"""Bit-mask helpers for vertex subsets (vertex v <-> bit v-1)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the 1-based positions set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
