"""Core hypergraph model: vertices 1..n, edges as canonical bit masks.

All types are immutable after construction; every operation here is a pure
function.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable

from .bits import bits_of, mask_of

# Hard cap on vertex counts; every search in this package is desk scale and
# the cap keeps accidental blow-ups loud instead of slow.
MAX_VERTICES = 128

# The largest n whose 2^n vertex subsets are enumerated or tabulated.
T_ENUM_CAP = 16

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class CapExceededError(ValueError):
    """An enumeration or materialization exceeds the build-time cap."""


class Hypergraph:
    """A finite hypergraph on vertex set {1..n} with distinct nonempty edges.

    Edges are stored in canonical order (by size, then lexicographically by
    sorted vertex list) so equality of hypergraphs is structural equality.
    """

    __slots__ = ("n", "edges", "edge_masks", "_hash")

    def __new__(cls, n: int, edges: Iterable[Iterable[int]] = ()) -> Hypergraph:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {n!r}")
        if n > MAX_VERTICES:
            raise CapExceededError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
        canon: list[tuple[int, ...]] = []
        for e in edges:
            vs = tuple(sorted(set(e)))
            if not vs:
                raise ValueError("hyperedges must be nonempty")
            if vs[0] < 1 or vs[-1] > n:
                raise ValueError(f"edge {vs} not inside vertex set [1..{n}]")
            canon.append(vs)
        canon.sort(key=lambda vs: (len(vs), vs))
        masks = tuple(mask_of(vs) for vs in canon)
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate hyperedges")
        return cls._from_canonical(n, tuple(canon), masks)

    @classmethod
    def _from_canonical(
        cls, n: int, edges: tuple[tuple[int, ...], ...], masks: tuple[int, ...]
    ) -> Hypergraph:
        """The hypergraph with these fields, stored as given: no edge is
        sorted, de-duplicated or checked. Precondition: ``n`` is an int in
        [0..MAX_VERTICES], each edge is strictly increasing inside [1..n],
        the edges are distinct and in canonical (size, lex) order, and
        ``masks[i] == mask_of(edges[i])``. Only builders whose output meets
        it by construction call this (`induced_mask` and
        `constructions.kneser`); every other input goes through
        ``Hypergraph(n, edges)``, which ends here once its checks pass."""
        H = object.__new__(cls)
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "edges", edges)
        object.__setattr__(H, "edge_masks", masks)
        object.__setattr__(H, "_hash", hash((n, masks)))
        return H

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edge_masks == other.edge_masks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={list(self.edges)!r})"

    @property
    def edge_count(self) -> int:
        return len(self.edge_masks)

    def has_singleton_edge(self) -> bool:
        return bool(self.edges) and len(self.edges[0]) == 1

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


def span_table(H: Hypergraph) -> bytes:
    """Entry ``mask`` is 1 iff some hyperedge lies inside ``mask``, tabulated
    over all 2^n masks in linear time.

    Each edge mask sets its own bit of a 2^n-bit integer; then, one vertex
    bit i at a time, every set mask lacking i also sets the mask with i (a
    shift by 2^i under the "bit i clear" pattern, built by doubling).
    """
    if H.n > T_ENUM_CAP:
        raise CapExceededError(f"2^{H.n} span table exceeds cap 2^{T_ENUM_CAP}")
    size = 1 << H.n
    table = 0
    for em in H.edge_masks:
        table |= 1 << em
    for i in range(H.n):
        step = 1 << i
        low, width = (1 << step) - 1, 2 * step
        while width < size:
            low |= low << width
            width *= 2
        table |= (table & low) << step
    return format(table, f"0{size}b")[::-1].encode().translate(_BIT_BYTES)


class Coloring(namedtuple("Coloring", "colors color_count")):
    """A total coloring: vertex i gets ``colors[i-1]`` (``colors`` a tuple of
    ints), colors within [1..C] for C = ``color_count``."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], color_count: int) -> Coloring:
        if color_count < 0:
            raise ValueError("color_count must be nonnegative")
        for c in colors:
            if not isinstance(c, int) or not 1 <= c <= color_count:
                raise ValueError(f"color {c!r} outside [1..{color_count}]")
        return super().__new__(cls, colors, color_count)

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def to_json_dict(self) -> dict:
        return {"colors": list(self.colors), "color_count": self.color_count}


class ChromaticValue(namedtuple("ChromaticValue", "form")):
    """A chromatic number in the form that is cached and printed: an int,
    "INFINITE" or "EXCEEDS(limit)". Every caller reads it as that form at
    once; the wrapper stays only because the benchmark's ``kneser_encode``
    and ``product_encode`` (``perfbench/workloads.py``) call ``to_json()``."""

    __slots__ = ()

    def to_json(self) -> int | str:
        return self.form


def induced_mask(H: Hypergraph, amask: int) -> Hypergraph:
    """Subhypergraph induced by the vertex mask (inside [1..H.n]), relabeled
    to 1..|A| in order.

    The relabeling is increasing, so the kept edges stay distinct, sorted
    and in canonical order: they go to `Hypergraph._from_canonical` as
    they come."""
    kept = list(bits_of(amask))
    label = {v: i for i, v in enumerate(kept, start=1)}
    edges = tuple([
        tuple([label[v] for v in e])
        for e, em in zip(H.edges, H.edge_masks)
        if em & ~amask == 0
    ])
    return Hypergraph._from_canonical(len(kept), edges, tuple(map(mask_of, edges)))


# --- JSON round-trips -------------------------------------------------------
#
# The canonical file format is byte-stable: storing a loaded canonical file
# reproduces it exactly. The cache keys and lines use the same writer.


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def store_hypergraph(H: Hypergraph) -> str:
    return canonical_json(H.to_json_dict()) + "\n"


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _json(kind: type, x: object):
    """``x`` if its type is exactly ``kind``, else a ValueError naming the kind."""
    if type(x) is not kind:  # not isinstance: JSON true loads as True, an int
        raise ValueError(f"expected {_JSON_KINDS[kind]}, got {x!r}")
    return x


def _field(data: dict, key: str, kind: type):
    """``data[key]`` checked by `_json`, else a ValueError naming the key."""
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    return _json(kind, data[key])


def load_hypergraph(text: str) -> Hypergraph:
    data = _json(dict, json.loads(text))
    n = _field(data, "n", int)
    return Hypergraph(n, [[_json(int, v) for v in _json(list, e)] for e in _field(data, "edges", list)])


def store_coloring(c: Coloring) -> str:
    return canonical_json(c.to_json_dict()) + "\n"


def load_coloring(text: str) -> Coloring:
    data = _json(dict, json.loads(text))
    colors = tuple(_json(int, c) for c in _field(data, "colors", list))
    return Coloring(colors, _field(data, "color_count", int))
