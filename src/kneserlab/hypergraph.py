"""Core hypergraph model: vertices 1..n, edges as canonical bit masks.

All types are immutable after construction; every operation here is a pure
function.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import product as iproduct

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
    ``labels`` optionally records original vertex labels after relabeling
    operations such as :func:`induced`; it does not take part in equality.
    """

    __slots__ = ("n", "edges", "edge_masks", "labels", "_edge_set", "_hash")

    def __init__(
        self,
        n: int,
        edges: Iterable[Iterable[int]] = (),
        labels: Sequence[int] | None = None,
    ) -> None:
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "edge_masks", masks)
        object.__setattr__(self, "_edge_set", frozenset(masks))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must have one entry per vertex")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", hash((n, masks)))

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

    def label_of(self, v: int) -> int:
        return self.labels[v - 1] if self.labels is not None else v

    def has_singleton_edge(self) -> bool:
        return bool(self.edges) and len(self.edges[0]) == 1

    def is_edge_mask(self, mask: int) -> bool:
        return mask in self._edge_set

    def contains_edge_within(self, mask: int) -> bool:
        """True iff some hyperedge is entirely contained in ``mask``."""
        return any(em & ~mask == 0 for em in self.edge_masks)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


def span_table(H: Hypergraph) -> bytes:
    """Entry ``mask`` is 1 iff some hyperedge lies inside ``mask``: the
    `contains_edge_within` test tabulated over all 2^n masks, in linear time.

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


@dataclass(frozen=True)
class Coloring:
    """A total coloring: vertex i gets ``colors[i-1]``, colors within [1..C]."""

    colors: tuple[int, ...]
    color_count: int

    def __post_init__(self) -> None:
        if self.color_count < 0:
            raise ValueError("color_count must be nonnegative")
        for c in self.colors:
            if not isinstance(c, int) or not 1 <= c <= self.color_count:
                raise ValueError(f"color {c!r} outside [1..{self.color_count}]")

    @classmethod
    def of(cls, colors: Iterable[int], color_count: int | None = None) -> Coloring:
        tup = tuple(colors)
        if color_count is None:
            color_count = max(tup, default=0)
        return cls(tup, color_count)

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def to_json_dict(self) -> dict:
        return {"colors": list(self.colors), "color_count": self.color_count}


@dataclass(frozen=True)
class ChromaticValue:
    """A chromatic number: finite, INFINITE, or EXCEEDS(limit)."""

    kind: str  # "finite" | "infinite" | "exceeds"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "infinite", "exceeds"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "finite" and (self.value is None or self.value < 1):
            raise ValueError("finite chromatic value must be >= 1")
        if self.kind == "exceeds" and self.value is None:
            raise ValueError("exceeds needs the limit that was hit")

    @classmethod
    def finite(cls, k: int) -> ChromaticValue:
        return cls("finite", k)

    @classmethod
    def infinite(cls) -> ChromaticValue:
        return cls("infinite")

    @classmethod
    def exceeds(cls, limit: int) -> ChromaticValue:
        return cls("exceeds", limit)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"chromatic value {self} is not finite")
        assert self.value is not None
        return self.value

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "INFINITE"
        return f"EXCEEDS({self.value})"

    def to_json(self) -> int | str:
        return self.value if self.kind == "finite" else str(self)

    @classmethod
    def from_json(cls, value: int | str) -> ChromaticValue:
        """Inverse of `to_json`."""
        if isinstance(value, int):
            return cls.finite(value)
        if value == "INFINITE":
            return cls.infinite()
        return cls.exceeds(int(value.removeprefix("EXCEEDS(").removesuffix(")")))


def induced(H: Hypergraph, A: Iterable[int]) -> Hypergraph:
    """Subhypergraph induced by vertex subset ``A``, relabeled to 1..|A|.

    Vertices are relabeled by the order-preserving map from sorted(A); the
    original labels are retained in ``labels`` so user-facing output can
    report them.
    """
    kept = sorted(set(A))
    if kept and (kept[0] < 1 or kept[-1] > H.n):
        raise ValueError(f"subset {kept} not inside vertex set [1..{H.n}]")
    return induced_mask(H, mask_of(kept))


def induced_mask(H: Hypergraph, amask: int) -> Hypergraph:
    kept = list(bits_of(amask))
    remap = {v: i + 1 for i, v in enumerate(kept)}
    new_edges = [
        tuple(remap[v] for v in e)
        for e, em in zip(H.edges, H.edge_masks)
        if em & ~amask == 0
    ]
    labels = tuple(H.label_of(v) for v in kept)
    return Hypergraph(len(kept), new_edges, labels=labels)


def section(F: Hypergraph, parts: Sequence[Iterable[int]]) -> Hypergraph:
    """Subhypergraph on the union of the parts keeping edges that meet every
    part in exactly one vertex (and touch nothing outside the parts)."""
    masks = [mask_of(p) for p in parts]
    union = 0
    for pm in masks:
        if pm & union:
            raise ValueError("parts must be pairwise disjoint")
        union |= pm
    if union >> F.n:
        raise ValueError(f"parts not inside vertex set [1..{F.n}]")
    kept = list(bits_of(union))
    remap = {v: i + 1 for i, v in enumerate(kept)}
    new_edges = [
        tuple(remap[v] for v in e)
        for e, em in zip(F.edges, F.edge_masks)
        if em & ~union == 0 and all((em & pm).bit_count() == 1 for pm in masks)
    ]
    labels = tuple(F.label_of(v) for v in kept)
    return Hypergraph(len(kept), new_edges, labels=labels)


def is_proper(H: Hypergraph, coloring: Coloring) -> bool:
    """True iff no hyperedge is monochromatic (singleton edges always are)."""
    if coloring.n != H.n:
        raise ValueError(
            f"coloring is not total: {coloring.n} colors for {H.n} vertices"
        )
    cols = coloring.colors
    for e in H.edges:
        first = cols[e[0] - 1]
        if all(cols[v - 1] == first for v in e[1:]):
            return False
    return True


def is_colorful_balanced_complete(
    F: Hypergraph, parts: Sequence[Iterable[int]], coloring: Coloring
) -> bool:
    """Check the three defining properties of a colorful balanced complete
    multipartite subhypergraph of ``F`` spanned by ``parts``:

    - complete: every transversal picking one vertex per part is an edge;
    - balanced: part sizes differ by at most one;
    - colorful: colors within each part are pairwise distinct.
    """
    if coloring.n != F.n:
        raise ValueError("coloring is not total on the hypergraph")
    vertex_lists: list[tuple[int, ...]] = []
    seen = 0
    for p in parts:
        vs = tuple(sorted(set(p)))
        if not vs:
            raise ValueError("parts must be nonempty")
        pm = mask_of(vs)
        if pm & seen:
            raise ValueError("parts must be pairwise disjoint")
        if pm >> F.n:
            raise ValueError("parts must be inside the vertex set")
        seen |= pm
        vertex_lists.append(vs)
    sizes = [len(vs) for vs in vertex_lists]
    if max(sizes) - min(sizes) > 1:
        return False
    for vs in vertex_lists:
        if len({coloring.color_of(v) for v in vs}) != len(vs):
            return False
    for combo in iproduct(*vertex_lists):
        if not F.is_edge_mask(mask_of(combo)):
            return False
    return True


# --- JSON round-trips -------------------------------------------------------
#
# The canonical file format is byte-stable: storing a loaded canonical file
# reproduces it exactly.


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def store_hypergraph(H: Hypergraph) -> str:
    return dumps_canonical(H.to_json_dict())


def load_hypergraph(text: str) -> Hypergraph:
    data = json.loads(text)
    return Hypergraph(data["n"], data["edges"])


def store_coloring(c: Coloring) -> str:
    return dumps_canonical(c.to_json_dict())


def load_coloring(text: str) -> Coloring:
    data = json.loads(text)
    return Coloring(tuple(data["colors"]), data["color_count"])
