"""Derived hypergraphs: general Kneser hypergraphs, the vertex space and
implicit properness test of categorical products, the H(n,k,a) family, and
the induced equitable-defect hypergraph used by the composite-modulus
reduction.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations, product as iproduct

from .bits import bits_of
from .hypergraph import (
    MAX_VERTICES,
    T_ENUM_CAP,
    CapExceededError,
    Coloring,
    Hypergraph,
    induced_mask,
)
from .invariants import _ecd


def _need_int(name: str, x: object, least: int) -> None:
    """A ValueError naming ``name`` unless ``x`` is an int >= ``least``."""
    if not isinstance(x, int) or x < least:
        raise ValueError(f"need {name} >= {least} (an int), got {x!r}")


def complete_uniform(n: int, k: int) -> Hypergraph:
    """The complete k-uniform hypergraph on [n] (all k-subsets)."""
    if k < 1:
        raise ValueError(f"edge size must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"edge size {k} exceeds vertex count {n}")
    return Hypergraph(n, combinations(range(1, n + 1), k))


def hnka(n: int, k: int, a: int) -> Hypergraph:
    """k-subsets of [n] that are not contained in [a]."""
    if a >= n:
        raise ValueError(f"excluded prefix a={a} must be smaller than n={n}")
    if a < 0 or k < 1:
        raise ValueError("need a >= 0 and k >= 1")
    edges = [e for e in combinations(range(1, n + 1), k) if e[-1] > a]
    return Hypergraph(n, edges)


def star(n: int) -> Hypergraph:
    """All 2-edges from vertex n to the others (center = n); needs n >= 2."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    return Hypergraph(n, [(i, n) for i in range(1, n)])


def cycle(n: int) -> Hypergraph:
    """The n-cycle graph; needs n >= 3."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Hypergraph(n, edges)


def edgeless(n: int) -> Hypergraph:
    return Hypergraph(n, [])


def kneser(H: Hypergraph, r: int) -> Hypergraph:
    """General Kneser hypergraph: one vertex per edge of ``H`` (in canonical
    edge order), hyperedges = r-sets of pairwise disjoint edges of ``H``.

    A depth-first walk picks vertices in ascending order, each from the
    mask of those after it that are disjoint from every one picked so far
    (an AND of per-vertex ``later`` masks). The hyperedges come out
    distinct and in canonical lex order, each with its vertex mask, and go
    to `Hypergraph._from_canonical` unchecked."""
    _need_int("r", r, 2)
    masks = H.edge_masks
    m = len(masks)
    if m > MAX_VERTICES:
        raise CapExceededError(f"{m} edges exceed vertex cap {MAX_VERTICES}")
    # later[i]: bit j set iff j > i and edges i + 1 and j + 1 of H are disjoint
    later = [
        sum(1 << j for j in range(i + 1, m) if masks[j] & mi == 0)
        for i, mi in enumerate(masks)
    ]
    hyperedges: list[tuple[int, ...]] = []
    hypermasks: list[int] = []

    def extend(chosen: tuple[int, ...], union: int, free: int, need: int) -> None:
        # ``free``: the vertices after ``chosen`` disjoint from all of it;
        # ``need`` >= 1 more are to be picked from it
        if need == 1:
            last = list(bits_of(free))
            hyperedges.extend([chosen + (v,) for v in last])
            hypermasks.extend([union | 1 << (v - 1) for v in last])
            return
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length()
            rest = free & later[v - 1]
            if rest.bit_count() >= need - 1:
                extend(chosen + (v,), union | low, rest, need - 1)

    extend((), 0, (1 << m) - 1, r)
    return Hypergraph._from_canonical(m, tuple(hyperedges), tuple(hypermasks))


class ProductSpace(namedtuple("ProductSpace", "dims")):
    """Row-major tuple <-> integer bijection for a product vertex space;
    ``dims`` is the tuple of factor sizes."""

    __slots__ = ()

    def __new__(cls, dims: tuple[int, ...]) -> ProductSpace:
        if not dims:
            raise ValueError("product needs at least one factor")
        if any(d < 0 for d in dims):
            raise ValueError("dimensions must be nonnegative")
        return super().__new__(cls, dims)

    @classmethod
    def for_factors(cls, factors: Sequence[Hypergraph]) -> ProductSpace:
        return cls(tuple(H.n for H in factors))

    @property
    def size(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def index_of(self, tup: Sequence[int]) -> int:
        if len(tup) != len(self.dims):
            raise ValueError("tuple arity mismatch")
        idx = 0
        for v, d in zip(tup, self.dims):
            if not 1 <= v <= d:
                raise ValueError(f"coordinate {v} outside [1..{d}]")
            idx = idx * d + (v - 1)
        return idx + 1


def product_is_proper(factors: Sequence[Hypergraph], coloring: Coloring) -> bool:
    """Proper-coloring test on the categorical product without materializing
    its edges.

    The coloring is improper iff some color class, intersected with a box
    e_1 x ... x e_t of factor edges, projects onto all of every e_j: that
    intersection is then itself a monochromatic product edge.
    """
    space = ProductSpace.for_factors(factors)
    if coloring.n != space.size:
        raise ValueError("coloring is not total on the product vertex space")
    for box in iproduct(*(H.edges for H in factors)):
        by_color: dict[int, list[set[int]]] = {}
        for cell in iproduct(*box):
            c = coloring.color_of(space.index_of(cell))
            for seen, v in zip(by_color.setdefault(c, [set() for _ in box]), cell):
                seen.add(v)
        for seen in by_color.values():
            if all(len(s) == len(e) for s, e in zip(seen, box)):
                return False
    return True


def t_hypergraph(H: Hypergraph, C: int, s: int) -> Hypergraph:
    """Hypergraph on V(H) whose edges are the vertex subsets A with
    ecd^s(H[A]) > (s-1)*C.

    All qualifying subsets are kept, not only the inclusion-minimal ones;
    proper-coloring semantics are unaffected because supersets of
    monochromatic sets are monochromatic. Each distinct induced
    subhypergraph is searched once per call, by the plain `_ecd`.
    """
    _need_int("reduction modulus s", s, 2)
    _need_int("color budget C", C, 0)
    if H.n > T_ENUM_CAP:
        raise CapExceededError(
            f"2^{H.n} subset enumeration exceeds cap 2^{T_ENUM_CAP}"
        )
    threshold = (s - 1) * C
    values: dict[Hypergraph, int] = {}
    edges = []
    for amask in range(1, 1 << H.n):
        A = induced_mask(H, amask)
        if A not in values:
            values[A] = _ecd(A, s)
        if values[A] > threshold:
            edges.append(tuple(bits_of(amask)))
    return Hypergraph(H.n, edges)
