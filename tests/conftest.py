"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive everything from the definitions by
plain enumeration; they never call the pruned implementations they check.
The exception is ``alt_min_plain``, which checks only the ordering walk
of exact ``alt_min`` and reuses its per-ordering search.
``lex_least_coloring_static`` checks only the certificate search of the
coloring engine: it takes its boxes from ``compile_boxes_naive``, a plain
compiler of the engine's box layout that a differential test holds equal
to the engine's own. ``labels_naive`` is the only definition of the
alternation labeling (the n - alt_p labeling of Alishahi-Hajiabolhassan):
the library sweeps only the balanced one, and the tests hand these labels
to its checks. They take the alternation orders, which that labeling is
defined by, from ``alt_min``.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import prod
from types import SimpleNamespace

import pytest

from kneserlab import (
    MAX_VERTICES,
    CapExceededError,
    Coloring,
    Hypergraph,
    Permutation,
    ProductSpace,
    Violation,
    alt_min,
    complete_uniform,
    hnka,
    kneser,
    solve_chromatic,
)
from kneserlab.bits import bits_of, mask_of
from kneserlab.hypergraph import span_table
from kneserlab.invariants import _alt_search, _edge_index, _Found
from kneserlab.prooflab import _color_reader, _saturated_blocks, _tau

SEED = 20240501


# --- test-side views of library values -------------------------------------------


def induced(H: Hypergraph, A: Iterable[int]) -> Hypergraph:
    """Subhypergraph induced by the vertex set ``A``, relabeled to 1..|A| in
    order, built through the checking ``Hypergraph`` constructor (the oracle
    of `induced_mask`)."""
    kept = sorted(set(A))
    label = {v: i for i, v in enumerate(kept, start=1)}
    return Hypergraph(len(kept), [[label[v] for v in e] for e in H.edges if set(e) <= label.keys()])


def projection_coloring(
    factors: Sequence[Hypergraph], which: int, coloring: Coloring
) -> Coloring:
    """Color the product, in row-major vertex order, by projecting to factor
    ``which`` (0-based)."""
    assert coloring.n == factors[which].n
    tuples = itertools.product(*(range(1, H.n + 1) for H in factors))
    return Coloring(tuple(coloring.color_of(t[which]) for t in tuples), coloring.color_count)


def tau_of(
    factors: Sequence[Hypergraph], p: int, entries: tuple[int, ...], coloring: Coloring
) -> frozenset[tuple[int, int]]:
    """tau(X) as its (sign, color) cells: the cells of the `_tau` rows, read
    from the class masks of X's blocks in the factors' saturated-block
    tables (a KeyError for a deficient X)."""
    masks, start = [], 0
    for H in factors:
        masks.append(dict(_saturated_blocks(H, p))[entries[start : start + H.n]])
        start += H.n
    rows = _tau(tuple(zip(*masks)), _color_reader(factors, coloring))
    return frozenset((s, c) for s, row in enumerate(rows, start=1) for c in row)


# --- oracles ---------------------------------------------------------------------


def kneser_naive(H: Hypergraph, r: int) -> Hypergraph:
    """Oracle for `kneser`: every r-subset of edge indices whose edges are
    pairwise disjoint, built through the checking ``Hypergraph`` constructor."""
    edges = [set(e) for e in H.edges]
    return Hypergraph(len(edges), [
        idx
        for idx in itertools.combinations(range(1, len(edges) + 1), r)
        if all(not edges[i - 1] & edges[j - 1] for i, j in itertools.combinations(idx, 2))
    ])


def has_disjoint_edges(edges: Sequence[Sequence[int]], r: int) -> bool:
    """True iff some r of ``edges`` are pairwise disjoint."""
    if r == 0:
        return True
    return any(
        has_disjoint_edges([f for f in edges[i + 1 :] if not set(e) & set(f)], r - 1)
        for i, e in enumerate(edges)
    )


def prefix_block_coloring(H: Hypergraph, r: int) -> Coloring:
    """The prefix-block coloring of KG^r(H), one color per vertex (edge of
    H, in canonical order). Take the largest prefix [m] of [n] inside
    which H has no r pairwise disjoint edges. An edge leaving [m] gets the
    block of r - 1 consecutive vertices after m that holds its least vertex
    outside [m]; the edges inside [m], if any, share one more color. So it
    has ceil((n - m)/(r - 1)) + [H[m] has an edge] colors."""
    m = max(
        j for j in range(H.n + 1)
        if not has_disjoint_edges([e for e in H.edges if e[-1] <= j], r)
    )
    blocks = -(-(H.n - m) // (r - 1))
    inside = any(e[-1] <= m for e in H.edges)
    colors = tuple(
        blocks + 1 if e[-1] <= m else -(-(min(v for v in e if v > m) - m) // (r - 1))
        for e in H.edges
    )
    return Coloring(colors, blocks + inside)


def is_proper_kneser_coloring(H: Hypergraph, r: int, coloring: Coloring) -> bool:
    """Properness on KG^r(H), read from H's edges alone: no color class of
    edges of H holds r pairwise disjoint ones."""
    assert coloring.n == H.edge_count
    return not any(
        has_disjoint_edges([e for e, c in zip(H.edges, coloring.colors) if c == color], r)
        for color in range(1, coloring.color_count + 1)
    )


def contains_edge_within(H: Hypergraph, mask: int) -> bool:
    """True iff some hyperedge of ``H`` lies entirely inside ``mask``."""
    return any(em & ~mask == 0 for em in H.edge_masks)


def class_vertices(coloring: Coloring, color: int) -> tuple[int, ...]:
    """The vertices that ``coloring`` gives ``color``, ascending."""
    return tuple(v for v, c in enumerate(coloring.colors, start=1) if c == color)


def class_mask(entries: Sequence[int], sign: int) -> int:
    """The class of ``sign`` in a sign vector: bit i-1 set iff entry i is ``sign``."""
    return mask_of(i for i, x in enumerate(entries, start=1) if x == sign)


def alt_naive(entries: Sequence[int]) -> int:
    """Oracle: longest alternating subsequence by dynamic programming."""
    vals = [x for x in entries if x]
    best = [0] * len(vals)
    for i, x in enumerate(vals):
        prev = max((best[j] for j in range(i) if vals[j] != x), default=0)
        best[i] = prev + 1
    return max(best, default=0)


def cd_naive(H: Hypergraph, r: int) -> int:
    """Oracle: enumerate removal sets by size and check r-colorability of the
    induced hypergraph by enumerating all colorings."""
    n = H.n
    for removed_size in range(n + 1):
        for removed in itertools.combinations(range(1, n + 1), removed_size):
            kept = [v for v in range(1, n + 1) if v not in removed]
            sub = induced(H, kept)
            if _has_proper_r_coloring(sub, r, equitable=False):
                return removed_size
    return n


def ecd_naive(H: Hypergraph, r: int) -> int:
    n = H.n
    for removed_size in range(n + 1):
        for removed in itertools.combinations(range(1, n + 1), removed_size):
            kept = [v for v in range(1, n + 1) if v not in removed]
            sub = induced(H, kept)
            if _has_proper_r_coloring(sub, r, equitable=True):
                return removed_size
    return n


def _has_proper_r_coloring(H: Hypergraph, r: int, equitable: bool) -> bool:
    if H.n == 0:
        return True
    for assignment in itertools.product(range(r), repeat=H.n):
        masks = [0] * r
        for v, cls in enumerate(assignment, start=1):
            masks[cls] |= 1 << (v - 1)
        if any(contains_edge_within(H, m) for m in masks):
            continue
        if equitable:
            sizes = [m.bit_count() for m in masks]
            if max(sizes) - min(sizes) > 1:
                continue
        return True
    return False


def alt_sigma(H: Hypergraph, r: int, sigma: Permutation) -> int:
    """Largest alternation over sign vectors whose classes, read through the
    ordering ``sigma``, are all edge-free: the library's per-ordering search
    on its own, checked against `alt_sigma_naive`."""
    assert len(sigma.sigma) == H.n
    spans, edges_at = _edge_index(H)
    return _alt_search(H, r, sigma.sigma, spans, cutoff=None, edges_at=edges_at)


def alt_sigma_naive(H: Hypergraph, r: int, sigma: Permutation) -> int:
    best = 0
    for entries in itertools.product(range(r + 1), repeat=H.n):
        ok = True
        for s in range(1, r + 1):
            vmask = mask_of(sigma.sigma[i] for i, x in enumerate(entries) if x == s)
            if contains_edge_within(H, vmask):
                ok = False
                break
        if ok:
            best = max(best, alt_naive(entries))
    return best


def alt_min_lex_naive(H: Hypergraph, r: int) -> tuple[int, tuple[int, ...]]:
    """Oracle: plain minimum over all orderings of the exhaustive per-sigma
    maximum, with the first ordering in lex order that attains it."""
    scored = [
        (alt_naive(X), [[i + 1 for i, x in enumerate(X) if x == s] for s in range(1, r + 1)])
        for X in itertools.product(range(r + 1), repeat=H.n)
    ]
    best = None
    for perm in itertools.permutations(range(1, H.n + 1)):
        local = 0
        for val, classes in scored:
            if val <= local:
                continue
            ok = True
            for positions in classes:
                vmask = mask_of(perm[i - 1] for i in positions)
                if contains_edge_within(H, vmask):
                    ok = False
                    break
            if ok:
                local = val
        if best is None or local < best:
            best, first = local, perm
    return best, first


def alt_min_naive(H: Hypergraph, r: int) -> int:
    return alt_min_lex_naive(H, r)[0]


def alt_min_plain(H: Hypergraph, r: int) -> tuple[int, tuple[int, ...]]:
    """Differential oracle for the ordering walk of exact alt_min: every one
    of the n! orderings in one plain itertools.permutations loop, each scored
    by the library's per-ordering search (itself checked against
    alt_sigma_naive). Returns (value, lex-least optimal ordering)."""
    spans = span_table(H)
    best = None
    for order in itertools.permutations(range(1, H.n + 1)):
        if best is None:
            best = _alt_search(H, r, order, spans, cutoff=None)
            cert = order
            continue
        try:
            val = _alt_search(H, r, order, spans, cutoff=best)
        except _Found:
            continue
        if val < best:
            best, cert = val, order
    return best, cert


def twins_naive(H: Hypergraph) -> set[tuple[int, int]]:
    """Oracle for `_twins_below`: the pairs u < v whose transposition,
    applied to every vertex of every edge, gives back the same edge set."""
    edges = {frozenset(e) for e in H.edges}
    twins = set()
    for u, v in itertools.combinations(range(1, H.n + 1), 2):
        swap = {u: v, v: u}
        if {frozenset(swap.get(x, x) for x in e) for e in edges} == edges:
            twins.add((u, v))
    return twins


def finite_chi(value) -> int:
    """The number of a finite `ChromaticValue`; the test fails on INFINITE
    and EXCEEDS."""
    assert value.kind == "finite", value
    return value.value


def chromatic_brute(H: Hypergraph, kmax: int | None = None) -> int | None:
    """Smallest k with a proper k-coloring, by enumerating all colorings.
    Returns None if no k up to kmax works (singleton edges)."""
    if kmax is None:
        kmax = max(1, H.n)
    for k in range(1, kmax + 1):
        if lex_least_coloring_brute(H, k) is not None:
            return k
    return None


def lex_least_coloring_brute(H: Hypergraph, k: int) -> tuple[int, ...] | None:
    """First proper k-coloring of H in lexicographic order, by enumerating
    every color vector in order."""
    for assignment in itertools.product(range(1, k + 1), repeat=H.n):
        ok = True
        for e in H.edges:
            first = assignment[e[0] - 1]
            if all(assignment[v - 1] == first for v in e[1:]):
                ok = False
                break
        if ok:
            return assignment
    return None


def compile_boxes_naive(factors: Sequence[Hypergraph]) -> SimpleNamespace:
    """The box layout of the coloring engine (``N``, ``full``, ``cells``,
    ``completing``, ``boxes_of``, ``pos_of``; see ``_ColoringSearch``),
    compiled box by box over ``itertools.product`` of the factor edges, with
    one ``sum`` per cell where the engine sums each prefix of factors once."""
    space = ProductSpace.for_factors(factors)
    N = space.size
    out = SimpleNamespace(N=N, full=[], cells=[], completing=[])
    out.boxes_of = [[] for _ in range(N + 1)]
    out.pos_of = [[] for _ in range(N + 1)]
    vertex = list(range(N + 1))  # one int object per vertex, however often stored
    shapes = {}
    # per factor edge, the row-major offsets (v - 1) * stride of its vertices
    strides = [prod(space.dims[j + 1 :]) for j in range(len(factors))]
    edge_offsets = [[[(v - 1) * st for v in e] for e in H.edges] for H, st in zip(factors, strides)]
    for box in itertools.product(*edge_offsets):
        shape = tuple(len(e) for e in box)
        if shape not in shapes:
            offsets = itertools.accumulate(shape, initial=0)
            fields = [[1 << (off + i) for i in range(n)] for off, n in zip(offsets, shape)]
            positions = [sum(bits) for bits in itertools.product(*fields)]
            completing = {}
            for i, pos in enumerate(positions):
                miss = pos
                while miss:  # every nonempty sub-mask of pos
                    completing.setdefault(miss, []).append(i)
                    miss = (miss - 1) & pos
            shapes[shape] = ((1 << sum(shape)) - 1, positions, completing)
        full, positions, completing = shapes[shape]
        bid = len(out.full)
        cells = [vertex[1 + sum(offs)] for offs in itertools.product(*box)]
        for v, pos in zip(cells, positions):
            out.boxes_of[v].append(bid)
            out.pos_of[v].append(pos)
        out.full.append(full)
        out.cells.append(cells)
        out.completing.append(completing)
    return out


def lex_least_coloring_static(factors: list[Hypergraph], k: int) -> list[int] | None:
    """Differential oracle for the certificate of the coloring engine: the
    lexicographically least proper k-coloring of the categorical product,
    or None, by backtracking over the product vertices in index order
    (colors ascending, each at most one above those in use), so the first
    coloring found is the least. Its boxes come from ``compile_boxes_naive``,
    whose cells ``product_is_proper`` checks apart."""
    engine = compile_boxes_naive(factors)
    N, full, cells, completing = engine.N, engine.full, engine.cells, engine.completing
    boxes_of, pos_of = engine.boxes_of, engine.pos_of
    colors = [0] * (N + 1)
    forbid = [[0] * (k + 1) for _ in range(N + 1)]
    covered = [[0] * len(full) for _ in range(k + 1)]

    def undo(v, c, trail):
        olds, forbidden = trail
        for bid, old in zip(boxes_of[v], olds):
            covered[c][bid] = old
        for u in forbidden:
            forbid[u][c] -= 1
        colors[v] = 0

    def assign(v, c):
        cov = covered[c]
        forbidden = []
        trail = ([cov[bid] for bid in boxes_of[v]], forbidden)
        colors[v] = c
        for bid, pos in zip(boxes_of[v], pos_of[v]):
            new = cov[bid] | pos
            if new == cov[bid]:
                continue
            miss = full[bid] ^ new
            if not miss:
                undo(v, c, trail)
                return None
            cov[bid] = new
            for i in completing[bid].get(miss, ()):
                u = cells[bid][i]
                if not colors[u]:
                    forbid[u][c] += 1
                    forbidden.append(u)
        return trail

    stack = []
    maxc = 0
    while len(stack) < N:
        v = len(stack) + 1
        c = 0
        while True:
            trail = None
            while trail is None and c < min(k, maxc + 1):
                c += 1
                if not forbid[v][c]:
                    trail = assign(v, c)
            if trail is not None:
                break
            if not stack:
                return None
            v, c, maxc, trail = stack.pop()
            undo(v, c, trail)
        stack.append((v, c, maxc, trail))
        maxc = max(maxc, c)
    return colors[1:]


def extends_naive(factors: Sequence[Hypergraph], k: int, partial: dict[int, int]) -> bool:
    """Whether some proper k-coloring of the categorical product extends
    ``partial`` (product vertex -> color), by plain backtracking in one
    static order: those of ``partial`` first, each time the vertex that
    shares the most boxes with the vertices already ordered (ties to the
    least index), each color tried. A coloring clashes when the cells of
    one color in a box e_1 x ... x e_t of factor edges project onto every
    e_j. Reads only the factors' edges, never the engine's compiled boxes."""
    space = ProductSpace.for_factors(factors)
    N = space.size
    # per vertex, the boxes through it: per box, its cells with their
    # coordinates as one bit per factor, and those bits' union
    boxes_at: list[list[tuple]] = [[] for _ in range(N + 1)]
    for box in itertools.product(*(H.edges for H in factors)):
        cells = [(space.index_of(cell), [1 << x for x in cell]) for cell in itertools.product(*box)]
        full = [sum(1 << x for x in e) for e in box]
        for v, _ in cells:
            boxes_at[v].append((cells, full))
    colors = [0] * (N + 1)

    def clashes(v: int) -> bool:
        for cells, full in boxes_at[v]:
            seen = [0] * len(full)
            for u, bits in cells:
                if colors[u] == colors[v]:
                    seen = [s | b for s, b in zip(seen, bits)]
            if seen == full:
                return True
        return False

    order: list[int] = []
    ties = dict.fromkeys(range(1, N + 1), 0)  # per vertex left, the boxes it shares with those ordered
    while ties:
        v = max(ties, key=lambda u: (u in partial, ties[u], -u))
        del ties[v]
        order.append(v)
        for cells, _ in boxes_at[v]:
            for u, _ in cells:
                if u in ties:
                    ties[u] += 1

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in [partial[v]] if v in partial else range(1, k + 1):
            colors[v] = c
            if not clashes(v) and extend(i + 1):
                return True
        colors[v] = 0
        return False

    return extend(0)


def is_first_appearance(colors) -> bool:
    """Whether every color is at most one above all colors before it."""
    seen = 0
    for c in colors:
        if c > seen + 1:
            return False
        seen = max(seen, c)
    return True


def _sign_classes(factors: list[Hypergraph], p: int, entries) -> list[list[set[int]]]:
    """Per sign 1..p, per factor, the vertex set of that sign in the factor's
    block of ``entries``."""
    blocks, start = [], 0
    for H in factors:
        blocks.append(entries[start : start + H.n])
        start += H.n
    return [
        [{v for v, x in enumerate(block, start=1) if x == s} for block in blocks]
        for s in range(1, p + 1)
    ]


def first_vertex_of_color_naive(
    factors: list[Hypergraph], coloring: Coloring, classes: list[set[int]]
) -> dict[int, tuple[int, ...]]:
    """Oracle: each color of the product vertices whose factor edges all lie
    inside the given per-factor vertex sets, with the first such vertex.
    Product vertices are scanned in row-major order, vertex i (0-based) of
    that order being colored ``coloring.colors[i]``."""
    first: dict[int, tuple[int, ...]] = {}
    ranges = [range(1, H.edge_count + 1) for H in factors]
    for i, vertex in enumerate(itertools.product(*ranges)):
        if all(set(H.edges[e - 1]) <= cls for H, e, cls in zip(factors, vertex, classes)):
            first.setdefault(coloring.colors[i], vertex)
    return first


def saturated_rows_naive(factors: list[Hypergraph], p: int, coloring: Coloring):
    """Oracle: every saturated vector of (Z_p u 0)^N in lex order, with per
    sign its colors and their first product vertices. A vector is saturated
    when each sign class of each block contains an edge of its factor."""
    for entries in itertools.product(range(p + 1), repeat=sum(H.n for H in factors)):
        classes = _sign_classes(factors, p, entries)
        if all(
            any(set(e) <= cls for e in H.edges)
            for row in classes
            for H, cls in zip(factors, row)
        ):
            yield entries, [first_vertex_of_color_naive(factors, coloring, row) for row in classes]


def saturated_blocks_naive(H: Hypergraph, p: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Oracle: every saturated block of ``H`` in lex order, with its class
    masks for signs 1..p, by testing the sign classes of every entry tuple
    of (Z_p u 0)^n for an edge subset."""
    out = []
    for entries in itertools.product(range(p + 1), repeat=H.n):
        classes = [row[0] for row in _sign_classes([H], p, entries)]
        if all(any(set(e) <= cls for e in H.edges) for cls in classes):
            out.append((entries, tuple(mask_of(cls) for cls in classes)))
    return out


def sigma2_scan_naive(factors: list[Hypergraph], p: int, coloring: Coloring):
    """Oracle for the saturated-side scan: (best balanced size, entries of
    the first vector reaching it or None, number of saturated vectors)."""
    best, best_entries, count = 0, None, 0
    for entries, rows in saturated_rows_naive(factors, p, coloring):
        count += 1
        sizes = [len(row) for row in rows]
        h = min(sizes)
        ell = p * h + sum(1 for size in sizes if size > h)
        if best_entries is None or ell > best:
            best, best_entries = ell, entries
    return best, best_entries, count


def sigma2_scan_lex_naive(factors: list[Hypergraph], p: int, coloring: Coloring):
    """`sigma2_scan_naive` for products too large to enumerate whole: the
    saturated vectors in lex order as the product of each factor's
    `saturated_blocks_naive` (a vector is saturated exactly when each block
    is), each row's colors read from the product vertices inside its
    classes, stopping at the first vector reaching (p-1)*k, which a proper
    ``coloring`` with k colors cannot exceed; the count is the product of
    the factors' block counts."""
    per_factor = [saturated_blocks_naive(H, p) for H in factors]
    count = prod(len(blocks) for blocks in per_factor)
    strides = [prod(H.edge_count for H in factors[j + 1 :]) for j in range(len(factors))]
    colors: dict[tuple[int, ...], int] = {}

    def row_size(masks: tuple[int, ...]) -> int:
        if masks not in colors:
            inside = [[i for i, em in enumerate(H.edge_masks) if em & ~m == 0] for H, m in zip(factors, masks)]
            colors[masks] = len({
                coloring.colors[sum(i * stride for i, stride in zip(vertex, strides))]
                for vertex in itertools.product(*inside)
            })
        return colors[masks]

    best, best_entries = 0, None
    for combo in itertools.product(*per_factor):
        sizes = [row_size(tuple(blk[1][s] for blk in combo)) for s in range(p)]
        h = min(sizes)
        ell = p * h + sum(1 for size in sizes if size > h)
        if best_entries is None or ell > best:
            best, best_entries = ell, sum((blk[0] for blk in combo), ())
            if best == (p - 1) * coloring.color_count:
                break
    return best, best_entries, count


# --- labeling oracles -----------------------------------------------------------


def _split_naive(factors: Sequence[Hypergraph], p: int, entries: tuple[int, ...]):
    """``entries`` cut into one block per factor, as (factor, block, signs
    whose class spans an edge of the factor)."""
    out, start = [], 0
    for H in factors:
        blk = entries[start : start + H.n]
        start += H.n
        signs = frozenset(s for s in range(1, p + 1) if contains_edge_within(H, class_mask(blk, s)))
        out.append((H, blk, signs))
    return tuple(out)


@lru_cache(maxsize=4096)
def nu_naive(blocks, p: int, variant: str) -> int:
    """Oracle for the deficient-side index: blocks whose every sign spans an
    edge count their support; other blocks count their edge-spanning signs
    plus the best score of an edge-free sub-block, every sub-block tried.
    The score is the balanced class size, or in the "alternation" variant
    the alternation number read in the factor's alternation-optimal order.
    Cached, since the labels of one vector under several sign tables share
    their index; the cache holds every vector of the largest sweep the
    tests compare (3^7)."""
    total = 0
    for H, blk, present in blocks:
        if len(present) == p:
            total += sum(1 for x in blk if x)
            continue
        order = alt_min(H, p, "exact").sigma.sigma if variant == "alternation" else None
        best = 0
        for keep in itertools.product((0, 1), repeat=H.n):
            sub = tuple(x if k else 0 for x, k in zip(blk, keep))
            if any(contains_edge_within(H, class_mask(sub, s)) for s in range(1, p + 1)):
                continue
            if variant == "alternation":
                score = alt_naive(tuple(sub[v - 1] for v in order))
            else:
                sizes = [sub.count(s) for s in range(1, p + 1)]
                score = p * min(sizes) + sum(1 for size in sizes if size > min(sizes))
            best = max(best, score)
        total += len(present) + best
    return total


def block_signature_naive(blocks, p: int) -> tuple | None:
    """Oracle for the block-signature key: per block, the whole block when
    every sign spans an edge; when none does, the present signs if some
    class is empty, else the block cut to its minimum-size classes. None
    when some block has a proper nonempty set of edge-spanning signs."""
    comps: list[tuple] = []
    for _, blk, present in blocks:
        sizes = [blk.count(s) for s in range(1, p + 1)]
        if len(present) == p:
            comps.append(("vec", blk))
        elif present:
            return None
        elif min(sizes) == 0:
            comps.append(("set", tuple(s for s in range(1, p + 1) if sizes[s - 1] > 0)))
        else:
            h = min(sizes)
            comps.append(("vec", tuple(x if x and sizes[x - 1] == h else 0 for x in blk)))
    return tuple(comps)


def lambda1_naive(blocks, p: int, tables, variant: str) -> tuple[int, int]:
    """Oracle for the label (sign, index) of a deficient vector."""
    sig = block_signature_naive(blocks, p)
    if sig is None:
        sign = tables.sign_for_signsets(tuple(tuple(sorted(present)) for _, _, present in blocks))
    elif variant == "alternation":
        # the first nonzero entry, each block read in its alternation order
        sign = next(
            blk[v - 1]
            for H, blk, _ in blocks
            for v in alt_min(H, p, "exact").sigma.sigma
            if blk[v - 1]
        )
    else:
        sign = tables.sign_for_blocks(sig)
    return sign, nu_naive(blocks, p, variant)


def labels_naive(
    factors: Sequence[Hypergraph], p: int, coloring: Coloring | None, tables, variant: str, cap: int
) -> dict[tuple[int, ...], tuple[int, int]]:
    """Oracle for the sweeps' label dict, vector by vector in lex order:
    without a ``coloring`` every nonzero deficient vector labeled by
    `lambda1_naive`; with one, every saturated vector of
    `saturated_rows_naive`, indexed ``cap`` - p + 1 plus the balanced size
    of its rows and signed by the simplex table at the sorted cells of its
    minimum-size rows."""
    labels = {}
    if coloring is not None:
        for entries, rows in saturated_rows_naive(factors, p, coloring):
            sizes = [len(row) for row in rows]
            h = min(sizes)
            core = tuple((s, c) for s, row in enumerate(rows, start=1) if len(row) == h for c in sorted(row))
            ell = p * h + sum(1 for size in sizes if size > h)
            labels[entries] = tables.sign_for_simplex(core), cap - p + 1 + ell
        return labels
    for entries in itertools.product(range(p + 1), repeat=sum(H.n for H in factors)):
        blocks = _split_naive(factors, p, entries)
        if any(entries) and not all(len(present) == p for _, _, present in blocks):
            labels[entries] = lambda1_naive(blocks, p, tables, variant)
    return labels


def chain_violations_naive(labels: dict) -> list[Violation]:
    """Oracle for the chain check of a label dict: every labeled vector y in
    the dict's order, and under it every labeled proper nonzero face x of y
    (y with a nonempty proper subset of its nonzero entries kept) in
    decreasing order of the kept positions read as a binary number (position
    i is bit i), where x and y have equal indices and different signs. Every
    face is enumerated; no covering pair is trusted."""
    out = []
    for y, (y_sign, y_index) in labels.items():
        support = [i for i, v in enumerate(y) if v]
        for kept in range((1 << len(support)) - 2, 0, -1):
            positions = {i for b, i in enumerate(support) if kept >> b & 1}
            x = tuple(v if i in positions else 0 for i, v in enumerate(y))
            if x in labels and labels[x][1] == y_index and labels[x][0] != y_sign:
                out.append(Violation("chain", x, y, f"equal index {y_index} but signs {labels[x][0]} != {y_sign}"))
    return out


# --- product and witness oracles ----------------------------------------------


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
    edges = set(F.edge_masks)
    for combo in itertools.product(*vertex_lists):
        if mask_of(combo) not in edges:
            return False
    return True


@lru_cache(maxsize=None)
def minimal_covers(r1: int, r2: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All inclusion-minimal subsets of the [r1] x [r2] grid whose row and
    column projections are both full, ordered by size then lexicographically.

    A minimal cover is a forest (otherwise a cycle edge could be dropped),
    so its size is at most r1 + r2 - 1; that bounds the enumeration.
    """
    if r1 < 1 or r2 < 1:
        raise ValueError("grid dimensions must be >= 1")
    cells = [(i, j) for i in range(1, r1 + 1) for j in range(1, r2 + 1)]
    found: list[tuple[tuple[int, int], ...]] = []
    for size in range(1, r1 + r2):
        for combo in itertools.combinations(cells, size):
            rows = [0] * (r1 + 1)
            cols = [0] * (r2 + 1)
            for i, j in combo:
                rows[i] += 1
                cols[j] += 1
            if 0 in rows[1:] or 0 in cols[1:]:
                continue
            # minimal iff every cell is the last of its row or column
            if all(rows[i] == 1 or cols[j] == 1 for i, j in combo):
                found.append(combo)
    return tuple(found)


@lru_cache(maxsize=None)
def _full_covers(r1: int, r2: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All subsets of the [r1] x [r2] grid with full projections (oracle-grade
    enumeration; used to materialize full categorical products)."""
    if r1 * r2 > 16:
        raise CapExceededError("full cover enumeration capped at 16 grid cells")
    cells = [(i, j) for i in range(1, r1 + 1) for j in range(1, r2 + 1)]
    out = []
    for size in range(1, r1 * r2 + 1):
        for combo in itertools.combinations(cells, size):
            if len({i for i, _ in combo}) == r1 and len({j for _, j in combo}) == r2:
                out.append(combo)
    return tuple(out)


def _product2_minimal(H1: Hypergraph, H2: Hypergraph) -> Hypergraph:
    space = ProductSpace((H1.n, H2.n))
    if space.size > MAX_VERTICES:
        raise CapExceededError(
            f"product on {space.size} vertices exceeds cap {MAX_VERTICES}; "
            "use the implicit checker (product_is_proper / solve_product_chromatic)"
        )
    candidates: set[int] = set()
    for e1 in H1.edges:
        for e2 in H2.edges:
            for cover in minimal_covers(len(e1), len(e2)):
                mask = 0
                for i, j in cover:
                    mask |= 1 << (space.index_of((e1[i - 1], e2[j - 1])) - 1)
                candidates.add(mask)
    # nested factor edges can make a cover of one box contain a smaller
    # product edge from another box, so filter to inclusion-minimal masks
    kept: list[int] = []
    for mask in sorted(candidates, key=lambda m: (m.bit_count(), m)):
        if not any(k & ~mask == 0 for k in kept):
            kept.append(mask)
    kept.sort(key=lambda m: (m.bit_count(), tuple(bits_of(m))))
    return Hypergraph(space.size, [tuple(bits_of(m)) for m in kept])


def product_minimal(factors: Sequence[Hypergraph]) -> Hypergraph:
    """Minimal-edge form of the categorical product, folded pairwise
    left-to-right; it has the same chromatic number as the full product."""
    if not factors:
        raise ValueError("product needs at least one factor")
    out = factors[0]
    for H in factors[1:]:
        out = _product2_minimal(out, H)
    return out


def _product2_full(H1: Hypergraph, H2: Hypergraph) -> Hypergraph:
    space = ProductSpace((H1.n, H2.n))
    if space.size > MAX_VERTICES:
        raise CapExceededError("full product exceeds the vertex cap")
    edges: list[tuple[int, ...]] = []
    for e1 in H1.edges:
        for e2 in H2.edges:
            for cover in _full_covers(len(e1), len(e2)):
                edges.append(
                    tuple(space.index_of((e1[i - 1], e2[j - 1])) for i, j in cover)
                )
    return Hypergraph(space.size, edges)


def product_full(factors: Sequence[Hypergraph]) -> Hypergraph:
    """The categorical product with every hyperedge materialized.

    Exponential in edge sizes; intended as a desk-scale oracle for the
    minimal-edge form and for validating witnesses.
    """
    if not factors:
        raise ValueError("product needs at least one factor")
    out = factors[0]
    for H in factors[1:]:
        out = _product2_full(out, H)
    return out


def minimal_covers_brute(r1: int, r2: int) -> set[frozenset[tuple[int, int]]]:
    """Inclusion-minimal full-projection grid subsets by checking all 2^(r1 r2)
    subsets against each other."""
    cells = [(i, j) for i in range(1, r1 + 1) for j in range(1, r2 + 1)]
    full = []
    for size in range(1, len(cells) + 1):
        for combo in itertools.combinations(cells, size):
            if len({i for i, _ in combo}) == r1 and len({j for _, j in combo}) == r2:
                full.append(frozenset(combo))
    return {
        S for S in full if not any(T < S for T in full)
    }


def random_hypergraph(
    rng: random.Random, max_n: int = 7, max_edges: int = 10, min_edge_size: int = 1
) -> Hypergraph:
    n = rng.randint(2, max_n)
    m = rng.randint(0, max_edges)
    edges = set()
    for _ in range(m):
        size = rng.randint(min_edge_size, min(n, 4))
        edges.add(frozenset(rng.sample(range(1, n + 1), size)))
    return Hypergraph(n, edges)


def random_pool(count: int, max_n: int = 7, max_edges: int = 10) -> list[Hypergraph]:
    rng = random.Random(SEED)
    return [random_hypergraph(rng, max_n, max_edges) for _ in range(count)]


# --- shared solved instances -------------------------------------------------------


@pytest.fixture(scope="session")
def petersen():
    return kneser(complete_uniform(5, 2), 2)


@pytest.fixture(scope="session")
def petersen_coloring(petersen):
    value, coloring = solve_chromatic(petersen)
    assert value.to_json() == 3
    return coloring


@pytest.fixture(scope="session")
def solved_instances():
    """Ground hypergraph, modulus, Kneser hypergraph, chi, and an optimal
    coloring for every formula-criterion instance; shared by the witness and
    counting criteria."""
    specs = [
        ("KG(4,2)", complete_uniform(4, 2), 2),
        ("KG(5,2)", complete_uniform(5, 2), 2),
        ("KG(6,2)", complete_uniform(6, 2), 2),
        ("KG(7,2)", complete_uniform(7, 2), 2),
        ("KG(7,3)", complete_uniform(7, 3), 2),
        ("KG3(7,2)", complete_uniform(7, 2), 3),
        ("KG3(9,2)", complete_uniform(9, 2), 3),
        ("KG2(H(7,2,3))", hnka(7, 2, 3), 2),
    ]
    out = {}
    for name, ground, p in specs:
        kg = kneser(ground, p)
        value, coloring = solve_chromatic(kg)
        out[name] = {
            "ground": ground,
            "p": p,
            "kg": kg,
            "chi": value,
            "coloring": coloring,
        }
    return out


@pytest.fixture(scope="session")
def petersen_square_coloring(petersen, petersen_coloring):
    """Projection coloring of Petersen x Petersen from the optimal
    3-coloring of the first factor."""
    return projection_coloring([petersen, petersen], 0, petersen_coloring)


def min_element_coloring_petersen() -> Coloring:
    """The classical proper 3-coloring of the Petersen graph as KG(5,2):
    pair {i,j} gets min(i, j, 3)."""
    ground = complete_uniform(5, 2)
    return Coloring(tuple(min(e[0], e[1], 3) for e in ground.edges), 3)
