"""Exact chromatic numbers, the closed-form Kneser formulas, and lower-bound
comparison reports.

One coloring engine serves explicit hypergraphs and implicit categorical
products alike: a hypergraph is the one-factor product. The index-order first
fit (g colors), for a product the first factor's lifted, is the certificate at g
and refutes level 1; a level 2..g-1 is decided by a most-constrained-first search
that builds a product box only when it assigns one of the box's vertices,
backjumps conflict-directed (Prosser 1993) and refutes a repeated try by the
nogood a backjump left (Schiex-Verfaillie 1994), and at chi < g repeated
decisions on the same search state fix the vertices in index order to the
lex-least certificate.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from collections.abc import Sequence
from itertools import accumulate, product as iproduct
from math import prod

from .cache import ResultCache, cached_value
from .constructions import ProductSpace, kneser
from .hypergraph import (
    CapExceededError,
    ChromaticValue,
    Coloring,
    Hypergraph,
)
from .invariants import ALT_EXACT_MAX_N, _alt_min, _cd, _ecd

# Implicit product instances beyond this many tuple vertices are not solved
# exactly by bound_report (the solver itself has no hard cap).
PRODUCT_SOLVE_CAP = 20000


class OutOfProvenRangeError(ValueError):
    """Parameters fall in the range where the closed form is not known."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# --- exact solver over categorical products ------------------------------------


class _ColoringSearch:
    """Backtracking coloring search over the boxes of a categorical product.

    An explicit hypergraph is the one-factor product, built up front: its
    boxes are its edges, and their cells its edge tuples. A product vertex's
    boxes (index sum i_j * M_j, M_j the later factors' edge counts multiplied)
    and its position int in each are built at its first assignment: factor j
    owns a bit field at the summed widths of e_1..e_{j-1}, and the vertex sets
    the bit of its coordinate inside e_j. So is the row-major cell list of each
    of those boxes e_1 x ... x e_t that no earlier vertex built. A color class
    covering a box's full mask contains a monochromatic product edge. An open
    cell completes a box when its position contains the bits ``miss`` that the
    color still lacks, and then must not take that color. `first_fit` colors
    once in index order (on a product's first factor alone, then lifted: see
    `solve_product_chromatic`); `lex_least(k)` searches level k on one state.

    Every box has at least two cells: `solve_product_chromatic` answers
    INFINITE before it would build a one-cell box. A forbid is a flag:
    forbid[u][c] is set by the first assignment that completes a box at the
    open vertex u in color c (the latest of that box's cells to take c), and
    only that change goes on its trail. Undo is last in, first out, so the
    undo that clears the flag finds the coloring as it was before that
    assignment, when no box forbade c at u: the flags are exact, and a color
    that an open vertex has not forbidden completes no box. For the same
    reason the box ``why[c][u]`` recorded with the flag forbids c at u while
    the flag is set: its cells of color c, with u, cover its full mask.
    """

    def __init__(self, factors: Sequence[Hypergraph]) -> None:
        space = ProductSpace.for_factors(factors)
        self.N = N = space.size
        self.vertex = list(range(N + 1))  # one int object per vertex, however often stored
        *head_factors, H = factors
        # per earlier factor's edge, the row-major offsets (v - 1) * stride of its vertices
        strides = [prod(space.dims[j + 1 :]) for j in range(len(head_factors))]
        edge_offsets = [[[(v - 1) * st for v in e] for e in F.edges] for F, st in zip(head_factors, strides)]
        # per box, row-major over a prefix (an edge of each earlier factor) and a last edge: the
        # prefix's offsets summed once (its base), each plus a last vertex, give its cells; the
        # full mask and per miss the indices of the cells completing it are one table per shape
        prefixes = list(iproduct(*edge_offsets))
        self.bases = [[sum(offs) for offs in iproduct(*prefix)] for prefix in prefixes]
        widths = [tuple(map(len, prefix)) for prefix in prefixes]
        tables: dict[tuple[int, ...], tuple[int, dict[int, list[int]]]] = {}
        for shape in {(*pw, len(e)) for pw in set(widths) for e in H.edges}:
            fields = [[1 << (off + i) for i in range(n)] for off, n in zip(accumulate(shape, initial=0), shape)]
            completing: dict[int, list[int]] = {}
            for i, cell in enumerate(iproduct(*fields)):
                pos = miss = sum(cell)
                while miss:  # every nonempty sub-mask of pos
                    completing.setdefault(miss, []).append(i)
                    miss = (miss - 1) & pos
            tables[shape] = ((1 << sum(shape)) - 1, completing)
        row = {pw: [tables[(*pw, len(e))] for e in H.edges] for pw in set(widths)}  # per prefix shape
        self.full: list[int] = [t[0] for pw in widths for t in row[pw]]
        self.completing: list[dict[int, list[int]]] = [t[1] for pw in widths for t in row[pw]]
        # a one-factor engine's cells are its edges, a product box's are built with its first vertex
        self.cells: list[Sequence[int] | None] = list(H.edges) if not head_factors else [None] * len(self.full)
        # per factor vertex u, the edges through it: the last factor's indices and u's bit in
        # each, an earlier factor j's (index * M_j, u's bit, width) per edge; per vertex, its
        # boxes and its position in each, a product vertex's built at its first assignment
        ids, bits = [[] for _ in range(H.n + 1)], [[] for _ in range(H.n + 1)]
        for i, e in enumerate(H.edges):
            for p, u in enumerate(e):
                ids[u].append(i)
                bits[u].append(1 << p)
        self.tail = (H.n, ids, bits, H.edges)
        steps = [prod(len(G.edges) for G in factors[j + 1 :]) for j in range(len(head_factors))]
        self.heads = [
            (st, F.n, [[(i * m, 1 << e.index(u), len(e)) for i, e in enumerate(F.edges) if u in e]
                       for u in range(F.n + 1)])
            for F, st, m in zip(head_factors, strides, steps)
        ]
        self.boxes_of, self.pos_of = (ids, bits) if not head_factors else ([[]] + [None] * N, [[]] + [None] * N)
        self.near: list[int | None] = [None] * (N + 1)  # per stacked vertex, its boxes' cells (a bitmask)
        self.counts: dict[int, Counter[str]] = {}  # per level k, what its decisions did

    def _build(self, v: int) -> list[int]:
        """Build and return v's boxes (and positions), row-major over its coordinates' edges,
        and the cells of those boxes not built yet."""
        rows = [(0, 0, 0)]  # per box over v's head coordinates: index, position, width
        for stride, n, through in self.heads:
            rows = [(b + i, pos | bit << w, w + width)
                    for b, pos, w in rows for i, bit, width in through[(v - 1) // stride % n + 1]]
        n, ids, bits, edges = self.tail
        u = (v - 1) % n + 1
        self.pos_of[v] = [pos | bit << w for _, pos, w in rows for bit in bits[u]]
        boxes = self.boxes_of[v] = [b + i for b, _, _ in rows for i in ids[u]]
        cells, bases, vertex, m = self.cells, self.bases, self.vertex, len(edges)
        for bid in boxes:
            if cells[bid] is None:
                cells[bid] = [vertex[c + x] for c in bases[bid // m] for x in edges[bid % m]]
        return boxes

    def first_fit(self) -> list[int]:
        """Index-order first fit: v = 1..N each takes the least color completing no
        box with the colors before it. No undo: a banned-color bitmask per vertex
        (bit 0 set; the color is the lowest clear bit), a coverage list per color."""
        full, cells, completing = self.full, self.cells, self.completing
        banned = [1] * (self.N + 1)
        covered: defaultdict[int, list[int]] = defaultdict(lambda: [0] * len(full))
        colors: list[int] = []
        for v in range(1, self.N + 1):
            c = (~banned[v] & (banned[v] + 1)).bit_length() - 1
            cov, bit = covered[c], 1 << c
            boxes = self.boxes_of[v]
            for bid, pos in zip(self._build(v) if boxes is None else boxes, self.pos_of[v]):
                new = cov[bid] | pos
                if new != cov[bid]:
                    cov[bid] = new
                    box = cells[bid]
                    for i in completing[bid].get(full[bid] ^ new, ()):
                        banned[box[i]] |= bit
            colors.append(c)
        return colors

    def lex_least(self, k: int) -> list[int] | None:
        """The lexicographically least proper k-coloring, or None exactly when
        there is no proper k-coloring (k < chi).

        ``decide`` extends the current partial coloring most-constrained-first
        (most forbidden colors, ties to the least index: the lowest ``free``
        bit of the highest ``tier[j]``, the vertices with at least j colors
        forbidden, holding one; but at j = 0 under a stacked vertex, the least
        open vertex sharing a box with the last one stacked, if there is one,
        as DSATUR does (Brelaz 1979): with edges of r >= 3 vertices one
        assignment forbids nothing, and the least index need not touch the
        colored part; ``near[u]``, the cells of u's boxes, is kept per vertex),
        colors ascending and at most one above those in use, on an explicit
        stack. It returns a full coloring or None and leaves the state as it
        found it; its first call is the level's proof.
        Then v = 1..N is fixed in index order to the least color below the
        witness's with which the prefix still extends, else to the witness's
        color: each fixed prefix is lex-least and still extendable, so the
        last witness is the lex-least coloring.

        ``decide`` backjumps conflict-directed (Prosser 1993). When v has no
        color up to cap = min(k, maxc + 1) left, its conflict set (colored
        vertices with their colors) joins the sets its failed colors left
        and, per forbidden color d <= cap, the cells of box ``why[d][v]``
        colored d. No proper coloring extends that set: each d <= cap is forbidden
        or failed, and a color above cap turns into cap by swapping two
        colors unused on the set. The search pops to the latest stacked
        vertex in the set, returning the vertices between to the open set
        with their sets dropped, adds the set less that vertex to the
        vertex's own and tries its next color; it answers None when no
        stacked vertex is in the set (the set rests on the fixed prefix
        alone). Each skipped subtree extends the set, so it holds no proper
        coloring, and the pick is a function of the stacked assignments, in
        order: ``decide`` returns the coloring chronological backtracking with
        the same pick would, after no more assignments.

        A backjump's set is kept as a nogood (Schiex and Verfaillie 1994). A
        conflict set holds (vertex, color) pairs, the pair (u, d) as bit
        u * (k + 1) + d, and ``code`` holds the current coloring the same
        way. When a dead end's set sends the search back to v, colored c, no
        proper coloring extends the set, so none extends the set less (v, c)
        with c at v. ``decide`` stores that rest under the try (v, c) for
        the rest of its call, and before it tries c at v again it checks the
        rests stored there: one that the current colors extend (``code &
        nogood == nogood``) fails the try at once and joins v's set, as a
        refuted subtree's set does. A nogood is only checked at its try,
        never turned into a forbid, so the state and the picks stay as they
        were, and a try it refutes is one whose subtree holds no proper
        coloring, which chronological backtracking would search in vain. So
        ``decide`` still returns that search's coloring. A store is bounded
        by one call's backjumps; the last one stays on the engine as
        ``learnt``, and each call adds its assignments, dead ends and tries
        refuted by a nogood to ``counts[k]``.
        """
        N = self.N
        full, cells, completing = self.full, self.cells, self.completing
        boxes_of, pos_of, build, near = self.boxes_of, self.pos_of, self._build, self.near
        colors = [0] * (N + 1)
        forbid = [[0] * (k + 1) for _ in range(N + 1)]  # flags; forbid[u][0]: how many u has set
        tier = [(1 << N + 1) - 2] + [0] * k  # tier[j]: the vertices (a bitmask) with at least j forbidden
        covered = [[0] * len(full) for _ in range(k + 1)]
        why = [[0] * (N + 1) for _ in range(k + 1)]  # why[c][u]: the box that set forbid[u][c] to 1
        K = k + 1  # the pair (u, d), u colored d, is bit u * K + d
        code = 0  # the current coloring, as its pairs
        counts = self.counts.setdefault(k, Counter())

        def undo(v: int, c: int, trail: tuple[list[int], list[int]]) -> None:
            olds, forbidden = trail
            cov = covered[c]
            for bid, old in zip(boxes_of[v], olds):
                cov[bid] = old
            for u in forbidden:
                f = forbid[u]
                f[c] = 0
                tier[f[0]] ^= 1 << u
                f[0] -= 1
            colors[v] = 0
            nonlocal code
            code ^= 1 << (v * K + c)

        def assign(v: int, c: int) -> tuple[list[int], list[int]]:
            """Color v with c, which v has not forbidden, and return the undo
            trail; no box becomes monochromatic (see the class docstring)."""
            cov, why_c = covered[c], why[c]
            boxes = boxes_of[v]
            if boxes is None:
                boxes = build(v)
            forbidden: list[int] = []
            trail = ([cov[bid] for bid in boxes], forbidden)
            colors[v] = c
            nonlocal code
            code |= 1 << (v * K + c)
            for bid, pos in zip(boxes, pos_of[v]):
                old = cov[bid]
                new = old | pos
                if new == old:
                    # the forbids implied by this coverage are already in place
                    continue
                miss = full[bid] ^ new
                cov[bid] = new
                hits = completing[bid].get(miss)
                if hits:
                    box = cells[bid]
                    for i in hits:
                        u = box[i]
                        if not colors[u]:
                            f = forbid[u]
                            if not f[c]:
                                f[c] = 1
                                j = f[0] = f[0] + 1
                                tier[j] |= 1 << u
                                why_c[u] = bid
                                forbidden.append(u)
            return trail

        def decide(maxc: int, free: int) -> list[int] | None:
            stack: list[tuple[int, int, int, tuple[list[int], list[int]]]] = []
            conflict = [0] * (N + 1)  # per stacked vertex: the pairs its failed colors rest on
            assigned = dead_ends = nogood_hits = 0
            self.learnt = learnt = {}  # per try v * K + c: the nogoods its backjumps left
            while free:
                j = k
                while not (pick := tier[j] & free):
                    j -= 1
                if not j and stack:  # nothing forbidden: stay next to the last assignment
                    u = stack[-1][0]
                    if (mask := near[u]) is None:
                        mask = near[u] = sum({1 << x for bid in boxes_of[u] for x in cells[bid]})
                    pick = mask & free or pick
                v = (pick & -pick).bit_length() - 1
                free ^= 1 << v
                c = 0
                while True:
                    cap = min(k, maxc + 1)
                    c += 1
                    while c <= cap and forbid[v][c]:
                        c += 1
                    if c <= cap:
                        for nogood in learnt.get(v * K + c, ()):
                            if code & nogood == nogood:
                                conflict[v] |= nogood
                                nogood_hits += 1
                                break
                        else:
                            break
                        continue
                    # dead end: the pairs v's failed and forbidden colors rest on
                    dead_ends += 1
                    blame = conflict[v]
                    for d in range(1, cap + 1):
                        if forbid[v][d]:
                            for u in cells[why[d][v]]:
                                if colors[u] == d:
                                    blame |= 1 << (u * K + d)
                    conflict[v] = 0
                    free |= 1 << v
                    while stack and not blame >> (stack[-1][0] * K + stack[-1][1]) & 1:
                        u, d, _, trail = stack.pop()
                        undo(u, d, trail)
                        conflict[u] = 0
                        free |= 1 << u
                    if not stack:
                        counts.update(assignments=assigned, dead_ends=dead_ends, nogood_hits=nogood_hits)
                        return None
                    v, c, maxc, trail = stack.pop()
                    undo(v, c, trail)
                    blame ^= 1 << (v * K + c)
                    conflict[v] |= blame
                    learnt.setdefault(v * K + c, []).append(blame)
                stack.append((v, c, maxc, assign(v, c)))
                assigned += 1
                maxc = max(maxc, c)
            rename: dict[int, int] = {}  # colors in order of first appearance
            found = [0] + [rename.setdefault(c, len(rename) + 1) for c in colors[1:]]
            for v, c, _, trail in reversed(stack):
                undo(v, c, trail)
            counts.update(assignments=assigned, dead_ends=dead_ends, nogood_hits=nogood_hits)
            return found

        free = tier[0]  # the open vertices
        if (witness := decide(0, free)) is None:
            return None
        maxc = 0
        for v in range(1, N + 1):
            free ^= 1 << v
            for c in range(1, witness[v]):  # each c <= maxc + 1, by first appearance
                if forbid[v][c]:
                    continue
                trail = assign(v, c)
                if (found := decide(max(maxc, c), free)) is not None:
                    witness = found
                    break
                undo(v, c, trail)
            else:
                assign(v, witness[v])
            maxc = max(maxc, witness[v])
        return witness[1:]


def solve_product_chromatic(
    factors: Sequence[Hypergraph], limit: int | None = None
) -> tuple[ChromaticValue, Coloring | None]:
    """Exact chromatic number of the categorical product of the factors by
    iterative deepening, never materializing product edges, with the
    lexicographically least optimal coloring as certificate.

    The index-order first fit F (`_ColoringSearch.first_fit`, g colors; g = 1
    with no cells) is the lex-least proper coloring: a lex-smaller L agrees
    with F up to some v and gives v a color below F[v], and each such color
    completes a box on that shared prefix. So F is the certificate at g, with
    no search, and when g >= 2 it refutes level 1: F opens color 2 only where
    color 1 completes a box, which the all-ones coloring covers. Each level
    k = 2..g-1 is one `_ColoringSearch.lex_least`, whose first decision refutes
    k or proves it; at chi < g the decisions that follow refine that witness
    into the certificate. As chi <= g, this is iterative deepening from k = 1.

    F is H_1's first fit F_1 lifted when H_1 has no singleton edge (else the
    product engine's own): F(u, w) = F_1(u) if each coordinate of the rest
    tuple w lies in an edge of its factor (w is live), else 1. By induction in
    index order: a cell with w not live lies in no box; for c < F_1(u), F_1
    colors e - {u} with c above u for an edge e through u, so (u, w) completes
    a box e x f with w in f; had (u, w) completed e x f in color F_1(u), every
    row of e - {u} (nonempty, as |e| >= 2) would hold it above u, so F_1 would
    have refused it at u. The product's engine is built only to search a level.
    """
    if not factors:
        raise ValueError("product needs at least one factor")
    if all(H.has_singleton_edge() for H in factors):
        # a box of singleton edges is a singleton product edge
        return ChromaticValue.infinite(), None
    head_only = len(factors) > 1 and not factors[0].has_singleton_edge()
    engine = _ColoringSearch(factors[:1] if head_only else factors)
    first = engine.first_fit()
    if head_only:
        inside = [[any(v in e for e in H.edges) for v in range(1, H.n + 1)] for H in factors[1:]]
        live = [all(w) for w in iproduct(*inside)]
        first = [c if w else 1 for c in first for w in live]
    g = max(first, default=1)
    k = min(2, g)
    while True:
        if limit is not None and k > limit:
            return ChromaticValue.exceeds(limit), None
        if k < g and head_only:  # the product's own engine, built for the first searched level
            engine, head_only = _ColoringSearch(factors), False
        if (colors := first if k == g else engine.lex_least(k)) is not None:
            return ChromaticValue.finite(k), Coloring(tuple(colors), k)
        k += 1


def solve_chromatic(
    H: Hypergraph, limit: int | None = None
) -> tuple[ChromaticValue, Coloring | None]:
    """Exact chromatic number with the lexicographically least optimal
    coloring as certificate: the one-factor product."""
    return solve_product_chromatic([H], limit)


# --- closed forms -------------------------------------------------------------


def formula_kneser(n: int, k: int, r: int) -> int:
    """ceil((n - (k-1) r) / (r-1)), valid for n >= rk, r >= 2."""
    if r < 2:
        raise ValueError("need r >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if n < r * k:
        raise ValueError(f"formula needs n >= rk (got n={n}, rk={r * k})")
    return ceil_div(n - (k - 1) * r, r - 1)


def formula_hnka(n: int, k: int, a: int, r: int) -> int:
    """ceil((n - max(a, r(k-1))) / (r-1)) on the proven parameter range
    (a <= 2k-1 or a >= rk-1); the middle range raises. For a < k, H(n,k,a)
    is every k-subset and this is the Alon-Frankl-Lovasz value of
    `formula_kneser`; max(a, r(k-1)) = a once a >= rk-1."""
    if r < 2:
        raise ValueError("need r >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if n < r * k:
        raise ValueError(f"need n >= rk (got n={n}, rk={r * k})")
    if a >= n or a < 0:
        raise ValueError("need 0 <= a < n")
    if 2 * k <= a <= r * k - 2:
        raise OutOfProvenRangeError(
            f"a={a} lies in the open range [2k, rk-2] = [{2 * k}, {r * k - 2}]"
        )
    return ceil_div(n - max(a, r * (k - 1)), r - 1)


# --- bound reports ------------------------------------------------------------


class FactorBounds(namedtuple(
    "FactorBounds", "r n cd ecd n_minus_alt alt_exact kg_chi kg_chi_error", defaults=(None, None)
)):
    """Per-factor invariants (ints ``r``, ``n``, ``cd``, ``ecd``,
    ``n_minus_alt``; bool ``alt_exact``) and the single-factor lower bounds
    for chi(KG^r(H)): cd_bound = ceil(cd/(r-1)), alt_bound =
    ceil((n-alt)/(r-1)), ecd_bound = ceil(ecd/(r-1)); ``kg_chi`` is
    chi(KG^r(H)) in the form the cache stores (an int, "INFINITE" or
    "EXCEEDS(k)") when solved, else None, and ``kg_chi_error`` (str or None)
    says why it could not be."""

    __slots__ = ()

    @property
    def cd_bound(self) -> int:
        return ceil_div(self.cd, self.r - 1)

    @property
    def alt_bound(self) -> int:
        return ceil_div(self.n_minus_alt, self.r - 1)

    @property
    def ecd_bound(self) -> int:
        return ceil_div(self.ecd, self.r - 1)

    def check(self) -> list[str]:
        """Every single-factor bound must stay at or below chi(KG^r(H))
        when it is known."""
        if type(chi := self.kg_chi) is not int:  # unsolved, INFINITE or EXCEEDS
            return []
        bounds = {"cd_bound": self.cd_bound, "alt_bound": self.alt_bound, "ecd_bound": self.ecd_bound}
        return [f"{name}={val} > chi={chi}" for name, val in bounds.items() if val > chi]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "cd": self.cd,
            "ecd": self.ecd,
            "n_minus_alt": self.n_minus_alt,
            "alt_exact": self.alt_exact,
            "cd_bound": self.cd_bound,
            "alt_bound": self.alt_bound,
            "ecd_bound": self.ecd_bound,
            "kg_chi": self.kg_chi,
        }


def factor_bounds(H: Hypergraph, r: int, cache: ResultCache | None = None) -> FactorBounds:
    """cd^r, ecd^r and n - alt_r of one factor, each read through the cache
    (ops ``cd``, ``ecd``, ``alt_min``) and derived by the plain searches, not
    their memos. This is the one place that picks the alternation mode, from
    n alone: exact up to ALT_EXACT_MAX_N vertices, else the heuristic upper
    bound (``alt_exact`` False). The mode is not a cache parameter: it
    follows from n, and the key's code version keeps other rules apart."""

    def alt_json() -> dict:
        res = _alt_min(H, r, "exact" if H.n <= ALT_EXACT_MAX_N else "heuristic")
        return {"alt": res.value, "exact": res.exact, "sigma": list(res.sigma.sigma)}

    cd_v = cached_value(cache, H, "cd", [r], lambda: _cd(H, r))
    ecd_v = cached_value(cache, H, "ecd", [r], lambda: _ecd(H, r))
    alt = cached_value(cache, H, "alt_min", [r], alt_json)
    return FactorBounds(r, H.n, cd_v, ecd_v, H.n - alt["alt"], alt["exact"])


def factor_row(
    H: Hypergraph, r: int, limit: int | None = None,
    cache: ResultCache | None = None,
) -> FactorBounds:
    """`factor_bounds` with chi(KG^r(H)) under ``limit``, read through the
    cache (op ``kg_chi``); KG^r(H) is built only on a miss. When it cannot
    be built (it is over the vertex cap) the row is kept: ``kg_chi`` stays
    None and ``kg_chi_error`` holds the reason."""
    f = factor_bounds(H, r, cache)

    def solve() -> int | str:
        return solve_chromatic(kneser(H, r), limit)[0].to_json()

    try:
        return f._replace(kg_chi=cached_value(cache, H, "kg_chi", [r, limit], solve))
    except CapExceededError as exc:
        return f._replace(kg_chi_error=str(exc))


class BoundReport(namedtuple(
    "BoundReport", "r factors product_alt_bound product_ecd_bound exact_chi zhu_status"
)):
    """Lower bounds for the chromatic number of KG^r(H_1) x ... x KG^r(H_t),
    one `FactorBounds` per factor in ``factors``: the int product_alt_bound
    uses the smallest n_i - alt_i, product_ecd_bound the smallest ecd_i.
    ``exact_chi`` is the product's chi in the form of ``kg_chi``, or None.
    zhu_status (VERIFIED | BOUND_ONLY | FAILED) records whether the exact
    product chromatic number equals the smallest factor chromatic number."""

    __slots__ = ()

    def check(self) -> list[str]:
        """Internal consistency: every recorded bound must stay at or below
        every exact chromatic number it bounds."""
        problems = [f"factor {i}: {p}" for i, f in enumerate(self.factors, start=1) for p in f.check()]
        if type(chi := self.exact_chi) is int:
            bounds = {"product_alt_bound": self.product_alt_bound, "product_ecd_bound": self.product_ecd_bound}
            problems += [f"{name}={val} > chi={chi}" for name, val in bounds.items() if val > chi]
        if self.zhu_status == "FAILED":
            problems.append("zhu_status FAILED")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "factors": [f.to_json_dict() for f in self.factors],
            "product_alt_bound": self.product_alt_bound,
            "product_ecd_bound": self.product_ecd_bound,
            "exact_chi": self.exact_chi,
            "zhu_status": self.zhu_status,
        }


def bound_report(
    factors: Sequence[Hypergraph],
    r: int,
    limit: int | None = None,
    cache: ResultCache | None = None,
) -> BoundReport:
    """Every defect bound for the product of the KG^r of the factors, with
    exact chromatic numbers under ``limit`` (the product only within the
    solve cap, and only when every KG^r(H) could be built). Every value is
    read through ``cache``: a factor's under its own digest, the product's
    (op ``product_kg_chi``) under the digest of all factors."""
    if r < 2:
        raise ValueError("need r >= 2")
    rows = tuple(factor_row(H, r, limit, cache) for H in factors)
    product_alt_bound = ceil_div(min(f.n_minus_alt for f in rows), r - 1)
    product_ecd_bound = ceil_div(min(f.ecd for f in rows), r - 1)
    exact_chi = None
    # the product needs every KG^r(H), which has one vertex per edge of H
    if not any(f.kg_chi_error for f in rows) and prod(H.edge_count for H in factors) <= PRODUCT_SOLVE_CAP:

        def solve() -> int | str:
            if len(factors) == 1:
                return rows[0].kg_chi
            return solve_product_chromatic([kneser(H, r) for H in factors], limit)[0].to_json()

        exact_chi = cached_value(cache, factors, "product_kg_chi", [r, limit], solve)
    factor_chis = [f.kg_chi for f in rows]
    zhu = "BOUND_ONLY"
    if all(type(chi) is int for chi in [exact_chi, *factor_chis]):
        zhu = "VERIFIED" if exact_chi == min(factor_chis) else "FAILED"
    return BoundReport(r, rows, product_alt_bound, product_ecd_bound, exact_chi, zhu)
