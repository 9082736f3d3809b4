"""Combinatorial verification lab for the colorful-witness machinery.

Everything here works on sign vectors over Z_p u {0}, plain tuples of
entries in 0..p, split into per-factor blocks. A vector is *saturated* when
every sign class of every block spans an edge of its factor (else
*deficient*). Two cyclic-equivariant labelings are built, one per kind;
their consistency on the face order is checked exhaustively, and the
saturated-side search extracts colorful balanced complete p-partite
witnesses from proper colorings of products of general Kneser hypergraphs.

Both sweeps label from per-factor block tables and take their product, so
that lex order of the blocks is lex vector order. On the deficient side
`_deficient_blocks` lists every block of a factor with its share of the
label: its index term, its block-signature component and its edge-spanning
signs; a vector's label is one sum and one sign-table lookup. On the
saturated side `_saturated_blocks` lists each factor's saturated blocks with
their class masks, for `sigma2_scan` and the lemma-2 sweep. One reader per
sweep, `_color_reader`, gives them and `extract_witness(factors, p, X,
coloring, q)` the colors each sign class realizes and by which product
vertex; `PartiteWitness.problems` checks on its own lookup. The color
simplex tau(X) is kept as those rows, one per sign. The sign tables refuse a
composite p, and a self-checking cache re-derives the defect minima by the
plain searches.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import product as iproduct
from math import isqrt, prod

from .bits import mask_of, submasks
from .cache import ResultCache
from .chromatic import factor_bounds
from .constructions import ProductSpace
from .hypergraph import CapExceededError, Coloring, Hypergraph, span_table
from .invariants import act_sign, balanced_size

# Exhaustive labeling sweeps enumerate (p+1)^n vectors and (2p+1)^n face
# pairs; keep them loudly bounded.
LEMMA_ENUM_CAP = 2_000_000


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


# --- per-factor block tables ----------------------------------------------------


def _saturated_blocks(H: Hypergraph, p: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The saturated blocks of ``H`` in lex order with their class masks for
    signs 1..p. A prefix, the empty one too, is dropped once some class
    cannot span an edge even with every open vertex added."""
    spans = span_table(H)
    blocks = [((), (0,) * p)] if spans[-1] else []
    for i in range(H.n):
        open_ = (1 << H.n) - (2 << i)  # the vertices after vertex i+1
        grown = []
        for e, m in blocks:
            # the classes that need vertex i+1; the others stay viable anyway
            short = [s for s in range(1, p + 1) if not spans[m[s - 1] | open_]]
            if len(short) < 2:
                for x in short or range(p + 1):
                    grown.append((e + (x,), m[: x - 1] + (m[x - 1] | 1 << i,) + m[x:] if x else m))
        blocks = grown
    return blocks


def _deficient_blocks(H: Hypergraph, p: int) -> list[tuple]:
    """Every block of ``H`` in lex order with its share of a deficient
    vector's label: (entries, saturated, index term, block-signature
    component or None, edge-spanning signs).

    A block whose every sign spans an edge counts its support; another
    counts its edge-spanning signs plus the largest balanced class size of
    an edge-free sub-block. The sign classes are disjoint and a subset of
    an edge-free set is edge-free, so a sub-block keeps any edge-free subset
    of each class apart from the others; `balanced_size` does not fall when
    one size grows, so that largest size is ``balanced_size([free[m_s]])``,
    where ``free[m]`` is the size of a largest edge-free subset of m: m's
    size when m spans no edge, else the largest ``free[m - v]`` over v in
    m. Both read the factor's `span_table`, so a factor above T_ENUM_CAP
    vertices raises CapExceededError.

    The component is the whole block when every sign spans an edge; when
    none does, it is the set of present signs if some class is empty, else
    the block cut to its minimum-size classes. It is None when some but not
    all signs span an edge: the sign-set table labels such vectors.
    """
    spans = span_table(H)
    free = [0] * len(spans)
    for m in range(1, len(spans)):
        if spans[m]:
            free[m] = max(free[m & ~(1 << i)] for i in range(H.n) if m >> i & 1)
        else:
            free[m] = m.bit_count()
    blocks = []
    for entries in iproduct(range(p + 1), repeat=H.n):
        masks = [sum(1 << i for i, x in enumerate(entries) if x == s) for s in range(1, p + 1)]
        signs = tuple(s for s, m in enumerate(masks, start=1) if spans[m])
        if len(signs) == p:
            blocks.append((entries, True, len(entries) - entries.count(0), ("vec", entries), signs))
            continue
        best = balanced_size([free[m] for m in masks])
        sizes = [m.bit_count() for m in masks]
        h = min(sizes)
        if signs:
            component = None
        elif h == 0:
            component = ("set", tuple(s for s, size in enumerate(sizes, start=1) if size))
        else:
            component = ("vec", tuple(x if x and sizes[x - 1] == h else 0 for x in entries))
        blocks.append((entries, False, len(signs) + best, component, signs))
    return blocks


# --- equivariant sign tables ----------------------------------------------------


def _act_signature(g: int, sig: tuple, p: int) -> tuple:
    out = []
    for kind, payload in sig:
        if kind == "vec":
            out.append(
                ("vec", tuple(act_sign(g, x, p) if x else 0 for x in payload))
            )
        else:
            out.append(("set", tuple(sorted(act_sign(g, s, p) for s in payload))))
    return tuple(out)


def _act_signsets(g: int, key: tuple, p: int) -> tuple:
    return tuple(tuple(sorted(act_sign(g, s, p) for s in comp)) for comp in key)


def _act_cells(g: int, key: tuple, p: int) -> tuple:
    return tuple(sorted((act_sign(g, s, p), c) for s, c in key))


class SignMapTables:
    """Equivariant sign assignments on the three domains the labelings
    query: block signatures, tuples of sign sets, and the core keys of color
    simplices (the sorted (sign, color) cells of their minimum-size rows).

    The lexicographically least element of a key's orbit has sign 1, and the
    key gets the sign g*1 for the least group element g taking that minimum
    to the key; each key's sign is computed once and kept on the instance,
    whose keys are those of one sweep's domains. Passing table names in
    ``corrupt`` replaces that table by a constant map, which is not
    equivariant; this is the negative control for the consistency checks.
    The modulus must be prime: a composite p fixes some orbits, and then no
    equivariant choice exists.
    """

    TABLE_NAMES = ("blocks", "signsets", "simplex")

    def __init__(self, p: int, corrupt: Sequence[str] = ()) -> None:
        if not is_prime(p):
            raise ValueError(f"the labeling sweeps need a prime p, got p={p}")
        self.p = p
        self.corrupt = frozenset(corrupt)
        unknown = self.corrupt - set(self.TABLE_NAMES)
        if unknown:
            raise ValueError(f"unknown table names: {sorted(unknown)}")
        self.signs: dict[str, dict[tuple, int]] = {name: {} for name in self.TABLE_NAMES}

    def _lookup(self, name: str, key: tuple, act) -> int:
        if name in self.corrupt:
            return 1
        signs = self.signs[name]
        if (sign := signs.get(key)) is None:
            p = self.p
            rep = min(act(g, key, p) for g in range(1, p + 1))
            g = next(g for g in range(1, p + 1) if act(g, rep, p) == key)
            sign = signs[key] = act_sign(g, 1, p)
        return sign

    def sign_for_blocks(self, signature: tuple) -> int:
        return self._lookup("blocks", signature, _act_signature)

    def sign_for_signsets(self, key: tuple) -> int:
        return self._lookup("signsets", key, _act_signsets)

    def sign_for_simplex(self, core: tuple[tuple[int, int], ...]) -> int:
        return self._lookup("simplex", core, _act_cells)


# --- the index cap --------------------------------------------------------------


def _defect_minima(
    factors: Sequence[Hypergraph], p: int, cache: ResultCache | None
) -> tuple[int, int]:
    """(min ecd^p, min n - alt_p) over the factors, read through the bounds
    path `factor_bounds`. Past its exact-alternation range n - alt_p comes
    from the heuristic alternation upper bound, which only lowers it: the
    witness target then stays within the guarantee, and the checks built on
    it only get weaker."""
    rows = [factor_bounds(H, p, cache) for H in factors]
    return min(f.ecd for f in rows), min(f.n_minus_alt for f in rows)


def index_cap(factors: Sequence[Hypergraph], p: int, cache: ResultCache | None = None) -> int:
    """Upper end of the deficient-side index range: total order minus the
    smallest equitable defect plus p - 1."""
    return sum(H.n for H in factors) - _defect_minima(factors, p, cache)[0] + p - 1


# --- the color reader and tau(X) ------------------------------------------------


def _color_reader(
    factors: Sequence[Hypergraph], coloring: Coloring
) -> Callable[[tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """The saturated side's one reader of ``coloring``. It maps per-factor
    vertex masks to {color: first product vertex}, over the product vertices
    (tuples of 1-based factor edge indices, in row-major order) whose factor
    edges all lie inside the masks; each mask tuple is read once."""
    space = ProductSpace(tuple(H.edge_count for H in factors))
    if coloring.n != space.size:
        raise ValueError("coloring is not total on the product vertex space")
    edges = [list(enumerate(H.edge_masks, start=1)) for H in factors]
    memo: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}

    def read(masks: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        row = memo.get(masks)
        if row is None:
            lists = [[i for i, em in es if em & ~m == 0] for es, m in zip(edges, masks)]
            row = memo[masks] = {}
            for vertex in iproduct(*lists):
                row.setdefault(coloring.color_of(space.index_of(vertex)), vertex)
        return row

    return read


def _tau(
    masks: Sequence[tuple[int, ...]], read: Callable[[tuple[int, ...]], dict[int, tuple[int, ...]]]
) -> tuple[dict[int, tuple[int, ...]], ...]:
    """The color simplex tau(X) as its rows: for sign s, at index s-1, the
    {color: first product vertex} row that ``read`` gives the per-factor
    class masks of s. A row is empty exactly when X is not saturated, and a
    proper coloring keeps every color out of some row."""
    rows = tuple(read(m) for m in masks)
    if not all(rows):
        raise ValueError("tau(X) is only defined on saturated vectors")
    if set(rows[0]).intersection(*rows[1:]):
        raise ValueError(
            "some color is realized by all signs: the coloring is not proper"
        )
    return rows


# --- exhaustive consistency checks ------------------------------------------------


class Violation(namedtuple("Violation", "kind x y detail")):
    """One failed check: ``kind`` is equivariance | chain | range, ``x`` the
    offending vector's entries, ``y`` the other vector's or None, and
    ``detail`` a text."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "x": list(self.x),
            "y": list(self.y) if self.y is not None else None,
            "detail": self.detail,
        }


def check_lemma1(
    factors: Sequence[Hypergraph], p: int, tables: SignMapTables | None = None,
    cache: ResultCache | None = None,
) -> list[Violation]:
    """Exhaustively verify the deficient-side labeling: it must be
    equivariant, stay within [1..cap], and never give face-comparable
    vectors the same index with different signs. Returns all violations
    (expected empty; corrupted tables are the negative control)."""
    return _check_labels(factors, p, None, tables, cache)


def check_lemma2(
    factors: Sequence[Hypergraph], p: int, coloring: Coloring, tables: SignMapTables | None = None,
    cache: ResultCache | None = None,
) -> list[Violation]:
    """Exhaustively verify the saturated-side labeling against a proper
    coloring of the product of the KG^p of the factors: equivariance, index
    above the cap, and no face-comparable pair with equal index and
    different signs."""
    return _check_labels(factors, p, coloring, tables, cache)


def _labels(
    factors: Sequence[Hypergraph], p: int, coloring: Coloring | None, tables: SignMapTables, cap: int
) -> dict[tuple[int, ...], tuple[int, int]]:
    """The label (sign, index) of every nonzero vector on one side, in lex
    order, from the products of the factors' block tables.

    A deficient vector's index is the sum of its blocks' terms. Its sign is
    the sign-set table's sign when some component is None, else the
    block-signature table's sign.
    A saturated vector's index is ``cap`` - p + 1 plus the balanced size of
    tau(X), so it is above ``cap``; its sign is the simplex table's sign of
    the core of tau(X), the sorted cells of its minimum-size rows."""
    labels = {}
    if coloring is None:
        for combo in iproduct(*(_deficient_blocks(H, p) for H in factors)):
            entries, saturated, terms, components, signs = zip(*combo)
            vector = sum(entries, ())
            if all(saturated) or not any(vector):
                continue
            if None in components:
                sign = tables.sign_for_signsets(signs)
            else:
                sign = tables.sign_for_blocks(components)
            labels[vector] = sign, sum(terms)
        return labels
    read = _color_reader(factors, coloring)
    for combo in iproduct(*(_saturated_blocks(H, p) for H in factors)):
        rows = _tau(tuple(zip(*(blk[1] for blk in combo))), read)
        sizes = [len(row) for row in rows]
        h = min(sizes)
        core = tuple((s, c) for s, row in enumerate(rows, start=1) if len(row) == h for c in sorted(row))
        index = cap - p + 1 + balanced_size(sizes)
        labels[sum((blk[0] for blk in combo), ())] = tables.sign_for_simplex(core), index
    return labels


def _check_labels(
    factors: Sequence[Hypergraph], p: int, coloring: Coloring | None, tables: SignMapTables | None,
    cache: ResultCache | None,
) -> list[Violation]:
    """Label every nonzero sign vector on one side (the deficient side
    without a ``coloring``, the saturated side with one) and check the
    labels. The sign tables refuse a composite p, and ``tables`` must be
    built for p itself."""
    if tables is None:
        tables = SignMapTables(p)
    elif tables.p != p:
        raise ValueError(f"sign tables built for p={tables.p} cannot label vectors mod {p}")
    n = sum(H.n for H in factors)
    if (2 * p + 1) ** n > LEMMA_ENUM_CAP:
        raise CapExceededError(f"exhaustive sweep over (Z_{p} u 0)^{n} faces is beyond the cap")
    cap = index_cap(factors, p, cache)
    return _label_violations(_labels(factors, p, coloring, tables, cap), p, cap, coloring is not None)


def _covering_pairs_agree(labels: dict) -> bool:
    """Whether on every covering pair x < y of labeled vectors (x is y with
    one nonzero entry zeroed) the index does not fall and equal indices
    carry equal signs.

    Then no chain violation exists. Each side's labeled set is convex in
    the face order: a face of a deficient vector is deficient, since a
    class inside a class that spans no edge spans none; and between two
    saturated vectors x < y every z has its classes between x's and y's,
    so z is saturated. Any labeled x < y are therefore joined by a chain of
    covering pairs through labeled vectors, along which the index does not
    fall; equal indices at the ends make it constant, so every sign on the
    chain is equal. A monotone index is a hypothesis of the Z_p-Tucker
    lemma that the sweeps do not assume: a fall sends the check to the
    full face enumeration."""
    for y, (y_sign, y_index) in labels.items():
        for i, entry in enumerate(y):
            if entry:
                below = labels.get(y[:i] + (0,) + y[i + 1 :])
                if below is not None and (below[1] > y_index or below[1] == y_index and below[0] != y_sign):
                    return False
    return True


def _label_violations(labels: dict, p: int, cap: int, saturated: bool) -> list[Violation]:
    """Range, equivariance and chain violations of one side's labels, in
    vector order: a deficient index must lie in [1..cap], a ``saturated``
    one above ``cap``. ``labels`` must label every nonzero vector of its
    side, as `_labels` does. The chain check enumerates every face of every
    labeled vector only when `_covering_pairs_agree` fails; otherwise it
    can find nothing."""
    violations: list[Violation] = []
    for entries, (sign, index) in labels.items():
        if not saturated and not 1 <= index <= cap:
            violations.append(Violation("range", entries, None, f"index {index} outside [1..{cap}]"))
        elif saturated and index <= cap:
            violations.append(Violation("range", entries, None, f"index {index} not above {cap}"))
        for g in range(1, p):
            acted = tuple(act_sign(g, x, p) if x else 0 for x in entries)
            got = labels.get(acted)
            want = (act_sign(g, sign, p), index)
            if got != want:
                violations.append(
                    Violation(
                        "equivariance",
                        entries,
                        acted,
                        f"label{got} != expected {want} under g={g}",
                    )
                )
    if _covering_pairs_agree(labels):
        return violations
    for y_entries, (y_sign, y_index) in labels.items():
        support = sum(1 << i for i, x in enumerate(y_entries) if x)
        for kept in submasks(support):
            if kept in (support, 0):
                continue
            x_entries = tuple(x if kept >> i & 1 else 0 for i, x in enumerate(y_entries))
            x_label = labels.get(x_entries)
            if x_label is None:
                # the deficient side is closed under faces; a face of a
                # saturated vector can drop out of the saturated side
                continue
            x_sign, x_index = x_label
            if x_index == y_index and x_sign != y_sign:
                violations.append(
                    Violation(
                        "chain",
                        x_entries,
                        y_entries,
                        f"equal index {x_index} but signs {x_sign} != {y_sign}",
                    )
                )
    return violations


# --- saturated-side scan and witness extraction -----------------------------------


class ScanResult(namedtuple("ScanResult", "max_ell argmax saturated_count")):
    """`sigma2_scan`'s outcome: the int ``max_ell``, its first maximizer
    ``argmax`` (its entries tuple, None with no saturated vector), and the int
    ``saturated_count``."""

    __slots__ = ()


def sigma2_scan(
    factors: Sequence[Hypergraph], p: int, coloring: Coloring
) -> ScanResult:
    """Exhaustive scan of the saturated vectors maximizing the balanced size
    of their color simplex; the reported argmax is the first maximizer in
    lexicographic vector order. ``coloring`` must be proper: then no color
    reaches all p sign rows, the balanced size is at most (p-1)*k for k
    colors, and the scan stops at the first vector reaching that ceiling.

    Once the first j blocks are fixed, each sign's row in any completion
    lies inside the row read with every later factor's whole vertex set,
    and `balanced_size` does not fall when one row grows. So when those p
    reads give a balanced size at most the best so far, no completion beats
    it and the prefix is skipped; the scan keeps only a strictly larger
    size, so the argmax is unchanged."""
    read = _color_reader(factors, coloring)
    per_factor_blocks = [_saturated_blocks(H, p) for H in factors]
    if not all(per_factor_blocks):
        return ScanResult(0, None, 0)
    full = tuple((1 << H.n) - 1 for H in factors)
    last = len(factors) - 1
    ceiling = (p - 1) * coloring.color_count
    best = -1
    best_entries: tuple[int, ...] = ()

    def scan(j: int, entries: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> bool:
        """Scan the completions of the first j blocks, whose class masks
        are ``rows`` (one tuple per sign); True once the ceiling is met."""
        nonlocal best, best_entries
        for e, m in per_factor_blocks[j]:
            grown = tuple(row + (ms,) for row, ms in zip(rows, m))
            ell = balanced_size([len(read(row + full[j + 1 :])) for row in grown])
            if ell <= best:
                continue
            if j < last:
                if scan(j + 1, entries + e, grown):
                    return True
                continue
            best, best_entries = ell, entries + e
            if best >= ceiling:
                return True
        return False

    scan(0, (), ((),) * p)
    return ScanResult(best, best_entries, prod(len(b) for b in per_factor_blocks))


class PartiteWitness(namedtuple("PartiteWitness", "p parts colors")):
    """A colorful balanced complete p-partite subhypergraph of a product of
    general Kneser hypergraphs: ``parts`` holds one part per sign, vertices
    given as tuples of 1-based factor edge indices, and ``colors`` one tuple
    of their colors per part; ``experimental`` flags a composite p."""

    __slots__ = ()

    @property
    def experimental(self) -> bool:
        return not is_prime(self.p)

    @property
    def size(self) -> int:
        return sum(len(part) for part in self.parts)

    def problems(self, factors: Sequence[Hypergraph], coloring: Coloring) -> list[str]:
        """All ways this witness fails to be colorful, balanced, and complete
        (empty list = valid). Completeness is checked transversal by
        transversal and is vacuous if some part is empty."""
        out: list[str] = []
        if len(self.parts) != self.p or len(self.colors) != self.p:
            return ["wrong number of parts"]
        dims = tuple(H.edge_count for H in factors)
        space = ProductSpace(dims)
        sizes = [len(part) for part in self.parts]
        if self.size and max(sizes) - min(sizes) > 1:
            out.append(f"unbalanced part sizes {sizes}")
        seen_vertices: set[tuple[int, ...]] = set()
        color_uses: dict[int, int] = {}
        for part, cols in zip(self.parts, self.colors):
            if len(part) != len(cols):
                return ["colors do not match part sizes"]
            if len(set(cols)) != len(cols):
                out.append(f"part with repeated colors {cols}")
            for vertex, c in zip(part, cols):
                if vertex in seen_vertices:
                    out.append(f"repeated vertex {vertex}")
                seen_vertices.add(vertex)
                color_uses[c] = color_uses.get(c, 0) + 1
                if coloring.color_of(space.index_of(vertex)) != c:
                    out.append(f"vertex {vertex} is not colored {c}")
        for c, uses in color_uses.items():
            if uses > self.p - 1:
                out.append(f"color {c} appears {uses} > p-1 times")
        if all(sizes):
            for transversal in iproduct(*self.parts):
                for j, H in enumerate(factors):
                    union = 0
                    total = 0
                    for vertex in transversal:
                        em = H.edge_masks[vertex[j] - 1]
                        union |= em
                        total += em.bit_count()
                    if union.bit_count() != total:
                        out.append(
                            f"transversal {transversal} not disjoint in factor {j + 1}"
                        )
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "experimental": self.experimental,
            "parts": [
                {"vertices": [list(v) for v in part], "colors": list(cols)}
                for part, cols in zip(self.parts, self.colors)
            ],
        }


def extract_witness(
    factors: Sequence[Hypergraph], p: int, X: Sequence[int], coloring: Coloring, q: int
) -> PartiteWitness:
    """Build a q-vertex witness from a saturated vector ``X`` (entries in
    0..p) whose color simplex has balanced size at least q: keep a balanced
    sub-simplex of q cells and realize each cell by the first product vertex
    of its sign class with the required color. ``X`` is cut into one block
    per factor, as long as its order."""
    if p < 1:
        raise ValueError("modulus must be >= 1")
    if any(not 0 <= x <= p for x in X):
        raise ValueError(f"entry outside [0..{p}] in {tuple(X)}")
    if sum(H.n for H in factors) != len(X):
        raise ValueError("factor orders do not add up to the vector length")
    if q < 0:
        raise ValueError("witness size must be nonnegative")
    if q == 0:
        return PartiteWitness(p, ((),) * p, ((),) * p)
    offsets = [sum(G.n for G in factors[:j]) for j in range(len(factors))]
    masks = [
        tuple(mask_of(v for v in range(1, H.n + 1) if X[o + v - 1] == s) for H, o in zip(factors, offsets))
        for s in range(1, p + 1)
    ]
    rows = _tau(masks, _color_reader(factors, coloring))
    sizes = [len(row) for row in rows]
    ell = balanced_size(sizes)
    if q > ell:
        raise ValueError(f"requested {q} vertices but balanced size is {ell}")
    base, extra = divmod(q, p)
    h = min(sizes)
    if base < h:
        eligible = list(range(1, p + 1))
    else:
        eligible = [s for s in range(1, p + 1) if sizes[s - 1] > h]
    bumped = set(eligible[:extra])
    parts: list[tuple[tuple[int, ...], ...]] = []
    part_colors: list[tuple[int, ...]] = []
    for sign, row in enumerate(rows, start=1):
        want = base + (1 if sign in bumped else 0)
        chosen_colors = sorted(row)[:want]
        parts.append(tuple(row[c] for c in chosen_colors))
        part_colors.append(tuple(chosen_colors))
    return PartiteWitness(p, tuple(parts), tuple(part_colors))


def witness_target(
    factors: Sequence[Hypergraph], p: int, cache: ResultCache | None = None
) -> int:
    """The guaranteed witness size: the larger of the smallest equitable
    defect and the smallest order-minus-alternation over the factors."""
    return max(_defect_minima(factors, p, cache))


def misses_guarantee(p: int, target: int, guarantee: int, max_ell: int, saturated_count: int) -> bool:
    """Whether a saturated-side scan (best balanced size ``max_ell`` over
    ``saturated_count`` vectors) falls short of a ``target``-vertex witness
    that a ``guarantee``-vertex guarantee promises. With no saturated vector
    the guarantee degenerates to the defect quantities being at most p - 1,
    so a target below p is then not promised."""
    return max_ell < target <= guarantee and not (saturated_count == 0 and target < p)


def _refuse_composite(p: int, force: bool) -> None:
    """A witness search refuses a non-prime p unless forced."""
    if not (force or is_prime(p)):
        raise ValueError(f"p={p} is not prime; pass force=True to experiment")


def find_witness(
    factors: Sequence[Hypergraph],
    p: int,
    coloring: Coloring,
    target: int | None = None,
    force: bool = False,
    scan: ScanResult | None = None,
) -> PartiteWitness | None:
    """Search the saturated vectors of a proper coloring of the product of
    the KG^p of the factors and extract a witness with ``target`` vertices.

    Returns None when no saturated vector reaches the target, which for a
    prime p and a target within the guarantee indicates a bug. Non-prime
    moduli are outside the guarantee and need ``force``; the witness is then
    flagged experimental. ``scan`` is the `sigma2_scan` of the same
    arguments, when the caller has it already.
    """
    _refuse_composite(p, force)
    if target is None:
        target = witness_target(factors, p)
    if target == 0:
        return PartiteWitness(p, ((),) * p, ((),) * p)
    if scan is None:
        scan = sigma2_scan(factors, p, coloring)
    if scan.argmax is None or scan.max_ell < target:
        return None
    return extract_witness(factors, p, scan.argmax, coloring, target)


def dold_consequence(
    factors: Sequence[Hypergraph], p: int, coloring: Coloring,
    cache: ResultCache | None = None,
) -> dict:
    """Exhaustive check of the counting consequence behind the witness
    guarantees: with saturated vectors present, the best saturated balanced
    size ``max_ell`` must reach both defect quantities ``min_ecd`` and
    ``min_n_minus_alt``; with none (``saturated_count`` 0), the whole
    labeling lands below the index cap and the consequence degenerates to
    the defect quantities being at most p - 1. Returns the `prooflab`
    report: those ints, ``p`` and the bool ``ok``."""
    scan = sigma2_scan(factors, p, coloring)
    min_ecd, min_alt_side = _defect_minima(factors, p, cache)
    target = max(min_ecd, min_alt_side)
    ok = not misses_guarantee(p, target, target, scan.max_ell, scan.saturated_count)
    return dict(
        p=p, max_ell=scan.max_ell, min_ecd=min_ecd, min_n_minus_alt=min_alt_side,
        saturated_count=scan.saturated_count, ok=ok,
    )
