"""Exact colorability defects and alternation numbers.

The main entry points (cd, ecd, alt_min) use pruned searches on the
"maximal disjoint edge-free classes" reformulation; their memos keep at
most MEMO_SIZE entries each. A search node asks whether a class mask spans
an edge: up to T_ENUM_CAP vertices by one index into the call's own
`span_table`, above it by scanning the edges through the vertex just
added. Deliberately dumb reference implementations live with the tests as
independent oracles. A sign vector is a plain tuple of entries in 0..m:
0 is "unsigned", 1..m the m cyclic signs of `act_sign` (m the identity).
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .bits import bits_of
from .hypergraph import T_ENUM_CAP, Hypergraph, span_table

# alt_min in exact mode walks up to n! orderings.
ALT_EXACT_MAX_N = 9

# Entries kept by each of the cd, ecd and alt_min memos.
MEMO_SIZE = 4096


def balanced_size(sizes: Sequence[int]) -> int:
    """len(sizes)*h + #sizes above h, where h = min(sizes): the most cells
    that p = len(sizes) rows of these sizes keep when any two kept rows
    differ by at most one and every row of size h is kept whole."""
    h = min(sizes)
    return len(sizes) * h + sum(1 for s in sizes if s > h)


def act_sign(g: int, s: int, m: int) -> int:
    """Cyclic group action on signs 1..m (sign m is the identity)."""
    return (g + s - 1) % m + 1


class Permutation(namedtuple("Permutation", "sigma")):
    """A bijection of [n] given as the image tuple ``sigma`` (position i ->
    sigma[i-1])."""

    __slots__ = ()

    def __new__(cls, sigma: tuple[int, ...]) -> Permutation:
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            raise ValueError("not a bijection of [1..n]")
        return super().__new__(cls, sigma)


# --- colorability defects ----------------------------------------------------


def _edges_at(H: Hypergraph) -> list[list[int]]:
    at: list[list[int]] = [[] for _ in range(H.n + 1)]
    for em in H.edge_masks:
        for v in bits_of(em):
            at[v].append(em)
    return at


def _edge_index(H: Hypergraph) -> tuple[bytes | None, list[list[int]] | None]:
    """What a search's node test reads, chosen once per call: the span table
    up to T_ENUM_CAP vertices (the test is ``spans[new]``), else the edges
    through each vertex (``any(em & new == em for em in edges_at[v])``).
    Only the class holding v can have gained an edge, so the scan stays
    per vertex; ``em & new == em`` builds one int per edge, where
    ``em & ~new == 0`` built two."""
    if H.n <= T_ENUM_CAP:
        return span_table(H), None
    return None, _edges_at(H)


def _cd(H: Hypergraph, r: int) -> int:
    """r-colorability defect: fewest vertex removals so the rest splits into
    r disjoint edge-free classes.

    Branch and bound over vertices in canonical order: each vertex joins a
    class (kept edge-free) or is removed; prune once removals reach the
    incumbent. The edge-free test reads `span_table` up to T_ENUM_CAP
    vertices.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = H.n
    spans, edges_at = _edge_index(H)
    best = n
    classes = [0] * r

    def rec(v: int, removed: int, used: int) -> None:
        nonlocal best
        if removed >= best:
            return
        if v > n:
            best = removed
            return
        bit = 1 << (v - 1)
        for i in range(min(used + 1, r)):
            new = classes[i] | bit
            if not (spans[new] if spans is not None else any(em & new == em for em in edges_at[v])):
                classes[i] = new
                rec(v + 1, removed, max(used, i + 1))
                classes[i] ^= bit
        rec(v + 1, removed + 1, used)

    rec(1, 0, 0)
    return best


def _ecd(H: Hypergraph, r: int) -> int:
    """Equitable r-colorability defect: like cd, but the r class sizes
    (including empty classes) must differ by at most one on the kept
    vertices, which forces the exact size multiset for each kept count.
    The edge-free test reads `span_table` up to T_ENUM_CAP vertices."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = H.n
    spans, edges_at = _edge_index(H)

    def feasible(m: int) -> bool:
        q, rem = divmod(m, r)
        caps = [q + 1] * rem + [q] * (r - rem)
        counts = [0] * r
        classes = [0] * r

        def rec(v: int, placed: int) -> bool:
            if placed + (n - v + 1) < m:
                return False
            if v > n:
                return placed == m
            bit = 1 << (v - 1)
            seen_fresh: set[int] = set()
            for i in range(r):
                if counts[i] >= caps[i]:
                    continue
                if counts[i] == 0:
                    # empty classes of equal capacity are interchangeable
                    if caps[i] in seen_fresh:
                        continue
                    seen_fresh.add(caps[i])
                new = classes[i] | bit
                if spans[new] if spans is not None else any(em & new == em for em in edges_at[v]):
                    continue
                classes[i] = new
                counts[i] += 1
                if rec(v + 1, placed + 1):
                    return True
                classes[i] ^= bit
                counts[i] -= 1
            return rec(v + 1, placed)

        return rec(1, 0)

    for m in range(n, -1, -1):
        if feasible(m):
            return n - m
    return n


# --- alternation numbers -----------------------------------------------------


class _Found(Exception):
    def __init__(self, classes: list[int]) -> None:
        self.classes = classes  # the found vector's vertex masks of signs 1..m


def _alt_search(
    H: Hypergraph, m: int, order: Sequence[int], spans: bytes | None, cutoff: int | None,
    edges_at: list[list[int]] | None = None,
) -> int:
    """Max alt(X) over X in (Z_m u {0})^n whose sign classes (mapped through
    the vertex order) span no edge, read from ``spans``, or from
    ``edges_at`` when ``spans`` is None (see `_edge_index`). With
    ``cutoff``, raises _Found as soon as a vector with alt >= cutoff exists.
    Repeating the previous sign is dominated by leaving the vertex unsigned,
    and unused signs are interchangeable, so only the first of them is
    tried."""
    n = H.n
    best = 0
    class_masks = [0] * (m + 1)

    def rec(i: int, last: int, used: int, cur: int) -> None:
        nonlocal best
        if cur > best:
            best = cur
            if cutoff is not None and best >= cutoff:
                raise _Found(class_masks[1:])
        if i > n or cur + (n - i + 1) <= best:
            return
        v = order[i - 1]
        bit = 1 << (v - 1)
        for s in range(1, min(used + 1, m) + 1):
            if s == last:
                continue
            new = class_masks[s] | bit
            if not (spans[new] if spans is not None else any(em & new == em for em in edges_at[v])):
                class_masks[s] = new
                rec(i + 1, s, max(used, s), cur + 1)
                class_masks[s] ^= bit
        rec(i + 1, last, used, cur)

    rec(1, 0, 0, 0)
    return best


def _next_block(order: list[int], depth: int) -> bool:
    """Step ``order`` in place to the first lex-later ordering that differs
    from it in order[:depth]; False if there is none. Sorting the tail
    after ``depth`` descending makes ``order`` the last ordering of its
    block, and the plain next permutation follows it."""
    order[depth:] = sorted(order[depth:], reverse=True)
    i = len(order) - 2
    while i >= 0 and order[i] > order[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(order) - 1
    while order[j] < order[i]:
        j -= 1
    order[i], order[j] = order[j], order[i]
    order[i + 1 :] = order[:i:-1]
    return True


def _reach(kept: list[list[int]], order: list[int], best: int) -> int:
    """The depth of a block of ``order`` settled by a vector of ``kept`` that
    has ``best`` >= 2 runs along it, or 0. One that starts run ``best``
    settles the block of order[:p], p the start of run best - j, if its last
    j + 1 runs have distinct signs (j = 1 always; j = 2 if runs best - 2 and
    best differ). Proof: zero its entries after p but the j run starts. The
    classes stay edge-free, order[:p] gives best - j runs, and the j left,
    distinct and unlike the last sign of order[:p], each open a run in any
    order. Vectors too short are dropped early; the settling one moves first."""
    slack = len(order) - best
    for k, signs in enumerate(kept):
        last = before = missed = start = prev = 0
        for d, v in enumerate(order, 1):
            s = signs[v]
            if s and s != last:
                if d - missed >= best:
                    kept.insert(0, kept.pop(k))
                    return prev if prev and s != before else start
                prev, start = start, d
                before, last = last, s
            elif missed == slack:
                break
            else:
                missed += 1
    return 0


def _maximal(classes: list[int], spans: bytes, n: int) -> list[int]:
    """The signs (index 0 unused) of ``classes`` made maximal: each unsigned
    vertex in turn joins the least class that stays edge-free."""
    signs = [0] * (n + 1)
    for s, mask in enumerate(classes, 1):
        for v in bits_of(mask):
            signs[v] = s
    for v in range(1, n + 1):
        if signs[v]:
            continue
        bit = 1 << (v - 1)
        for s, mask in enumerate(classes):
            if not spans[mask | bit]:
                classes[s] = mask | bit
                signs[v] = s + 1
                break
    return signs


def _twins_below(H: Hypergraph) -> dict[int, int]:
    """For each vertex v that has one, the mask of the vertices u < v whose
    transposition (u v) maps E(H) onto itself. An edge holding both or
    neither is fixed, so only an edge holding one of them needs its swapped
    image in E(H)."""
    edges = set(H.edge_masks)
    below: dict[int, int] = {}
    for v in range(2, H.n + 1):
        for u in range(1, v):
            pair = 1 << (u - 1) | 1 << (v - 1)
            if all(em & pair in (0, pair) or em ^ pair in edges for em in H.edge_masks):
                below[v] = below.get(v, 0) | 1 << (u - 1)
    return below


def _symmetric_prefix(order: list[int], below: dict[int, int]) -> int:
    """The shortest prefix of ``order`` whose block, by one of two rules,
    holds only orderings with a lex-earlier image of equal value, or 0.
    Reversal: if order[-1] < order[0], every ordering of the block of
    order[:d], d the position of the last entry >= order[0], ends below
    order[0], so its reverse is lex-earlier. Twins: at the first position d
    that places a vertex v before a twin u < v (``below``), swapping u and
    v in any ordering of the block of order[:d] gives a lex-earlier one."""
    n = depth = len(order)
    if order[-1] < order[0]:
        depth -= 1
        while order[depth - 1] < order[0]:
            depth -= 1
    if below:
        placed = 0
        for d, v in enumerate(order[:depth], 1):
            if below.get(v, 0) & ~placed:
                return d
            placed |= 1 << (v - 1)
    return depth if depth < n else 0


class AltResult(namedtuple("AltResult", "value sigma exact")):
    """alt ``value`` (int) with its certificate ordering ``sigma`` (a
    `Permutation`); ``exact=False`` marks a heuristic upper bound."""

    __slots__ = ()


def _alt_min(H: Hypergraph, r: int, mode: str = "exact", seed: int = 0) -> AltResult:
    """Minimum over all vertex orderings of the largest alternation of a
    sign vector whose classes, read through the ordering, are edge-free.

    Exact mode (n <= 9) walks the orderings in lex order and reports the
    lexicographically smallest optimal one. It keeps up to n maximal
    vectors from its searches, the last to settle a block first; their
    sign classes are vertex sets, edge-free under every ordering. Read
    along an ordering, before its search and after a search hits the
    cutoff, one with ``best`` (the incumbent) runs settles the block of
    order[:p], p the start of its run best - j, if its last j + 1 runs
    have distinct signs (`_reach`). Jumps drop only orderings no better
    than the incumbent, and the certificate changes only on a strict
    improvement, so it stays the lex-least optimal ordering. An ordering
    that no kept vector settles costs at most n*n steps before its search.
    Before the kept vectors, `_symmetric_prefix` settles in O(n) the
    blocks whose orderings all have a lex-earlier image under reversal or
    under a twin swap (u v), a transposition that maps E(H) onto itself
    (`_twins_below`, built once if the walk goes past the first search).
    The value of an ordering equals that of its reverse, since the number
    of runs of a vector does not change when it is read backwards and the
    sign classes are vertex sets, and that of its image under any
    automorphism of H. Every ordering before the current one in lex order
    is no better than the incumbent, so an ordering with a lex-earlier
    image cannot improve on it. The lex-least optimal ordering has no
    lex-earlier image, so the value and the certificate do not change.
    It stops at the floor min(r, m), m the vertices in no singleton edge:
    r of those, each its own sign class, reach it under any ordering.
    Heuristic mode does seeded random restarts with adjacent-transposition
    descent and returns an upper bound. One `span_table`, built per call up
    to T_ENUM_CAP vertices, answers the edge-free test of every ordering.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    n = H.n
    spans, edges_at = _edge_index(H)
    if mode == "exact":
        if n > ALT_EXACT_MAX_N:
            raise ValueError(
                f"exact mode enumerates {n}! orderings; use mode='heuristic'"
            )
        floor = min(r, sum(1 for v in range(1, n + 1) if not spans[1 << (v - 1)]))
        order = list(range(1, n + 1))
        best = _alt_search(H, r, order, spans, cutoff=None)
        cert, depth = tuple(order), n
        kept: list[list[int]] = []  # found vectors made maximal, one sign per vertex
        below = _twins_below(H) if best > floor else {}
        while best > floor and _next_block(order, depth):
            depth = _symmetric_prefix(order, below) or _reach(kept, order, best)
            if depth:
                continue
            try:
                best = _alt_search(H, r, order, spans, cutoff=best)
            except _Found as found:
                kept = [_maximal(found.classes, spans, n), *kept[: n - 1]]
                depth = _reach(kept, order, best)
                continue
            cert, depth = tuple(order), n
        return AltResult(best, Permutation(cert), True)

    rng = random.Random(seed)
    base = list(range(1, n + 1))
    best_val: int | None = None
    best_order = tuple(base)

    def evaluate(order: tuple[int, ...], bound: int) -> int | None:
        try:
            return _alt_search(H, r, order, spans, cutoff=bound, edges_at=edges_at)
        except _Found:
            return None

    for restart in range(8):
        order = list(base)
        if restart:
            rng.shuffle(order)
        cur = _alt_search(H, r, order, spans, cutoff=None, edges_at=edges_at)
        improved = True
        while improved:
            improved = False
            for i in range(n - 1):
                cand = list(order)
                cand[i], cand[i + 1] = cand[i + 1], cand[i]
                val = evaluate(tuple(cand), cur)
                if val is not None and val < cur:
                    order, cur = cand, val
                    improved = True
                    break
        if best_val is None or cur < best_val:
            best_val, best_order = cur, tuple(order)
    return AltResult(best_val if best_val is not None else 0, Permutation(best_order), False)


# The public memos. The bounds path and `reduce` call the plain searches under them:
# its cache memoizes a run, and a self-checking cache must re-derive.
cd = lru_cache(maxsize=MEMO_SIZE)(_cd)
ecd = lru_cache(maxsize=MEMO_SIZE)(_ecd)
alt_min = lru_cache(maxsize=MEMO_SIZE)(_alt_min)
