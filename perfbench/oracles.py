"""Independent checkers for the benchmark.

Nothing here imports kneserlab: every expected value is re-derived from the
definitions (plain enumeration over vertex subsets and sign vectors) or
taken from a closed form. Hypergraphs are passed as ``(n, edges)`` with
1-based vertices; each checker returns a list of problems, empty when the
answer is accepted.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def masks_of(edges: Sequence[Sequence[int]]) -> list[int]:
    out = []
    for e in edges:
        m = 0
        for v in e:
            m |= 1 << (v - 1)
        out.append(m)
    return out


def edge_free_table(n: int, edges: Sequence[Sequence[int]]) -> list[bool]:
    """free[m] is True iff no edge lies inside the vertex subset m."""
    spans = [False] * (1 << n)
    for em in masks_of(edges):
        spans[em] = True
    for m in range(1 << n):
        if not spans[m]:
            low = m
            while low:
                bit = low & -low
                if spans[m ^ bit]:
                    spans[m] = True
                    break
                low ^= bit
    return [not s for s in spans]


# --- colourability defects ------------------------------------------------------


def cd_brute(n: int, edges, r: int) -> int:
    """n minus the largest union of r pairwise disjoint edge-free sets."""
    free = edge_free_table(n, edges)
    free_sets = [m for m in range(1 << n) if free[m]]
    reach = set(free_sets)
    for _ in range(r - 1):
        reach = {a | b for a in reach for b in free_sets if a & b == 0}
    return n - max(m.bit_count() for m in reach)


def ecd_brute(n: int, edges, r: int) -> int:
    """Like cd_brute, but the r classes (empty ones included) must have
    sizes differing by at most one."""
    free = edge_free_table(n, edges)
    by_size: dict[int, list[int]] = {}
    for m in range(1 << n):
        if free[m]:
            by_size.setdefault(m.bit_count(), []).append(m)

    def pick(sizes: list[int], used: int, floor: int) -> bool:
        if not sizes:
            return True
        size, rest = sizes[0], sizes[1:]
        same_next = bool(rest) and rest[0] == size
        for m in by_size.get(size, []):
            if m & used or (size and m < floor):
                continue
            if pick(rest, used | m, m + 1 if same_next else 0):
                return True
        return False

    for kept in range(n, -1, -1):
        q, rem = divmod(kept, r)
        if pick([q + 1] * rem + [q] * (r - rem), 0, 0):
            return n - kept
    return n


# --- alternation ------------------------------------------------------------------


def alt_sigma_brute(n: int, edges, r: int, sigma: Sequence[int]) -> int:
    """Largest number of sign runs over all vectors in {0..r}^n whose sign
    classes, read through ``sigma``, span no edge. Enumerates every valid
    vector; a class that spans an edge stays invalid under extension, which
    is the only pruning."""
    free = edge_free_table(n, edges)
    best = 0
    classes = [0] * (r + 1)

    def rec(i: int, last: int, runs: int) -> None:
        nonlocal best
        if i == n:
            best = max(best, runs)
            return
        bit = 1 << (sigma[i] - 1)
        rec(i + 1, last, runs)
        for s in range(1, r + 1):
            new = classes[s] | bit
            if free[new]:
                classes[s] = new
                rec(i + 1, s, runs + (s != last))
                classes[s] ^= bit

    rec(0, 0, 0)
    return best


def alt_min_brute(n: int, edges, r: int) -> int:
    return min(
        alt_sigma_brute(n, edges, r, sigma)
        for sigma in itertools.permutations(range(1, n + 1))
    )


# alt_min is recomputed over all n! orderings up to this n; above it, a few
# random orderings must not beat the reported minimum.
FULL_ALT_MAX_N = 5
ALT_SAMPLES = 3


def check_defects(n: int, edges, r: int, cd_v: int, ecd_v: int, alt_v: int, sigma, rng) -> list[str]:
    """Check cd, ecd and an exact alternation result with its certificate."""
    out = []
    want_cd = cd_brute(n, edges, r)
    if cd_v != want_cd:
        out.append(f"cd={cd_v}, brute force gives {want_cd}")
    want_ecd = ecd_brute(n, edges, r)
    if ecd_v != want_ecd:
        out.append(f"ecd={ecd_v}, brute force gives {want_ecd}")
    if sorted(sigma) != list(range(1, n + 1)):
        out.append(f"certificate {sigma} is not an ordering of [{n}]")
        return out
    got = alt_sigma_brute(n, edges, r, sigma)
    if got != alt_v:
        out.append(f"alt={alt_v} but its certificate ordering reaches {got}")
    if n <= FULL_ALT_MAX_N:
        want_alt = alt_min_brute(n, edges, r)
        if want_alt != alt_v:
            out.append(f"alt={alt_v}, minimum over all orderings is {want_alt}")
    else:
        for _ in range(ALT_SAMPLES):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            if alt_sigma_brute(n, edges, r, order) < alt_v:
                out.append(f"alt={alt_v} but ordering {order} does better")
    if cd_v > ecd_v:
        out.append(f"cd={cd_v} > ecd={ecd_v}")
    if cd_v > n - alt_v:
        out.append(f"cd={cd_v} > n-alt={n - alt_v}")
    return out


def complete_defect(n: int, k: int, r: int) -> int:
    """cd^r = ecd^r = n - alt_r = n - r(k-1) for the complete k-uniform
    hypergraph on [n] with n >= r(k-1)."""
    return n - r * (k - 1)


# --- Kneser hypergraphs and colourings -------------------------------------------


def canonical_edges(edges) -> list[tuple[int, ...]]:
    """Edges sorted by size, then lexicographically (the vertex order of a
    Kneser hypergraph)."""
    return sorted((tuple(sorted(e)) for e in edges), key=lambda e: (len(e), e))


def kneser_edges(ground_edges, r: int) -> tuple[int, list[tuple[int, ...]]]:
    """KG^r of a ground hypergraph: vertex i is the i-th canonical ground
    edge; hyperedges are the r-sets of pairwise disjoint ground edges."""
    ground = canonical_edges(ground_edges)
    masks = masks_of(ground)
    out = []
    for combo in itertools.combinations(range(len(ground)), r):
        union = 0
        total = 0
        for i in combo:
            union |= masks[i]
            total += masks[i].bit_count()
        if union.bit_count() == total:
            out.append(tuple(i + 1 for i in combo))
    return len(ground), out


def kneser_chi(n: int, k: int, r: int) -> int:
    """Alon-Frankl-Lovasz: chi(KG^r(n,k)) = ceil((n - r(k-1)) / (r-1)),
    n >= rk."""
    return ceil_div(n - r * (k - 1), r - 1)


def hnka_chi(n: int, k: int, a: int, r: int) -> int:
    """chi(KG^r(H(n,k,a))) = ceil((n - max(a, k-1)) / (r-1)) for
    a <= 2k-1 or a >= rk-1 (Alishahi-Hajiabolhassan)."""
    if 2 * k <= a <= r * k - 2:
        raise ValueError("a lies outside the proven range")
    return ceil_div(n - max(a, k - 1), r - 1)


def palette_problems(colors: Sequence[int], chi: int) -> list[str]:
    """Exactly the colours 1..chi, each first used after all smaller ones."""
    out = []
    if set(colors) != set(range(1, chi + 1)):
        out.append(f"colours used {sorted(set(colors))}, expected 1..{chi}")
    top = 0
    for c in colors:
        if c > top + 1:
            out.append("colour vector is not in first-use canonical form")
            break
        top = max(top, c)
    return out


def check_coloring(n: int, edges, colors: Sequence[int], chi: int) -> list[str]:
    """Proper, exactly ``chi`` colours, first-use canonical."""
    if len(colors) != n:
        return [f"{len(colors)} colours for {n} vertices"]
    out = palette_problems(colors, chi)
    for e in edges:
        if len({colors[v - 1] for v in e}) == 1:
            out.append(f"edge {tuple(e)} is monochromatic")
            break
    return out


def check_product_coloring(
    factor_edges: Sequence[Sequence[Sequence[int]]],
    dims: Sequence[int],
    colors: Sequence[int],
    chi: int,
) -> list[str]:
    """A colouring of the categorical product is proper iff no box
    e_1 x ... x e_t holds a colour whose cells project onto every e_j.
    Walks the boxes one by one and the cells of each box."""
    size = 1
    for d in dims:
        size *= d
    if len(colors) != size:
        return [f"{len(colors)} colours for {size} product vertices"]
    out = palette_problems(colors, chi)
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    t = len(dims)
    for box in itertools.product(*factor_edges):
        seen: dict[int, list[set[int]]] = {}
        for cell in itertools.product(*box):
            idx = sum((v - 1) * s for v, s in zip(cell, strides))
            proj = seen.setdefault(colors[idx], [set() for _ in range(t)])
            for j, v in enumerate(cell):
                proj[j].add(v)
        for c, proj in seen.items():
            if all(len(proj[j]) == len(box[j]) for j in range(t)):
                out.append(f"box {box} is covered by colour {c}")
                return out
    return out


def check_witness(
    factor_edges: Sequence[Sequence[Sequence[int]]],
    p: int,
    witness: dict,
    target: int,
    color_of=None,
) -> list[str]:
    """A colourful balanced complete p-partite witness in a product of KG^p
    factors: p parts of balanced sizes adding up to ``target``, distinct
    colours inside a part, no colour more than p-1 times, and, in every
    factor, the edges of two vertices from different parts are disjoint.
    ``color_of`` maps a vertex tuple to its colour when the colouring is
    known."""
    parts = witness["parts"]
    if len(parts) != p:
        return [f"{len(parts)} parts, expected {p}"]
    out = []
    sizes = [len(part["vertices"]) for part in parts]
    if sum(sizes) != target:
        out.append(f"witness has {sum(sizes)} vertices, expected {target}")
    if sizes and max(sizes) - min(sizes) > 1:
        out.append(f"unbalanced parts {sizes}")
    uses: dict[int, int] = {}
    for part in parts:
        cols = part["colors"]
        if len(cols) != len(part["vertices"]):
            return out + ["colours do not match the part"]
        if len(set(cols)) != len(cols):
            out.append(f"repeated colour inside part {cols}")
        for vertex, c in zip(part["vertices"], cols):
            uses[c] = uses.get(c, 0) + 1
            if color_of is not None and color_of(tuple(vertex)) != c:
                out.append(f"vertex {vertex} is not coloured {c}")
    for c, u in uses.items():
        if u > p - 1:
            out.append(f"colour {c} used {u} > p-1 times")
    masks = [masks_of(canonical_edges(edges)) for edges in factor_edges]
    for a, b in itertools.combinations(range(p), 2):
        for u in parts[a]["vertices"]:
            for w in parts[b]["vertices"]:
                for j, fm in enumerate(masks):
                    if fm[u[j] - 1] & fm[w[j] - 1]:
                        out.append(f"vertices {u} and {w} meet in factor {j + 1}")
    return out
