"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive everything from the definitions by
plain enumeration; they never call the pruned implementations they check.
"""

from __future__ import annotations

import itertools
import random

import pytest

from kneserlab import (
    Coloring,
    Hypergraph,
    complete_uniform,
    hnka,
    kneser,
    projection_coloring,
    solve_chromatic,
)

SEED = 20240501


# --- oracles ---------------------------------------------------------------------


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
    assert value.as_int() == 3
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
    return Coloring.of([min(e[0], e[1], 3) for e in ground.edges], 3)
