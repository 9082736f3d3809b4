"""Derived hypergraphs: Kneser construction, grid covers, products, and the
induced-defect hypergraph."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from kneserlab import (
    CapExceededError,
    Coloring,
    Hypergraph,
    ProductSpace,
    complete_uniform,
    ecd,
    formula_hnka,
    formula_kneser,
    hnka,
    kneser,
    product_is_proper,
    solve_chromatic,
    t_hypergraph,
)
from conftest import (
    finite_chi,
    is_proper,
    kneser_naive,
    minimal_covers,
    minimal_covers_brute,
    product_full,
    product_minimal,
    projection_coloring,
    random_hypergraph,
    random_pool,
)

# the mixed-size ground of the golden ``file:g6.json`` recipe
G6 = Hypergraph(6, [(2, 4), (3, 6), (4, 6), (1, 4, 5), (3, 4, 6), (1, 2, 4, 6)])


class TestCompleteUniform:
    def test_counts(self):
        assert complete_uniform(5, 2).edge_count == 10
        assert complete_uniform(4, 4).edge_count == 1
        assert complete_uniform(7, 2).edge_count == 21

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            complete_uniform(3, 4)


class TestHnka:
    def test_excluded_count(self):
        # C(7,2) - C(3,2), re-derived by filtering the full enumeration
        expected = [
            e
            for e in itertools.combinations(range(1, 8), 2)
            if not set(e) <= {1, 2, 3}
        ]
        H = hnka(7, 2, 3)
        assert H.edge_count == len(expected) == 18

    def test_a_zero_is_complete(self):
        assert hnka(6, 2, 0) == complete_uniform(6, 2)

    def test_small_a_excludes_nothing(self):
        assert hnka(5, 2, 1) == complete_uniform(5, 2)

    def test_a_at_least_n_rejected(self):
        with pytest.raises(ValueError):
            hnka(5, 2, 5)


class TestKneser:
    def test_petersen(self):
        # disjoint pairs of 2-subsets of [5], re-derived by enumeration
        pairs = list(itertools.combinations(range(1, 6), 2))
        expected = sum(
            1
            for a, b in itertools.combinations(pairs, 2)
            if not set(a) & set(b)
        )
        P = kneser(complete_uniform(5, 2), 2)
        assert (P.n, P.edge_count) == (10, expected) and expected == 15

    def test_triple_system(self):
        pairs = list(itertools.combinations(range(1, 8), 2))
        expected = sum(
            1
            for a, b, c in itertools.combinations(pairs, 3)
            if not (set(a) & set(b) or set(a) & set(c) or set(b) & set(c))
        )
        K = kneser(complete_uniform(7, 2), 3)
        assert (K.n, K.edge_count) == (21, expected) and expected == 105

    def test_uniformity(self):
        K = kneser(complete_uniform(6, 2), 3)
        assert all(len(e) == 3 for e in K.edges)

    def test_no_disjoint_edges(self):
        H = Hypergraph(3, [(1, 2), (1, 3), (2, 3)])
        assert kneser(H, 2).edge_count == 0

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            kneser(complete_uniform(4, 2), 1)

    @pytest.mark.parametrize("r", [2.5, 3.0, "3", None])
    def test_non_int_r_rejected(self, r):
        # 2.5 once gave 21 vertices and no hyperedges, so chi = 1
        with pytest.raises(ValueError, match=re.escape(f"got {r!r}")):
            kneser(complete_uniform(7, 2), r)

    @pytest.mark.parametrize(
        "build, name, value",
        [
            # the first three once returned 3.0, 3.0 and 5.0
            (lambda: formula_kneser(7, 2, 2.5), "r", 2.5),
            (lambda: formula_hnka(7, 2, 3, 2.5), "r", 2.5),
            (lambda: formula_kneser(7.0, 2, 2), "n", 7.0),
            (lambda: formula_kneser(7, 2.0, 2), "k", 2.0),
            (lambda: formula_hnka(7.0, 2, 3, 2), "n", 7.0),
            (lambda: formula_hnka(7, 2, 3.0, 2), "a", 3.0),
            # the first once built a hypergraph, the second failed inside _ecd
            (lambda: t_hypergraph(complete_uniform(4, 2), 1.5, 2), "C", 1.5),
            (lambda: t_hypergraph(complete_uniform(4, 2), 1, 2.5), "s", 2.5),
            (lambda: t_hypergraph(complete_uniform(4, 2), "1", 2), "C", "1"),
        ],
    )
    def test_non_int_formula_and_t_parameters_rejected(self, build, name, value):
        with pytest.raises(ValueError, match=rf"\b{name} >= .*got {re.escape(repr(value))}$"):
            build()

    @staticmethod
    def assert_same(got: Hypergraph, want: Hypergraph) -> None:
        assert (got.n, got.edges, got.edge_masks) == (want.n, want.edges, want.edge_masks)
        assert hash(got) == hash(want) and got == want

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_naive_on_random_pool(self, r):
        # the wider pool is the one with 4 disjoint edges in some members
        for H in (*random_pool(60), *random_pool(60, max_n=12, max_edges=16)):
            self.assert_same(kneser(H, r), kneser_naive(H, r))

    @pytest.mark.parametrize("ground,r", [
        (complete_uniform(9, 2), 3),
        (hnka(8, 2, 3), 2),
        (hnka(8, 2, 3), 3),
        (G6, 2),
        (G6, 3),
    ])
    def test_matches_naive_on_named(self, ground, r):
        self.assert_same(kneser(ground, r), kneser_naive(ground, r))


class TestMinimalCovers:
    def test_two_by_two_diagonals(self):
        assert minimal_covers(2, 2) == (
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        )

    def test_one_by_one(self):
        assert minimal_covers(1, 1) == (((1, 1),),)

    @pytest.mark.parametrize("r1,r2", [(1, 3), (2, 2), (2, 3), (3, 3)])
    def test_matches_exhaustive_oracle(self, r1, r2):
        got = {frozenset(S) for S in minimal_covers(r1, r2)}
        assert got == minimal_covers_brute(r1, r2)

    def test_three_by_three_shape(self):
        covers = minimal_covers(3, 3)
        sizes = {len(S) for S in covers}
        assert sizes == {3, 4}
        perms = {
            frozenset((i + 1, p[i] + 1) for i in range(3))
            for p in itertools.permutations(range(3))
        }
        assert perms <= {frozenset(S) for S in covers}
        for S in covers:
            rows = [i for i, _ in S]
            cols = [j for _, j in S]
            assert set(rows) == {1, 2, 3} and set(cols) == {1, 2, 3}
            for cell in S:
                assert rows.count(cell[0]) == 1 or cols.count(cell[1]) == 1


class TestProductSpace:
    def test_row_major_bijection(self):
        space = ProductSpace((3, 4, 2))
        tuples = itertools.product(range(1, 4), range(1, 5), range(1, 3))
        assert [space.index_of(t) for t in tuples] == list(range(1, space.size + 1))


class TestProductMinimal:
    def test_single_factor_identity(self):
        H = complete_uniform(4, 2)
        assert product_minimal([H]) is H

    def test_edge_times_edge(self):
        K2 = Hypergraph(2, [(1, 2)])
        got = product_minimal([K2, K2])
        # two diagonal pairs on the 4-cycle's vertex set
        assert got == Hypergraph(4, [(1, 4), (2, 3)])

    def test_graph_product_is_matching_form(self):
        G = complete_uniform(3, 2)
        got = product_minimal([G, G])
        space = ProductSpace((3, 3))
        expected = set()
        for a, b in G.edges:
            for x, y in G.edges:
                expected.add(
                    tuple(sorted((space.index_of((a, x)), space.index_of((b, y)))))
                )
                expected.add(
                    tuple(sorted((space.index_of((a, y)), space.index_of((b, x)))))
                )
        assert set(got.edges) == expected

    def test_chi_invariant_under_factor_order(self):
        A = complete_uniform(3, 2)
        B = Hypergraph(2, [(1, 2)])
        C = Hypergraph(3, [(1, 2), (2, 3)])
        chis = {
            finite_chi(solve_chromatic(product_minimal(list(perm)))[0])
            for perm in itertools.permutations([A, B, C])
        }
        assert len(chis) == 1

    def test_fold_matches_full_product_chi(self):
        # associativity of the minimal-edge fold is asserted on tiny cases
        A = complete_uniform(3, 2)
        B = Hypergraph(2, [(1, 2)])
        for factors in ([A, B], [B, A, B], [A, A, B]):
            mini = product_minimal(factors)
            full = product_full(factors)
            assert solve_chromatic(mini)[0] == solve_chromatic(full)[0]

    def test_cap(self):
        big = complete_uniform(20, 2)
        with pytest.raises(CapExceededError):
            product_minimal([big, big])


class TestProductIsProper:
    def test_constant_coloring_improper(self):
        H = complete_uniform(3, 2)
        c = Coloring((1,) * 9, 1)
        assert not product_is_proper([H, H], c)

    def test_projection_coloring_proper(self):
        H = complete_uniform(3, 2)
        c1 = [1, 2, 3]
        cols = [c1[a - 1] for a, _ in itertools.product(range(1, 4), repeat=2)]
        assert product_is_proper([H, H], Coloring(tuple(cols), 3))

    def test_flip_creates_monochromatic_edge(self, petersen, petersen_coloring):
        proj = projection_coloring([petersen, petersen], 0, petersen_coloring)
        assert product_is_proper([petersen, petersen], proj)
        # recolor (b, y) to the color of (a, x) for a product edge
        # (a,x)-(b,y): a~b in the factor and x~y in the factor
        a, b = petersen.edges[0]
        x, y = petersen.edges[1]
        space = ProductSpace((10, 10))
        cols = list(proj.colors)
        cols[space.index_of((b, y)) - 1] = cols[space.index_of((a, x)) - 1]
        assert not product_is_proper([petersen, petersen], Coloring(tuple(cols), 3))

    def test_agrees_with_materialized_check(self):
        rng = random.Random(99)
        for _ in range(60):
            H1 = random_hypergraph(rng, max_n=3, max_edges=4)
            H2 = random_hypergraph(rng, max_n=4, max_edges=4)
            n = H1.n * H2.n
            k = rng.randint(1, 4)
            c = Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)
            explicit = is_proper(product_minimal([H1, H2]), c)
            assert product_is_proper([H1, H2], c) == explicit


class TestTHypergraph:
    def test_complete_graph_threshold_zero(self):
        # any induced subgraph on >= 3 vertices needs an unbalanced or
        # overfull split, so exactly the size >= 3 subsets qualify
        H = complete_uniform(5, 2)
        T = t_hypergraph(H, 0, 2)
        expected = [
            A
            for size in range(1, 6)
            for A in itertools.combinations(range(1, 6), size)
            if ecd(Hypergraph(size, list(itertools.combinations(range(1, size + 1), 2))), 2) > 0
        ]
        assert T.edge_count == len(expected) == 16
        assert all(len(e) >= 3 for e in T.edges)

    def test_large_budget_empty(self):
        H = complete_uniform(5, 2)
        assert t_hypergraph(H, 5, 2).edge_count == 0

    def test_edgeless_source_empty(self):
        assert t_hypergraph(Hypergraph(4, []), 0, 2).edge_count == 0

    def test_enumeration_cap(self):
        with pytest.raises(CapExceededError):
            t_hypergraph(complete_uniform(17, 2), 0, 2)
