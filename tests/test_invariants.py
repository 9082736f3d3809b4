"""Defect and alternation invariants against their naive oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from kneserlab import (
    Hypergraph,
    Permutation,
    SignVector,
    alt_min,
    alt_of,
    alt_sigma,
    cd,
    ecd,
    complete_uniform,
    hnka,
    star,
)
from conftest import (
    alt_min_naive,
    alt_naive,
    alt_sigma_naive,
    cd_naive,
    ecd_naive,
    random_hypergraph,
)


STAR4 = star(4)  # ([4], {{1,4},{2,4},{3,4}})


@st.composite
def sign_vectors(draw, max_modulus: int = 3, max_len: int = 6):
    m = draw(st.integers(1, max_modulus))
    entries = draw(st.lists(st.integers(0, m), max_size=max_len))
    return SignVector(m, tuple(entries))


@st.composite
def small_hypergraphs(draw, max_n: int = 5, max_edges: int = 6):
    n = draw(st.integers(1, max_n))
    edges = draw(
        st.lists(
            st.frozensets(st.integers(1, n), min_size=1, max_size=min(n, 3)),
            max_size=max_edges,
        )
    )
    return Hypergraph(n, set(edges))


class TestAlt:
    def test_run_example(self):
        X = SignVector(2, (1, 0, 2, 2, 1))
        assert alt_naive(X) == 3
        assert alt_of(X) == 3

    def test_zero_vector(self):
        assert alt_of(SignVector(2, (0, 0, 0))) == 0

    def test_constant_vector(self):
        assert alt_of(SignVector(2, (1, 1, 1))) == 1

    @given(sign_vectors())
    @settings(max_examples=200, deadline=None)
    def test_matches_subsequence_oracle(self, X):
        assert alt_of(X) == alt_naive(X)

    @given(sign_vectors())
    @settings(max_examples=100, deadline=None)
    def test_sign_class_views_consistent(self, X):
        sizes = X.class_sizes()
        assert sum(sizes) == X.support_size
        h = X.min_class_size()
        assert h == min(sizes)
        assert X.balanced_size() == X.modulus * h + sum(1 for s in sizes if s > h)


class TestCd:
    def test_complete_graph(self):
        assert cd(complete_uniform(5, 2), 2) == cd_naive(complete_uniform(5, 2), 2) == 3

    def test_edgeless(self):
        assert cd(Hypergraph(5, []), 3) == 0

    def test_triple_modulus(self):
        H = complete_uniform(7, 2)
        assert cd(H, 3) == 4

    def test_star_zero(self):
        assert cd(STAR4, 2) == 0


class TestMemo:
    def test_memos_are_bounded(self):
        from kneserlab.invariants import MEMO_SIZE

        H = Hypergraph(1, [])
        for fn, key in (
            (cd, lambda i: (H, i)),
            (ecd, lambda i: (H, i)),
            (alt_min, lambda i: (H, 1, "heuristic", i)),
        ):
            for i in range(1, MEMO_SIZE + 2):
                fn(*key(i))
            info = fn.cache_info()
            assert info.maxsize == MEMO_SIZE
            assert info.currsize == MEMO_SIZE


class TestEcd:
    def test_complete_graph(self):
        assert ecd(complete_uniform(5, 2), 2) == ecd_naive(complete_uniform(5, 2), 2) == 3

    def test_star_equitability_costs(self):
        # the center must sit alone, which breaks a 2+2 split of 4 vertices
        assert ecd(STAR4, 2) == ecd_naive(STAR4, 2) == 1
        assert cd(STAR4, 2) == 0

    def test_hnka_known_value(self):
        # chi(KG^2(H(7,2,3))) = ceil((7-3)/1) = 4 equals ecd^2/(r-1)
        assert ecd(hnka(7, 2, 3), 2) == 4

    @given(small_hypergraphs(), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_dominates_cd(self, H, r):
        assert ecd(H, r) >= cd(H, r)

    @given(small_hypergraphs(max_n=4, max_edges=4), st.integers(2, 3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_edge_monotone(self, H, r, data):
        if H.edge_count == 0:
            return
        drop = data.draw(st.integers(0, H.edge_count - 1))
        sub = Hypergraph(H.n, [e for i, e in enumerate(H.edges) if i != drop])
        assert cd(sub, r) <= cd(H, r)
        assert ecd(sub, r) <= ecd(H, r)


class TestAltSigma:
    def test_complete_graph_identity(self):
        H = complete_uniform(5, 2)
        ident = Permutation.identity(5)
        assert alt_sigma(H, 2, ident) == alt_sigma_naive(H, 2, ident) == 2

    def test_star_identity(self):
        ident = Permutation.identity(4)
        assert alt_sigma(STAR4, 2, ident) == alt_sigma_naive(STAR4, 2, ident) == 3

    def test_edgeless_full_alternation(self):
        H = Hypergraph(5, [])
        for r in (2, 3):
            assert alt_sigma(H, r, Permutation.identity(5)) == 5

    def test_relabeling_consistency(self):
        # applying sigma as a vertex relabeling and then using the identity
        # ordering gives the same value
        H = Hypergraph(5, [(1, 2), (2, 3, 4), (4, 5)])
        sigma = Permutation((3, 1, 5, 2, 4))
        inv = {v: i + 1 for i, v in enumerate(sigma.sigma)}
        relabeled = Hypergraph(5, [tuple(inv[v] for v in e) for e in H.edges])
        assert alt_sigma(H, 2, sigma) == alt_sigma(relabeled, 2, Permutation.identity(5))

    @given(small_hypergraphs(max_n=4, max_edges=4), st.integers(2, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, H, r, data):
        perm = tuple(data.draw(st.permutations(list(range(1, H.n + 1)))))
        sigma = Permutation(perm)
        assert alt_sigma(H, r, sigma) == alt_sigma_naive(H, r, sigma)


class TestAltMin:
    def test_complete_graph(self):
        res = alt_min(complete_uniform(5, 2), 2)
        assert res.value == 2 and res.exact

    def test_star(self):
        res = alt_min(STAR4, 2)
        assert res.value == 3 and res.exact

    def test_edgeless(self):
        assert alt_min(Hypergraph(4, []), 3).value == 4

    def test_exact_mode_cap(self):
        with pytest.raises(ValueError):
            alt_min(complete_uniform(10, 2), 2, "exact")

    def test_heuristic_upper_bound(self):
        H = complete_uniform(6, 2)
        exact = alt_min(H, 2, "exact")
        heur = alt_min(H, 2, "heuristic")
        assert not heur.exact and heur.status == "UPPER_BOUND"
        assert heur.value >= exact.value

    def test_certificate_is_optimal(self):
        H = Hypergraph(5, [(1, 2), (3, 4, 5), (2, 5)])
        res = alt_min(H, 2)
        assert alt_sigma(H, 2, res.sigma) == res.value

    def test_small_oracle_equivalence(self):
        rng = random.Random(7)
        for _ in range(6):
            H = random_hypergraph(rng, max_n=4, max_edges=5)
            for r in (2, 3):
                assert alt_min(H, r).value == alt_min_naive(H, r)


class TestOrderings:
    @given(small_hypergraphs(), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_alt_side_dominates_cd(self, H, r):
        assert H.n - alt_min(H, r).value >= cd(H, r)
