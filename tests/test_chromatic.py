"""Exact solver, closed forms, and bound reports."""

from __future__ import annotations

import random
import sys
import time
from itertools import combinations
from math import prod

import pytest

from kneserlab import (
    ChromaticValue,
    Coloring,
    Hypergraph,
    OutOfProvenRangeError,
    bound_report,
    complete_uniform,
    cycle,
    factor_bounds,
    formula_hnka,
    formula_kneser,
    hnka,
    kneser,
    product_is_proper,
    solve_chromatic,
    solve_product_chromatic,
    star,
)
from kneserlab.chromatic import _ColoringSearch
from conftest import (
    chromatic_brute,
    compile_boxes_naive,
    extends_naive,
    finite_chi,
    is_first_appearance,
    is_proper,
    is_proper_kneser_coloring,
    lex_least_coloring_brute,
    lex_least_coloring_static,
    prefix_block_coloring,
    product_minimal,
    random_hypergraph,
)


def relabeled(H: Hypergraph, rng: random.Random) -> Hypergraph:
    perm = list(range(1, H.n + 1))
    rng.shuffle(perm)
    return Hypergraph(H.n, [tuple(perm[v - 1] for v in e) for e in H.edges])


class TestSolver:
    def test_lovasz_petersen(self):
        assert solve_chromatic(kneser(complete_uniform(5, 2), 2))[0].to_json() == 3

    def test_singleton_edge_infinite(self):
        H = Hypergraph(3, [(1,), (2, 3)])
        assert solve_chromatic(H)[0] == ChromaticValue("INFINITE")

    def test_empty_hypergraph(self):
        assert solve_chromatic(Hypergraph(0, []))[0].to_json() == 1
        assert solve_chromatic(Hypergraph(4, []))[0].to_json() == 1

    def test_limit_exceeded(self):
        H = complete_uniform(6, 2)
        assert solve_chromatic(H, limit=3)[0] == ChromaticValue("EXCEEDS(3)")
        assert solve_chromatic(H, limit=6)[0].to_json() == 6

    def test_certificate_is_proper_and_lex_least(self):
        H = kneser(complete_uniform(5, 2), 2)
        value, coloring = solve_chromatic(H)
        assert is_proper(H, coloring)
        assert value.to_json() == coloring.color_count
        assert coloring.colors[0] == 1

    def test_certificate_matches_brute_force_lex_least(self):
        rng = random.Random(41)
        for _ in range(24):
            H = random_hypergraph(rng, max_n=6, max_edges=12, min_edge_size=2)
            value, coloring = solve_chromatic(H)
            assert value.to_json() == chromatic_brute(H)
            assert coloring.colors == lex_least_coloring_brute(H, finite_chi(value))

    @pytest.mark.parametrize("n,k,chi", [(9, 2, 7), (8, 3, 4), (9, 3, 5)])
    def test_kneser_graphs_beyond_static_order(self, n, k, chi):
        # refuting the levels below chi in static vertex order takes minutes
        kg = kneser(complete_uniform(n, k), 2)
        value, coloring = solve_chromatic(kg)
        assert value.to_json() == formula_kneser(n, k, 2) == chi
        assert is_proper(kg, coloring)

    def test_brute_force_agreement(self):
        rng = random.Random(40)
        for trial in range(16):
            max_n = 8 if trial < 4 else 6
            H = random_hypergraph(rng, max_n=max_n, max_edges=6)
            if H.has_singleton_edge():
                assert solve_chromatic(H)[0] == ChromaticValue("INFINITE")
            else:
                assert solve_chromatic(H)[0].to_json() == chromatic_brute(H)

    def test_three_uniform(self):
        # a 2-coloring of [5] always has a class of size >= 3, i.e. an edge
        H = complete_uniform(5, 3)
        assert solve_chromatic(H)[0].to_json() == chromatic_brute(H) == 3


class TestFormulas:
    def test_kneser_formula_values(self):
        assert formula_kneser(5, 2, 2) == 3
        assert formula_kneser(7, 2, 3) == 2
        for r in (2, 3, 4):
            assert formula_kneser(r * 3, 3, r) == 2

    def test_kneser_formula_range(self):
        with pytest.raises(ValueError):
            formula_kneser(5, 2, 3)

    def test_formula_matches_solver_small(self):
        for n, k, r in [(4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 2, 3), (6, 3, 2), (7, 2, 3)]:
            kg = kneser(complete_uniform(n, k), r)
            assert solve_chromatic(kg)[0].to_json() == formula_kneser(n, k, r)

    def test_formula_full_sweep(self):
        # every (n, k, r) with n >= rk, C(n,k) <= 25, r in {2, 3}; the k=1
        # r=3 family is the complete 3-uniform hypergraph whose refutations
        # are pure pigeonhole, so it is swept up to n=14 (seconds) only
        import math

        for r in (2, 3):
            for k in range(1, 6):
                for n in range(r * k, 26):
                    if math.comb(n, k) > 25:
                        continue
                    if k == 1 and r == 3 and n > 14:
                        continue
                    kg = kneser(complete_uniform(n, k), r)
                    assert (
                        solve_chromatic(kg)[0].to_json() == formula_kneser(n, k, r)
                    ), (n, k, r)

    def test_hnka_formula(self):
        assert formula_hnka(7, 2, 3, 2) == 4
        assert formula_hnka(9, 2, 7, 3) == 1

    def test_hnka_formula_needs_k_at_least_one(self):
        # like hnka and formula_kneser; these once returned 5 and 3
        for args in ((5, 0, 0, 2), (6, -1, 0, 3)):
            with pytest.raises(ValueError, match="need k >= 1"):
                formula_hnka(*args)

    def test_hnka_open_range_rejected(self):
        with pytest.raises(OutOfProvenRangeError):
            formula_hnka(9, 2, 4, 3)  # 2k=4 <= a=4 <= rk-2=4

    def test_hnka_formula_matches_solver_grid(self):
        # every (n, k, a) outside the open middle range with at most 40 edges
        checked = 0
        for r in (2, 3):
            for k in (2, 3):
                for n in range(r * k, 9):
                    for a in range(n):
                        if 2 * k <= a <= r * k - 2:
                            continue
                        H = hnka(n, k, a)
                        if H.edge_count > 40:
                            continue
                        chi = solve_chromatic(kneser(H, r))[0].to_json()
                        assert formula_hnka(n, k, a, r) == chi, (n, k, a, r)
                        checked += 1
        assert checked == 63

    # chi(KG^r(H(n,k,a))) on the open range 2k <= a <= rk-2, keyed by
    # (n, k, a, r); each value was computed with the earlier `kneser`, which
    # built through the checking constructor, and each equals U below
    OPEN_RANGE_CHI = {
        (8, 2, 4, 3): 2,
        (9, 2, 4, 3): 3,
        (10, 2, 4, 3): 3,
        (11, 2, 4, 3): 4,
        (10, 3, 6, 3): 2,
        (10, 3, 7, 3): 2,
        (11, 2, 6, 4): 2,
    }

    def test_hnka_open_range_grid(self):
        # L <= chi <= U, with U = ceil((n - max(a, r(k-1))) / (r-1)) the
        # prefix-block coloring's color count, checked on H's edges alone;
        # chi = U here, so merging its last two colors must be improper
        for (n, k, a, r), pinned in self.OPEN_RANGE_CHI.items():
            assert 2 * k <= a <= r * k - 2
            H = hnka(n, k, a)
            U = -(-(n - max(a, r * (k - 1))) // (r - 1))
            f = factor_bounds(H, r)
            L = max(f.cd_bound, f.alt_bound, f.ecd_bound)
            chi = finite_chi(solve_chromatic(kneser(H, r))[0])
            assert L <= chi == pinned <= U, (n, k, a, r)
            coloring = prefix_block_coloring(H, r)
            assert coloring.color_count == U, (n, k, a, r)
            assert is_proper_kneser_coloring(H, r, coloring), (n, k, a, r)
            merged = Coloring(tuple(min(c, U - 1) for c in coloring.colors), U - 1)
            assert not is_proper_kneser_coloring(H, r, merged), (n, k, a, r)

    def test_hnka_edgeless_case(self):
        # a = 7 >= rk-1: KG^3 of {pairs meeting {8,9}} has no 3 disjoint edges
        assert solve_chromatic(kneser(hnka(9, 2, 7), 3))[0].to_json() == 1
        assert formula_hnka(9, 2, 7, 3) == 1


class TestProductChromatic:
    def test_single_factor_matches(self):
        P = kneser(complete_uniform(5, 2), 2)
        assert solve_product_chromatic([P])[0] == solve_chromatic(P)[0]

    def test_matches_minimal_form(self):
        rng = random.Random(4242)
        for _ in range(8):
            H1 = random_hypergraph(rng, max_n=3, max_edges=4)
            H2 = random_hypergraph(rng, max_n=4, max_edges=4)
            implicit = solve_product_chromatic([H1, H2])[0]
            explicit = solve_chromatic(product_minimal([H1, H2]))[0]
            assert implicit == explicit

    def test_projection_upper_bound(self):
        A = complete_uniform(4, 2)
        B = complete_uniform(3, 2)
        chi = finite_chi(solve_product_chromatic([A, B])[0])
        assert chi <= min(finite_chi(solve_chromatic(A)[0]), finite_chi(solve_chromatic(B)[0]))

    def test_all_singleton_factors_infinite(self):
        S = Hypergraph(2, [(1,)])
        assert solve_product_chromatic([S, S])[0] == ChromaticValue("INFINITE")

    def test_certificate_proper(self):
        A = complete_uniform(3, 2)
        value, coloring = solve_product_chromatic([A, A])
        assert value.to_json() == 3
        assert product_is_proper([A, A], coloring)

    def test_certificate_matches_brute_force_lex_least(self):
        rng = random.Random(4244)
        pairs = [(complete_uniform(3, 2), complete_uniform(3, 2))]
        for _ in range(12):
            H1 = random_hypergraph(rng, max_n=3, max_edges=3, min_edge_size=2)
            H2 = random_hypergraph(rng, max_n=3, max_edges=3, min_edge_size=2)
            pairs.append((H1, H2))
        # the first factor with the larger chi
        pairs += [
            (complete_uniform(3, 2), Hypergraph(2, [(1, 2)])),
            (complete_uniform(4, 2), Hypergraph(3, [(1, 2), (2, 3)])),
            (complete_uniform(5, 3), Hypergraph(3, [(1, 2, 3)])),
        ]
        while len(pairs) < 19:
            H1 = random_hypergraph(rng, max_n=4, max_edges=5, min_edge_size=2)
            H2 = random_hypergraph(rng, max_n=3, max_edges=3, min_edge_size=2)
            if finite_chi(solve_chromatic(H1)[0]) > finite_chi(solve_chromatic(H2)[0]):
                pairs.append((H1, H2))
        for H1, H2 in pairs:
            value, coloring = solve_product_chromatic([H1, H2])
            explicit = product_minimal([H1, H2])
            assert coloring.colors == lex_least_coloring_brute(explicit, finite_chi(value))

    def test_deep_product(self):
        # 1000 product vertices: deeper than the interpreter's recursion limit
        P = kneser(complete_uniform(5, 2), 2)
        value, coloring = solve_product_chromatic([P, P, P])
        assert value.to_json() == 3
        assert product_is_proper([P, P, P], coloring)

    def test_limit(self):
        A = complete_uniform(4, 2)
        assert solve_product_chromatic([A, A], limit=1)[0] == ChromaticValue("EXCEEDS(1)")

    @pytest.mark.parametrize("n", [6, 7])
    def test_first_factor_with_larger_chi(self, n):
        # an index-order certificate search runs over a minute on these
        factors = [kneser(complete_uniform(n, 2), 2), kneser(complete_uniform(5, 2), 2)]
        start = time.perf_counter()
        value, coloring = solve_product_chromatic(factors)
        assert time.perf_counter() - start < 1.0
        assert value.to_json() == 3
        assert product_is_proper(factors, coloring)
        assert is_first_appearance(coloring.colors)


def _kg(n: int, k: int, r: int = 2) -> Hypergraph:
    return kneser(complete_uniform(n, k), r)


class TestBoxCompiler:
    """`_ColoringSearch` compiles the same boxes as ``compile_boxes_naive``,
    field by field, and stores one int object per vertex. A product vertex's
    lists, and the cells of its boxes not built yet, are built at its first
    assignment, so every one is built first; a one-factor engine's cells are
    its edge tuples, compared as lists."""

    @staticmethod
    def check(factors):
        engine, naive = _ColoringSearch(factors), compile_boxes_naive(factors)
        for v in range(1, engine.N + 1):
            if engine.boxes_of[v] is None:
                engine._build(v)
        for name in ("N", "full", "completing", "boxes_of", "pos_of"):
            assert getattr(engine, name) == getattr(naive, name), name
        assert [list(cells) for cells in engine.cells] == naive.cells
        stored = [v for cells in engine.cells for v in cells]
        assert len({id(v) for v in stored}) == len(set(stored))

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: [_kg(5, 2)] * 2, id="KG(5,2)^2"),
            pytest.param(lambda: [_kg(6, 2)] * 2, id="KG(6,2)^2"),
            pytest.param(lambda: [_kg(7, 2, 3)] * 2, id="KG^3(7,2)^2"),
            pytest.param(lambda: [_kg(5, 2), _kg(7, 3)], id="KG(5,2)xKG(7,3)"),
            pytest.param(lambda: [_kg(5, 2), _kg(6, 2)], id="KG(5,2)xKG(6,2)"),
            pytest.param(lambda: [kneser(hnka(6, 2, 2), 2)] * 2, id="KG(H(6,2,2))^2"),
            pytest.param(lambda: [cycle(7)] * 3, id="C7^3"),
            pytest.param(lambda: [cycle(5), cycle(7)], id="C5xC7"),
            pytest.param(lambda: [star(5), cycle(5), hnka(6, 2, 2)], id="star5xC5xH(6,2,2)"),
        ],
    )
    def test_products(self, make):
        self.check(make())

    def test_random_products(self):
        # one to three factors with edges of one to three vertices, so boxes
        # of several shapes share one product
        rng = random.Random(4246)
        for _ in range(60):
            factors = []
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(2, 4)
                sizes = [rng.randint(1, min(n, 3)) for _ in range(rng.randint(1, 3))]
                factors.append(Hypergraph(n, {frozenset(rng.sample(range(1, n + 1), m)) for m in sizes}))
            self.check(factors)

    @pytest.mark.parametrize("where", range(3))
    def test_edgeless_factor(self, where):
        factors = [complete_uniform(3, 2), cycle(4)]
        factors.insert(where, Hypergraph(3))
        self.check(factors)

    @pytest.mark.parametrize(
        "make, built",
        [
            pytest.param(lambda: [_kg(5, 2)] * 2, 8, id="KG(5,2)^2"),
            pytest.param(lambda: [kneser(hnka(6, 2, 2), 2)] * 2, 72, id="KG(H(6,2,2))^2"),
            pytest.param(lambda: [_kg(5, 2), _kg(6, 2)], 14, id="KG(5,2)xKG(6,2)"),
            pytest.param(lambda: [_kg(5, 2), _kg(7, 3)], 18, id="KG(5,2)xKG(7,3)"),
            pytest.param(lambda: [_kg(6, 2)] * 2, 77, id="KG(6,2)^2"),
            pytest.param(lambda: [cycle(5), cycle(7)], 22, id="C5xC7"),
            pytest.param(lambda: [cycle(7)] * 3, 246, id="C7^3"),
            pytest.param(lambda: [_kg(7, 2, 3)] * 2, 0, id="KG^3(7,2)^2"),
        ],
    )
    def test_levels_below_chi_build_only_the_vertices_they_assign(self, make, built):
        # each count is how many vertices' boxes the same levels read on an
        # engine that compiles every vertex up front, so an equal count pins
        # the pick order, and a vertex the search never assigns is never built
        factors = make()
        chi = finite_chi(solve_product_chromatic(factors)[0])
        engine = _ColoringSearch(factors)
        for k in range(2, chi):
            assert engine.lex_least(k) is None
        assert sum(boxes is not None for boxes in engine.boxes_of[1:]) == built

    @pytest.mark.parametrize(
        "make, built",
        [
            pytest.param(lambda: [_kg(5, 2)] * 2, 65, id="KG(5,2)^2"),
            pytest.param(lambda: [kneser(hnka(6, 2, 2), 2)] * 2, 939, id="KG(H(6,2,2))^2"),
            pytest.param(lambda: [_kg(5, 2), _kg(6, 2)], 216, id="KG(5,2)xKG(6,2)"),
            pytest.param(lambda: [_kg(5, 2), _kg(7, 3)], 198, id="KG(5,2)xKG(7,3)"),
            pytest.param(lambda: [_kg(6, 2)] * 2, 1128, id="KG(6,2)^2"),
            pytest.param(lambda: [cycle(5), cycle(7)], 30, id="C5xC7"),
            pytest.param(lambda: [cycle(7)] * 3, 298, id="C7^3"),
            pytest.param(lambda: [_kg(7, 2, 3)] * 2, 0, id="KG^3(7,2)^2"),
        ],
    )
    def test_levels_below_chi_build_only_the_boxes_they_read(self, make, built):
        # each count is how many boxes' cells the same levels read on an engine
        # that compiles every box up front: a box is built exactly when one of
        # its vertices is assigned, and each built box equals the oracle's
        factors = make()
        chi = finite_chi(solve_product_chromatic(factors)[0])
        engine, naive = _ColoringSearch(factors), compile_boxes_naive(factors)
        for k in range(2, chi):
            assert engine.lex_least(k) is None
        built_ids = [bid for bid, cells in enumerate(engine.cells) if cells is not None]
        assert len(built_ids) == built
        assert all(engine.cells[bid] == naive.cells[bid] for bid in built_ids)
        assert {bid for boxes in engine.boxes_of[1:] if boxes is not None for bid in boxes} == set(built_ids)


class TestLexLeastCertificate:
    """The certificate against the static index-order search of
    ``lex_least_coloring_static`` at chi."""

    @staticmethod
    def check(factors):
        value, coloring = solve_product_chromatic(factors)
        assert list(coloring.colors) == lex_least_coloring_static(factors, finite_chi(value))

    @pytest.mark.parametrize("seed", range(12))
    def test_relabelings_of_hnka(self, seed):
        kg = kneser(relabeled(hnka(8, 2, 3), random.Random(seed)), 2)
        start = time.perf_counter()
        value, coloring = solve_chromatic(kg)
        assert time.perf_counter() - start < 1.0
        assert value.to_json() == 5
        assert list(coloring.colors) == lex_least_coloring_static([kg], 5)

    @pytest.mark.parametrize(
        "ground, r",
        [(complete_uniform(7, 2), 2), (complete_uniform(8, 2), 2), (complete_uniform(9, 2), 3), (hnka(8, 2, 3), 3)],
    )
    def test_kneser_hypergraphs(self, ground, r):
        self.check([kneser(ground, r)])

    def test_cube_of_petersen(self):
        P = kneser(complete_uniform(5, 2), 2)
        self.check([P, P, P])

    def test_large_product_below_chi(self):
        # 2,197 vertices, most of them assigned while level 2 is refuted: the
        # pick's bitmask operations at large N
        factors = [cycle(13)] * 3
        start = time.perf_counter()
        value, coloring = solve_product_chromatic(factors)
        assert time.perf_counter() - start < 1.0
        # C13 embeds on the diagonal of its cube, and a projection colors it
        assert finite_chi(value) == chromatic_brute(cycle(13)) == 3
        assert product_is_proper(factors, coloring)
        assert list(coloring.colors) == lex_least_coloring_static(factors, 3)

    def test_random_products(self):
        # two dense graphs on at most 5 vertices: the oracle's index order
        # takes up to a minute on products of two 7-vertex graphs
        rng = random.Random(4245)
        for _ in range(40):
            factors = []
            for n in (rng.randint(3, 5), rng.randint(3, 5)):
                edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.6]
                factors.append(Hypergraph(n, edges))
            self.check(factors)


class TestFirstFit:
    """The first fit F is the lex-least proper coloring with max(F) colors,
    and fixes which levels the solver searches."""

    @staticmethod
    def check(factors):
        engine = _ColoringSearch(factors)
        first = engine.first_fit()
        g = max(first, default=1)
        assert product_is_proper(factors, Coloring(tuple(first), g))
        assert is_first_appearance(first)
        assert engine.lex_least(g) == first
        return g

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: [_kg(5, 2)] * 2, id="KG(5,2)^2"),
            pytest.param(lambda: [_kg(7, 2, 3)] * 2, id="KG^3(7,2)^2"),
            pytest.param(lambda: [_kg(5, 2), _kg(6, 2)], id="KG(5,2)xKG(6,2)"),
            pytest.param(lambda: [_kg(6, 2), _kg(5, 2)], id="KG(6,2)xKG(5,2)"),
            pytest.param(lambda: [cycle(5), cycle(7)], id="C5xC7"),
            pytest.param(lambda: [star(5), cycle(5), hnka(6, 2, 2)], id="star5xC5xH(6,2,2)"),
            pytest.param(lambda: [_kg(8, 2)], id="KG(8,2)"),
            pytest.param(lambda: [_kg(9, 2, 3)], id="KG^3(9,2)"),
            pytest.param(lambda: [complete_uniform(5, 3)], id="K(5,3)"),
        ],
    )
    def test_products(self, make):
        self.check(make())

    def test_random_products(self):
        rng = random.Random(4247)
        checked = 0
        while checked < 40:
            factors = []
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(2, 4)
                sizes = [rng.randint(1, min(n, 3)) for _ in range(rng.randint(1, 3))]
                factors.append(Hypergraph(n, {frozenset(rng.sample(range(1, n + 1), m)) for m in sizes}))
            if all(H.has_singleton_edge() for H in factors):
                continue
            self.check(factors)
            checked += 1

    def test_random_hypergraphs(self):
        rng = random.Random(4248)
        for _ in range(30):
            self.check([random_hypergraph(rng, max_n=7, max_edges=10, min_edge_size=2)])

    def test_first_fit_above_chi(self):
        # first fit uses 6 colors here, chi = 5: the walk at chi makes the certificate
        kg = kneser(hnka(8, 2, 3), 2)
        assert self.check([kg]) == 6
        value, coloring = solve_chromatic(kg)
        assert value.to_json() == 5
        assert list(coloring.colors) == lex_least_coloring_static([kg], 5)

    @staticmethod
    def searched(monkeypatch, factors, limit=None):
        levels = []
        lex_least = _ColoringSearch.lex_least

        def spy(self, k):
            levels.append(k)
            return lex_least(self, k)

        monkeypatch.setattr(_ColoringSearch, "lex_least", spy)
        return solve_product_chromatic(factors, limit), levels

    @pytest.mark.parametrize(
        "make, chi, below",
        [
            pytest.param(lambda: [_kg(7, 2, 3)] * 2, 2, [], id="KG^3(7,2)^2"),
            pytest.param(lambda: [_kg(5, 2)] * 2, 3, [2], id="KG(5,2)^2"),
        ],
    )
    def test_first_fit_at_chi_not_searched(self, monkeypatch, make, chi, below):
        # only the levels 2..chi-1 are searched, each to its refutation
        factors = make()
        (value, coloring), levels = self.searched(monkeypatch, factors)
        assert value.to_json() == chi and levels == below
        assert coloring.colors == tuple(_ColoringSearch(factors).first_fit())

    def test_levels_below_first_fit(self, monkeypatch):
        (value, _), levels = self.searched(monkeypatch, [kneser(hnka(8, 2, 3), 2)])
        assert value.to_json() == 5 and levels == [2, 3, 4, 5]

    def test_edgeless_factor(self, monkeypatch):
        (value, coloring), levels = self.searched(monkeypatch, [Hypergraph(3), complete_uniform(5, 2)])
        assert value.to_json() == 1 and levels == []
        assert coloring == Coloring((1,) * 15, 1)

    def test_limit_below_first_fit(self, monkeypatch):
        (value, coloring), levels = self.searched(monkeypatch, [_kg(5, 2)] * 2, limit=2)
        assert value == ChromaticValue("EXCEEDS(2)") and coloring is None
        assert levels == [2]


class TestLiftedFirstFit:
    """Without a singleton edge in the first factor, the solver's first fit
    is the first factor's, lifted over the live tuples of the rest; it must
    equal the product engine's own `first_fit`, and the product's engine is
    built only for a searched level."""

    @staticmethod
    def solver_first_fit(monkeypatch, factors):
        # with every searched level refuted, the solver returns g with F
        monkeypatch.setattr(_ColoringSearch, "lex_least", lambda self, k: None)
        value, coloring = solve_product_chromatic(factors)
        assert value.to_json() == max(coloring.colors, default=1)
        return list(coloring.colors)

    @staticmethod
    def random_factor(rng):
        # up to four edges of one to four vertices, none when n = 0
        n = rng.randint(0, 6)
        sizes = [rng.randint(1, min(n, 4)) for _ in range(rng.randint(0, 4) if n else 0)]
        return Hypergraph(n, {frozenset(rng.sample(range(1, n + 1), m)) for m in sizes})

    def test_random_products(self, monkeypatch):
        rng = random.Random(4249)
        kinds = {
            "mixed sizes": lambda H, j: len({len(e) for e in H.edges}) > 1,
            "later singleton": lambda H, j: j > 0 and H.has_singleton_edge(),
            "later isolated vertex": lambda H, j: j > 0 and bool(set(range(1, H.n + 1)) - set().union(*H.edges)),
            "edgeless": lambda H, j: H.edge_count == 0,
            "n = 0": lambda H, j: H.n == 0,
        }
        seen = dict.fromkeys(kinds, 0)
        checked = 0
        while checked < 400:
            factors = [self.random_factor(rng) for _ in range(rng.randint(1, 3))]
            if all(H.has_singleton_edge() for H in factors):
                continue
            first = _ColoringSearch(factors).first_fit()
            assert self.solver_first_fit(monkeypatch, factors) == first, factors
            checked += 1
            for kind, has in kinds.items():
                seen[kind] += any(has(H, j) for j, H in enumerate(factors))
        assert all(count >= 20 for count in seen.values()), seen

    @pytest.mark.parametrize(
        "factors, first",
        [
            # a lift ignoring the singleton edge {1} gives [1, 1, 1, 1, 1, 1, 2, 2, 2]
            pytest.param(
                [Hypergraph(3, [[1], [2, 3]]), Hypergraph(3, [[1, 2], [2, 3]])],
                [1, 2, 1, 1, 1, 1, 2, 2, 2],
                id="singleton-edge-in-first-factor",
            ),
            # a lift without the live rule colors the cell (2, 3) with 2
            pytest.param(
                [Hypergraph(3, [[1, 2], [2, 3]]), Hypergraph(3, [[1, 2]])],
                [1, 1, 1, 2, 2, 1, 1, 1, 1],
                id="isolated-vertex-in-rest",
            ),
        ],
    )
    def test_mutant_controls(self, monkeypatch, factors, first):
        assert _ColoringSearch(factors).first_fit() == first
        assert self.solver_first_fit(monkeypatch, factors) == first

    @staticmethod
    def engines_built(monkeypatch, factors):
        """The number of factors of each engine the solver builds."""
        built = []
        init = _ColoringSearch.__init__

        def spy(self, fs):
            built.append(len(fs))
            init(self, fs)

        monkeypatch.setattr(_ColoringSearch, "__init__", spy)
        solve_product_chromatic(factors)
        return built

    @pytest.mark.parametrize(
        "make, built",
        [
            pytest.param(lambda: [_kg(7, 2, 3)] * 2, [1], id="KG^3(7,2)^2-no-level-searched"),
            pytest.param(lambda: [_kg(5, 2)] * 2, [1, 2], id="KG(5,2)^2-level-2-searched"),
            pytest.param(lambda: [kneser(hnka(8, 2, 3), 2)], [1], id="one-factor-four-levels-searched"),
            pytest.param(lambda: [complete_uniform(3, 1), complete_uniform(4, 2)], [2], id="singleton-fallback"),
        ],
    )
    def test_engines_built(self, monkeypatch, make, built):
        assert self.engines_built(monkeypatch, make()) == built


class _Learning(_ColoringSearch):
    """The engine, keeping every store of nogoods that a `decide` call leaves
    on it as ``learnt``, in ``stores``."""

    @property
    def learnt(self):
        return self.stores[-1]

    @learnt.setter
    def learnt(self, store):
        self.stores.append(store)


class _Reads(list):
    """A list that calls ``hook(i)`` before each read ``self[i]``."""

    def __init__(self, items, hook):
        super().__init__(items)
        self.hook = hook

    def __getitem__(self, i):
        self.hook(i)
        return super().__getitem__(i)


class _Picking(_Learning):
    """The engine, checking each vertex a `decide` call picks when that pick
    is assigned (``assign`` reads its positions), against the state read from
    the call's frames and the boxes of ``compile_boxes_naive``: the least open
    vertex with the most colors forbidden, except that when no open vertex has
    one forbidden and a vertex is stacked, the least open vertex sharing a box
    with the last stacked one, if any. An assignment after a dead end is a
    backjump's next color, not a pick. ``near_picks`` counts the picks the
    exception moved off the least open vertex."""

    def __init__(self, factors):
        super().__init__(factors)
        naive = compile_boxes_naive(factors)
        self.naive_full = naive.full
        self.box_positions = [{} for _ in naive.full]  # per box, its cells' positions
        for u in range(1, naive.N + 1):
            for bid, pos in zip(naive.boxes_of[u], naive.pos_of[u]):
                self.box_positions[bid][u] = pos
        self.near_picks = 0
        self.pos_of = _Reads(self.pos_of, self._assigning)

    @_Learning.learnt.setter
    def learnt(self, store):
        self.stores.append(store)
        self.dead_ends = 0  # a `decide` call begins

    def _assigning(self, v):
        frame = sys._getframe(2)  # this <- _Reads.__getitem__ <- assign
        if frame.f_code.co_name != "assign" or frame.f_back.f_code.co_name != "decide":
            return  # first_fit, or the refinement fixing a prefix vertex
        call = frame.f_back.f_locals
        if call["dead_ends"] != self.dead_ends:
            self.dead_ends = call["dead_ends"]
            return
        k, colors = call["k"], frame.f_locals["colors"][:]
        colors[v] = 0  # assign has just colored it
        forbidden = dict.fromkeys((u for u in range(1, self.N + 1) if not colors[u]), 0)
        for full, positions in zip(self.naive_full, self.box_positions):
            covered = [0] * (k + 1)
            for u, pos in positions.items():
                covered[colors[u]] |= pos
            for u, pos in positions.items():
                if u in forbidden:
                    forbidden[u] |= sum(1 << c for c in range(1, k + 1) if covered[c] | pos == full)
        tiers = {u: bin(mask).count("1") for u, mask in forbidden.items()}
        top = max(tiers.values())
        expected = least = min(u for u, t in tiers.items() if t == top)
        if not top and (stack := call["stack"]):
            last = stack[-1][0]
            near = [u for u in tiers if any(last in positions and u in positions for positions in self.box_positions)]
            expected = min(near, default=least)
        assert v == expected, (v, expected)
        self.near_picks += expected != least


def learnt_nogoods(engine, k):
    """Each nogood the engine's ``stores`` hold after level k, with the try
    it is stored under, as a partial coloring {vertex: color}; bit
    v * (k + 1) + c of a key or a nogood is v colored c."""
    for store in engine.stores:
        for key, nogoods in store.items():
            for nogood in nogoods:
                bits = [key] + [b for b in range(nogood.bit_length()) if nogood >> b & 1]
                partial = {b // (k + 1): b % (k + 1) for b in bits}
                assert len(partial) == len(bits), "a vertex with two colors"
                yield partial


class TestBackjump:
    """`lex_least` backjumps over the decisions a dead end does not rest on,
    and refutes a try at once by a nogood a backjump left. The subtrees it
    skips hold no proper coloring, so at every level k up to chi it must
    return what the index-order backtracking of ``lex_least_coloring_static``
    returns: None exactly below chi, and the lex-least coloring at chi. No
    proper k-coloring may extend a stored nogood (``extends_naive``), and every
    pick must follow the rule `_Picking` checks."""

    @staticmethod
    def check(factors):
        """chi, how many tries the levels up to chi refuted by a nogood, and
        how many picks went to a neighbour of the last stacked vertex."""
        engine = _Picking(factors)
        k = 1
        while True:
            engine.stores = []
            expected = lex_least_coloring_static(factors, k)
            assert engine.lex_least(k) == expected, (factors, k)
            for partial in learnt_nogoods(engine, k):
                assert not extends_naive(factors, k, partial), (factors, k, partial)
            if expected is not None:
                return k, sum(counts["nogood_hits"] for counts in engine.counts.values()), engine.near_picks
            k += 1

    @staticmethod
    def random_factor(rng):
        # one to six vertices, up to twelve edges of one to three of them, mostly pairs
        n = rng.randint(1, 6)
        sizes = [rng.choice((1, 2, 2, 2, 2, 2, 3)) for _ in range(rng.randint(0, 12))]
        return Hypergraph(n, {frozenset(rng.sample(range(1, n + 1), min(m, n))) for m in sizes})

    def test_random_products(self):
        rng = random.Random(4250)
        chis = dict.fromkeys(range(1, 5), 0)
        checked = hits = near = 0
        while checked < 300:
            factors = [self.random_factor(rng) for _ in range(rng.randint(1, 3))]
            # a product of singleton edges is a singleton edge: the solver
            # answers INFINITE before it builds an engine; the oracle's index
            # order takes seconds to refute a level of a 48-vertex product
            if all(H.has_singleton_edge() for H in factors) or prod(H.n for H in factors) > 36:
                continue
            chi, refuted, moved = self.check(factors)
            chis[min(chi, 4)] += 1
            hits += refuted
            near += moved
            checked += 1
        # levels refuted before a coloring is found, not only chi = 1 or 2
        assert chis[3] + chis[4] >= 30, chis
        # some tries were refuted by a nogood, so the soundness check saw one in use
        assert hits > 0
        # and some picks stayed next to the last assignment
        assert near > 0, near

    @pytest.mark.parametrize(
        "make, chi, near",
        [
            pytest.param(lambda: [_kg(6, 2, 3)], 2, True, id="KG^3(6,2)"),
            pytest.param(lambda: [kneser(hnka(6, 2, 2), 3)], 2, True, id="KG^3(H(6,2,2))"),
            pytest.param(lambda: [_kg(6, 2, 3), kneser(hnka(6, 2, 2), 3)], 2, True, id="KG^3(6,2)xKG^3(H(6,2,2))"),
            pytest.param(lambda: [_kg(6, 2)], 4, False, id="KG(6,2)"),
            pytest.param(lambda: [kneser(hnka(6, 2, 2), 2)], 4, False, id="KG(H(6,2,2))"),
            pytest.param(lambda: [_kg(8, 2, 3)], 3, True, id="KG^3(8,2)"),
        ],
    )
    def test_kneser_hypergraphs(self, make, chi, near):
        # with 3-vertex edges one assignment forbids nothing, so a pick at
        # tier 0 follows a stacked vertex; in a graph it forbids at once
        found, _, moved = self.check(make())
        assert (found, moved > 0) == (chi, near)

    @pytest.mark.parametrize(
        "make, k, least_index, store_free, counts",
        [
            pytest.param(lambda: [_kg(9, 2, 3)], 2, (187, 123, 38), (40, 21), (40, 21, 0), id="KG^3(9,2)"),
            pytest.param(lambda: [_kg(8, 2, 3)], 2, (161, 115, 24), (72, 45), (72, 45, 0), id="KG^3(8,2)"),
            pytest.param(lambda: [kneser(hnka(11, 2, 4), 3)], 3, (3228, 2517, 1066), (3002, 2363),
                         (1723, 1256, 287), id="KG^3(H(11,2,4))"),
            pytest.param(lambda: [_kg(7, 2), _kg(6, 2)], 4, (12168, 4913, 4421), (67024, 42799),
                         (12168, 4913, 4421), id="KG(7,2)xKG(6,2)"),
            pytest.param(lambda: [_kg(6, 2)] * 2, 3, (87, 23, 0), (87, 23), (87, 23, 0), id="KG(6,2)^2"),
        ],
    )
    def test_counts(self, make, k, least_index, store_free, counts):
        # the assignments, dead ends and tries refuted by a nogood of level
        # k's decisions; least_index: the same counts when a pick at tier 0
        # took the least open vertex even with a vertex stacked; store_free:
        # the assignments and dead ends when a backjump's nogood was dropped,
        # with today's pick, so a level whose tries no nogood refutes makes
        # the same search
        engine = _ColoringSearch(make())
        engine.lex_least(k)
        assigned, dead_ends, hits = counts
        assert engine.counts[k] == {"assignments": assigned, "dead_ends": dead_ends, "nogood_hits": hits}
        assert assigned <= least_index[0] and dead_ends <= least_index[1]
        assert assigned <= store_free[0] and dead_ends <= store_free[1]
        assert hits or (assigned, dead_ends) == store_free


class TestBoundReport:
    def test_single_factor_equality_chain(self):
        rep = bound_report([hnka(7, 2, 3)], 2)
        f = rep.factors[0]
        assert f.ecd == 4 and f.ecd_bound == 4
        assert rep.product_ecd_bound == 4
        assert rep.exact_chi == 4
        assert rep.zhu_status == "VERIFIED"
        assert rep.check() == []

    def test_single_factor_solved_once(self, monkeypatch):
        import kneserlab.chromatic

        calls = []
        solve = kneserlab.chromatic.solve_product_chromatic

        def counted(factors, limit=None):
            calls.append(len(factors))
            return solve(factors, limit)

        monkeypatch.setattr(kneserlab.chromatic, "solve_product_chromatic", counted)
        rep = bound_report([hnka(7, 2, 3)], 2)
        assert rep.exact_chi == rep.factors[0].kg_chi == 4
        assert calls == [1]

    def test_two_factor_tiny(self):
        H = complete_uniform(3, 2)
        rep = bound_report([H, H], 2)
        # KG(complete_uniform(3,2)) has intersecting edges only: chi = 1
        assert rep.exact_chi == 1
        assert rep.zhu_status == "VERIFIED"
        assert rep.check() == []

    def test_edgeless_factor(self):
        rep = bound_report([Hypergraph(3, []), complete_uniform(5, 2)], 2)
        assert rep.product_ecd_bound == 0
        assert rep.exact_chi == 1
        assert rep.zhu_status == "VERIFIED"

    def test_bounds_never_exceed_chi(self):
        rng = random.Random(11)
        for _ in range(10):
            H = random_hypergraph(rng, max_n=5, max_edges=6)
            rep = bound_report([H], 2, limit=6)
            assert rep.check() == []
