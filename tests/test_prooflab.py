"""Equivariant labeling machinery, exhaustive consistency checks, and the
colorful witness search."""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

from kneserlab import (
    Coloring,
    Hypergraph,
    Permutation,
    ProductSpace,
    SignMapTables,
    Violation,
    alt_min,
    check_lemma1,
    check_lemma2,
    complete_uniform,
    cycle,
    dold_consequence,
    ecd,
    edgeless,
    extract_witness,
    factor_bounds,
    find_witness,
    hnka,
    index_cap,
    kneser,
    sigma2_scan,
    solve_chromatic,
    solve_product_chromatic,
    star,
    witness_target,
)
from kneserlab.invariants import act_sign, balanced_size
import kneserlab.prooflab
from kneserlab.prooflab import (
    _defect_minima,
    _deficient_blocks,
    _labels,
    _saturated_blocks,
    misses_guarantee,
)
import conftest
from conftest import (
    chain_violations_naive,
    class_mask,
    contains_edge_within,
    is_colorful_balanced_complete,
    labels_naive,
    min_element_coloring_petersen,
    nu_naive,
    product_full,
    projection_coloring,
    random_hypergraph,
    random_pool,
    saturated_blocks_naive,
    saturated_rows_naive,
    sigma2_scan_lex_naive,
    sigma2_scan_naive,
    tau_of,
)

CU3 = complete_uniform(3, 2)
CU4 = complete_uniform(4, 2)
CU5 = complete_uniform(5, 2)
# scored in another vertex order than its alternation-optimal one, the
# alternation labeling of this factor overshoots its index cap
ASYMMETRIC = Hypergraph(5, [(1,), (4,), (1, 2), (1, 5), (3, 5), (1, 2, 4)])


@pytest.fixture(autouse=True)
def chain_oracle(monkeypatch):
    """Every label check in this module, the sweeps' own and those of the
    alternation labels, clean or corrupted, must report the chain
    violations that the full face enumeration of `chain_violations_naive`
    finds, whichever path the library takes."""
    real = kneserlab.prooflab._label_violations

    def checked(labels, p, cap, saturated):
        got = real(labels, p, cap, saturated)
        assert [v for v in got if v.kind == "chain"] == chain_violations_naive(labels)
        return got

    monkeypatch.setattr(kneserlab.prooflab, "_label_violations", checked)


def act_vector(g: int, X: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Multiply every nonzero entry of ``X`` (signs mod ``p``) by the group element ``g``."""
    return tuple(act_sign(g, x, p) if x else 0 for x in X)


def row_sizes(cells, p: int) -> tuple[int, ...]:
    """The row sizes of a color simplex given as its (sign, color) cells."""
    return tuple(sum(1 for s, _ in cells if s == sign) for sign in range(1, p + 1))


def all_vectors(p: int, n: int):
    for entries in itertools.product(range(p + 1), repeat=n):
        if any(entries):
            yield entries


def block_row(H: Hypergraph, p: int, entries: tuple[int, ...]) -> tuple:
    """The row of ``entries`` in the deficient-side block table of ``H``:
    (entries, saturated, index term, component, edge signs)."""
    return next(row for row in _deficient_blocks(H, p) if row[0] == entries)


def labels(factors, p: int, coloring=None, tables=None) -> dict:
    """The label dict of one side's sweep, at the sweep's own index cap."""
    tables = tables or SignMapTables(p)
    return _labels(factors, p, coloring, tables, index_cap(factors, p))


def alternation_labels(factors, p: int, tables=None) -> tuple[dict, int]:
    """The alternation labeling of `labels_naive` (the n - alt_p labeling of
    Alishahi-Hajiabolhassan) with its index cap: total order minus the
    smallest n - alt_p plus p - 1."""
    cap = sum(H.n for H in factors) - _defect_minima(factors, p, None)[1] + p - 1
    return labels_naive(factors, p, None, tables or SignMapTables(p), "alternation", cap), cap


def alternation_violations(factors, p: int) -> list[Violation]:
    """The library's range, equivariance and chain checks on the
    alternation labeling, which only the tests define."""
    got, cap = alternation_labels(factors, p)
    return kneserlab.prooflab._label_violations(got, p, cap, False)


class TestSplit:
    """Each block's edge-spanning signs, as its block table lists them."""

    def test_one_edge_class(self):
        row = block_row(CU3, 2, (1, 1, 0))
        assert row[4] == (1,)
        assert not row[1]

    def test_singleton_classes_edge_free(self):
        row = block_row(CU3, 2, (1, 2, 0))
        assert row[4] == ()
        assert not row[1]

    def test_saturated(self):
        row = block_row(CU5, 2, (1, 1, 1, 2, 2))
        assert row[4] == (1, 2)
        assert row[1]

    def test_length_mismatch_rejected(self):
        # the factor orders must add up to the vector length
        coloring = Coloring((1,) * 3, 1)  # KG^2 of CU3 has no edge
        with pytest.raises(ValueError, match="add up"):
            extract_witness([CU3], 2, (1, 0), coloring, 1)
        with pytest.raises(ValueError, match="add up"):
            extract_witness([CU3], 2, (1, 0, 2, 1), coloring, 1)


class TestNu:
    """The index terms of the deficient-side block tables."""

    def test_saturated_block_counts_support(self):
        assert block_row(CU4, 2, (1, 1, 2, 2))[2] == 4

    def test_deficient_block_best_subvector(self):
        # best edge-free sub-vector of (w, w2, 0) is itself: level 2
        oracle = 0
        for keep in itertools.product((0, 1), repeat=3):
            entries = tuple(x if k else 0 for x, k in zip((1, 2, 0), keep))
            if any(contains_edge_within(CU3, class_mask(entries, s)) for s in (1, 2)):
                continue
            oracle = max(oracle, balanced_size([entries.count(s) for s in (1, 2)]))
        assert oracle == 2
        assert block_row(CU3, 2, (1, 2, 0))[2] == 2

    def test_single_entry_edgeless_block(self):
        H = complete_uniform(2, 2)
        assert block_row(H, 2, (1, 0))[2] == 1

    def test_range_soundness_exhaustive(self):
        for p, factors in [(2, [CU5]), (3, [CU5]), (2, [CU3, CU3])]:
            n = sum(H.n for H in factors)
            cap = index_cap(factors, p)
            got = labels(factors, p)
            saturated = prod(len(saturated_blocks_naive(H, p)) for H in factors)
            assert len(got) == (p + 1) ** n - 1 - saturated
            for _, index in got.values():
                assert 1 <= index <= cap


class TestLambda1:
    """Deficient-side labels, read from the lemma-1 sweep's label dict."""

    def test_partial_sign_set_case(self):
        sign, index = labels([CU3], 2)[(1, 1, 0)]
        assert index == 2  # |{w}| + best edge-free sub-vector level 1

    def test_block_signature_case(self):
        sign, index = labels([CU3], 2)[(1, 2, 0)]
        assert index == 2
        assert sign in (1, 2)

    def test_equivariance_spot(self):
        got = labels([CU5], 3)
        X = (1, 2, 0, 1, 0)
        base = got[X]
        for g in (1, 2):
            assert got[act_vector(g, X, 3)] == (act_sign(g, base[0], 3), base[1])

    def test_rejected_on_saturated(self):
        # saturated vectors get no deficient-side label
        assert (1, 1, 1, 2, 2) not in labels([CU5], 2)


class TestTau:
    def test_petersen_example(self):
        coloring = min_element_coloring_petersen()
        tau = tau_of([CU5], 2, (1, 1, 1, 2, 2), coloring)
        assert tau == frozenset({(1, 1), (1, 2), (2, 3)})
        assert min(row_sizes(tau, 2)) == 1
        assert balanced_size(row_sizes(tau, 2)) == 3

    def test_every_row_nonempty(self):
        coloring = min_element_coloring_petersen()
        blocks = _saturated_blocks(CU5, 2)
        assert len(blocks) == 50
        for entries, _ in blocks:
            sizes = row_sizes(tau_of([CU5], 2, entries, coloring), 2)
            assert min(sizes) > 0
            assert balanced_size(sizes) >= 2

    def test_improper_coloring_rejected(self):
        bad = Coloring((1,) * 10, 1)
        with pytest.raises(ValueError, match="not proper"):
            tau_of([CU5], 2, (1, 1, 1, 2, 2), bad)


class TestLambda2:
    """Saturated-side labels, read from the lemma-2 sweep's label dict."""

    def test_index_formula(self):
        coloring = min_element_coloring_petersen()
        alpha = index_cap([CU5], 2)
        assert alpha == 3  # 5 - ecd + p - 1
        sign, index = labels([CU5], 2, coloring)[(1, 1, 1, 2, 2)]
        assert index == 5  # alpha - p + 1 + balanced size 3

    def test_sign_read_from_the_core(self):
        # rows of sizes (2, 1): the core is the one minimum-size row, {(2, 3)}
        coloring = min_element_coloring_petersen()
        tables = SignMapTables(2)
        assert row_sizes(tau_of([CU5], 2, (1, 1, 1, 2, 2), coloring), 2) == (2, 1)
        sign, _ = labels([CU5], 2, coloring, tables)[(1, 1, 1, 2, 2)]
        assert sign == tables.sign_for_simplex(((2, 3),))

    def test_equivariance_spot(self):
        coloring = min_element_coloring_petersen()
        got = labels([CU5], 2, coloring)
        X = (1, 1, 1, 2, 2)
        base = got[X]
        assert got[act_vector(1, X, 2)] == (act_sign(1, base[0], 2), base[1])


class TestSignTables:
    def test_equivariant_by_construction(self):
        tables = SignMapTables(3)
        key = (("set", (1, 2)),)
        base = tables.sign_for_blocks(key)
        for g in (1, 2):
            acted = (("set", tuple(sorted(act_sign(g, s, 3) for s in (1, 2)))),)
            assert tables.sign_for_blocks(acted) == act_sign(g, base, 3)

    def test_signs_independent_of_query_order(self):
        # a sign depends on its key alone, so a fresh map answers every key
        # the same way whatever was asked before it
        keys = [
            ("blocks", (("set", (1, 2)),)),
            ("blocks", (("vec", (0, 3, 1)), ("set", (2,)))),
            ("signsets", ((1,), (2, 3))),
            ("signsets", ((3,), ())),
            ("simplex", ((1, 2), (2, 4), (3, 1))),
            ("simplex", ((1, 4), (2, 1), (3, 3))),
        ]

        def ask(tables, name, key):
            return getattr(tables, f"sign_for_{name}")(key)

        forward, backward = SignMapTables(3), SignMapTables(3)
        signs = [ask(forward, name, key) for name, key in keys]
        assert signs == [ask(backward, name, key) for name, key in reversed(keys)][::-1]

    @pytest.mark.parametrize("p, factors, coloring", [
        pytest.param(2, [CU4, CU3], None, id="lemma1-p2"),
        pytest.param(2, [CU5], min_element_coloring_petersen(), id="lemma2-p2"),
        pytest.param(3, [CU5], None, id="lemma1-p3"),
    ])
    def test_kept_signs_match_the_orbit_rule(self, p, factors, coloring):
        # every sign a lemma sweep kept is the one its orbit gives: the
        # orbit's least element has sign 1, and g carries it to g * 1
        acts = {
            "blocks": kneserlab.prooflab._act_signature,
            "signsets": kneserlab.prooflab._act_signsets,
            "simplex": kneserlab.prooflab._act_cells,
        }
        tables = SignMapTables(p)
        if coloring is None:
            assert check_lemma1(factors, p, tables) == []
        else:
            assert check_lemma2(factors, p, coloring, tables) == []
        assert tables.signs["simplex" if coloring else "signsets"]
        for name, kept in tables.signs.items():
            act = acts[name]
            for key, sign in kept.items():
                least = min(act(g, key, p) for g in range(1, p + 1))
                g = next(g for g in range(1, p + 1) if act(g, least, p) == key)
                assert sign == act_sign(g, 1, p) == getattr(tables, f"sign_for_{name}")(key), (name, key)

    def test_corrupt_table_stays_constant(self):
        tables = SignMapTables(3, corrupt=("blocks",))
        keys = [(("set", (1, 2)),), (("set", (2, 3)),), (("vec", (0, 3, 1)), ("set", (2,)))]
        assert [tables.sign_for_blocks(key) for key in keys * 2] == [1] * 6
        assert not tables.signs["blocks"]

    def test_composite_modulus_refused(self):
        # {w^2, w^4} is fixed by w^2 when the modulus is 4: no equivariant
        # sign exists for it
        with pytest.raises(ValueError, match="need a prime p, got p=4"):
            SignMapTables(4)

    def test_unknown_corrupt_name_rejected(self):
        with pytest.raises(ValueError):
            SignMapTables(2, corrupt=("nonsense",))


class TestLemmaChecks:
    def test_lemma1_tiny_instances_clean(self):
        assert check_lemma1([CU3], 2) == []
        assert check_lemma1([CU3, CU3], 2) == []

    def test_lemma1_unequal_blocks_clean(self):
        assert check_lemma1([CU3, CU4], 2) == []

    def test_lemma1_alternation_variant_asymmetric(self):
        # regression: alternation scores depend on coordinate order, so the
        # index cap only holds when blocks are scored in their optimal
        # ordering; this asymmetric instance overshot the cap before
        assert alternation_violations([ASYMMETRIC], 2) == []
        assert check_lemma1([ASYMMETRIC], 2) == []

    def test_alternation_scored_in_identity_order_is_caught(self, monkeypatch):
        # the oracle scored in the identity vertex order: twelve vectors land
        # above the cap; its memo is cleared so that no mutant entry outlives
        # the test
        real = conftest.alt_min

        def identity_order(H, r, mode="exact", seed=0):
            return real(H, r, mode, seed)._replace(sigma=Permutation(tuple(range(1, H.n + 1))))

        monkeypatch.setattr(conftest, "alt_min", identity_order)
        conftest.nu_naive.cache_clear()
        try:
            violations = alternation_violations([ASYMMETRIC], 2)
        finally:
            conftest.nu_naive.cache_clear()
        assert [v.kind for v in violations] == ["range"] * 12

    def test_full_machinery_on_random_instances(self):
        import random

        from conftest import random_hypergraph
        from kneserlab import (
            dold_consequence,
            find_witness,
            sigma2_scan,
            solve_product_chromatic,
            witness_target,
        )

        rng = random.Random(4321)
        for _ in range(10):
            if rng.random() < 0.7:
                factors = [random_hypergraph(rng, max_n=5, max_edges=6)]
            else:
                factors = [
                    random_hypergraph(rng, max_n=3, max_edges=3),
                    random_hypergraph(rng, max_n=4, max_edges=4),
                ]
            p = rng.choice([2, 3])
            assert check_lemma1(factors, p) == []
            assert alternation_violations(factors, p) == []
            kgs = [kneser(H, p) for H in factors]
            _, coloring = solve_product_chromatic(kgs)
            if coloring is None:
                continue
            assert check_lemma2(factors, p, coloring) == []
            assert dold_consequence(factors, p, coloring)["ok"]
            target = witness_target(factors, p)
            witness = find_witness(factors, p, coloring, target)
            if witness is None:
                scan = sigma2_scan(factors, p, coloring)
                assert scan.saturated_count == 0 and target < p
            else:
                assert witness.problems(factors, coloring) == []

    def test_lemma1_alternation_variant_clean(self):
        assert alternation_violations([CU5], 2) == []

    def test_composite_modulus_refused(self):
        # a composite p fixes some sign orbits: the sweeps refuse it rather
        # than report the equivariance failures that must follow
        for check in (
            lambda: check_lemma1([CU4], 4),
            lambda: check_lemma2([CU4], 4, Coloring((1,) * 3, 1)),
        ):
            with pytest.raises(ValueError, match="prime"):
                check()

    @pytest.mark.parametrize("p, table_p", [(2, 3), (3, 2)])
    def test_tables_for_another_modulus_refused(self, p, table_p):
        with pytest.raises(ValueError, match=f"built for p={table_p}"):
            check_lemma1([CU5], p, tables=SignMapTables(table_p))

    def test_lemma1_corrupted_tables_detected(self):
        tables = SignMapTables(2, corrupt=("signsets",))
        violations = check_lemma1([CU5], 2, tables=tables)
        assert violations
        assert all(v.kind == "equivariance" for v in violations)

    def test_lemma2_petersen_clean(self, petersen_coloring):
        assert check_lemma2([CU5], 2, petersen_coloring) == []

    def test_lemma2_hnka_optimal_coloring_clean(self):
        H = hnka(7, 2, 3)
        value, coloring = solve_chromatic(kneser(H, 2))
        assert value.to_json() == 4
        assert check_lemma2([H], 2, coloring) == []

    def test_lemma2_two_factor_nonvacuous(self):
        kg = kneser(CU4, 2)
        value, coloring = solve_product_chromatic_pair(kg)
        assert check_lemma2([CU4, CU4], 2, coloring) == []

    def test_lemma2_corrupted_tables_detected(self, petersen_coloring):
        tables = SignMapTables(2, corrupt=("simplex",))
        violations = check_lemma2([CU5], 2, petersen_coloring, tables=tables)
        assert violations
        assert all(v.kind == "equivariance" for v in violations)


def solve_product_chromatic_pair(kg):
    from kneserlab import solve_product_chromatic

    return solve_product_chromatic([kg, kg])


class TestWitness:
    def test_extract_petersen(self):
        coloring = min_element_coloring_petersen()
        w = extract_witness([CU5], 2, (1, 1, 1, 2, 2), coloring, 3)
        assert w.size == 3
        assert w.parts == (((1,), (5,)), ((10,),))  # {1,2},{2,3} | {4,5}
        assert w.colors == ((1, 2), (3,))
        assert w.problems([CU5], coloring) == []
        P = kneser(CU5, 2)
        space = ProductSpace((10,))
        parts = [[space.index_of(v) for v in part] for part in w.parts]
        assert is_colorful_balanced_complete(P, parts, coloring)

    def test_extract_single_vertex_per_sign(self):
        coloring = min_element_coloring_petersen()
        w = extract_witness([CU5], 2, (1, 1, 1, 2, 2), coloring, 2)
        assert [len(p) for p in w.parts] == [1, 1]
        assert w.problems([CU5], coloring) == []

    def test_extract_zero_empty(self):
        coloring = min_element_coloring_petersen()
        w = extract_witness([CU5], 2, (1, 1, 1, 2, 2), coloring, 0)
        assert w.size == 0

    def test_extract_too_large_rejected(self):
        coloring = min_element_coloring_petersen()
        with pytest.raises(ValueError):
            extract_witness([CU5], 2, (1, 1, 1, 2, 2), coloring, 4)

    @pytest.mark.parametrize(
        "extract",
        [
            lambda coloring: extract_witness([CU5], 0, (), coloring, 1),
            lambda coloring: extract_witness([CU5], 2, (0, 3, 0, 0, 0), coloring, 1),
            lambda coloring: extract_witness([CU5], 2, (-1, 0, 0, 0, 0), coloring, 1),
            lambda coloring: extract_witness([CU5], p=1, X=(2, 0, 0, 0, 0), coloring=coloring, q=1),
        ],
        ids=["modulus-0", "entry-p-plus-1", "entry-negative", "by-keyword"],
    )
    def test_extract_refuses_a_vector_outside_the_modulus(self, extract, petersen_coloring):
        # the modulus is at least 1 and every entry lies in 0..p
        with pytest.raises(ValueError, match="modulus|outside"):
            extract(petersen_coloring)

    def test_extract_from_deficient_rejected(self):
        # a deficient vector has an empty tau(X) row
        coloring = min_element_coloring_petersen()
        with pytest.raises(ValueError, match="saturated"):
            extract_witness([CU5], 2, (1, 1, 2, 0, 0), coloring, 1)

    def test_find_witness_petersen(self, petersen_coloring):
        target = ecd(CU5, 2)
        assert target == 3
        w = find_witness([CU5], 2, petersen_coloring, target)
        assert w is not None and w.size == 3
        assert w.problems([CU5], petersen_coloring) == []

    def test_find_witness_two_factors(self, petersen, petersen_coloring):
        proj = projection_coloring([petersen, petersen], 0, petersen_coloring)
        w = find_witness([CU5, CU5], 2, proj, 3)
        assert w is not None and w.size == 3
        assert w.problems([CU5, CU5], proj) == []
        # cross-check completeness against the materialized full product
        F = product_full([petersen, petersen])
        space = ProductSpace((10, 10))
        parts = [[space.index_of(v) for v in part] for part in w.parts if part]
        assert is_colorful_balanced_complete(F, parts, proj)

    def test_find_witness_target_zero(self, petersen_coloring):
        w = find_witness([CU5], 2, petersen_coloring, 0)
        assert w is not None and w.size == 0

    def test_non_prime_needs_force(self, petersen_coloring):
        with pytest.raises(ValueError):
            find_witness([CU5], 4, petersen_coloring, 1)

    def test_non_prime_forced_is_experimental(self):
        kg = kneser(CU5, 4)  # [5] has no 4 disjoint pairs: edgeless, chi 1
        coloring = Coloring((1,) * kg.n, 1)
        w0 = find_witness([CU5], 4, coloring, 0, force=True)
        assert w0 is not None and w0.experimental and w0.size == 0
        # the saturated side needs 8 vertices, so nothing reaches target 1
        assert find_witness([CU5], 4, coloring, 1, force=True) is None

    def test_experimental_follows_p(self):
        kg = kneser(CU5, 4)
        coloring = Coloring((1,) * kg.n, 1)
        assert extract_witness([CU5], 4, (0,) * 5, coloring, 0).experimental
        assert find_witness([CU5], 4, coloring, 0, force=True).to_json_dict()["experimental"]
        assert not extract_witness([CU5], 2, (0,) * 5, coloring, 0).experimental

    def test_witness_target_is_max_of_sides(self):
        assert witness_target([CU5], 2) == max(
            ecd(CU5, 2), 5 - alt_min(CU5, 2).value
        )


class TestWitnessNegativeControls:
    """Each corruption of a valid witness must show up in
    ``PartiteWitness.problems``; where the colorful-balanced-complete
    definition covers it, the materialized oracle must reject it too."""

    @pytest.fixture(scope="class", params=["petersen", "petersen_square"])
    def case(self, request, petersen, petersen_coloring):
        if request.param == "petersen":
            factors, coloring, F = [CU5], min_element_coloring_petersen(), petersen
            w = extract_witness([CU5], 2, (1, 1, 1, 2, 2), coloring, 3)
        else:
            factors = [CU5, CU5]
            coloring = projection_coloring([petersen, petersen], 0, petersen_coloring)
            F = product_full([petersen, petersen])
            w = find_witness(factors, 2, coloring, 3)
        space = ProductSpace(tuple(H.edge_count for H in factors))
        assert [len(part) for part in w.parts] == [2, 1]
        assert w.problems(factors, coloring) == []
        assert self.oracle(F, space, w, coloring)
        return factors, coloring, F, space, w

    @staticmethod
    def oracle(F, space, w, coloring):
        parts = [[space.index_of(v) for v in part] for part in w.parts]
        return is_colorful_balanced_complete(F, parts, coloring)

    @staticmethod
    def color(space, coloring, vertex):
        return coloring.color_of(space.index_of(vertex))

    @staticmethod
    def outside(factors, w):
        used = {v for part in w.parts for v in part}
        ranges = [range(1, H.edge_count + 1) for H in factors]
        return [v for v in itertools.product(*ranges) if v not in used]

    @staticmethod
    def put(w, i, j, vertex, color):
        """``w`` with vertex j of part i replaced (or appended at j = len)."""
        parts, colors = [list(part) for part in w.parts], [list(cols) for cols in w.colors]
        parts[i][j:j + 1], colors[i][j:j + 1] = [vertex], [color]
        return w._replace(parts=tuple(map(tuple, parts)), colors=tuple(map(tuple, colors)))

    @staticmethod
    def recolor(space, coloring, vertex, color):
        colors = list(coloring.colors)
        colors[space.index_of(vertex) - 1] = color
        return Coloring(tuple(colors), coloring.color_count)

    def test_unbalanced_parts(self, case):
        factors, coloring, F, space, w = case
        v = next(v for v in self.outside(factors, w) if self.color(space, coloring, v) not in w.colors[0])
        bad = self.put(w, 0, 2, v, self.color(space, coloring, v))
        assert any("unbalanced" in msg for msg in bad.problems(factors, coloring))
        assert not self.oracle(F, space, bad, coloring)

    def test_repeated_color_in_part(self, case):
        factors, coloring, F, space, w = case
        c = w.colors[0][0]
        v = next(v for v in self.outside(factors, w) if self.color(space, coloring, v) == c)
        bad = self.put(w, 0, 1, v, c)
        assert any("repeated colors" in msg for msg in bad.problems(factors, coloring))
        assert not self.oracle(F, space, bad, coloring)

    def test_vertex_with_wrong_color(self, case):
        factors, coloring, F, space, w = case
        bad_coloring = self.recolor(space, coloring, w.parts[0][1], w.colors[0][0])
        assert any("is not colored" in msg for msg in w.problems(factors, bad_coloring))
        assert not self.oracle(F, space, w, bad_coloring)

    def test_color_used_more_than_p_minus_1_times(self, case):
        # colorful, balanced and complete do not bound a color's uses across
        # parts, so the oracle accepts this one
        factors, coloring, F, space, w = case
        c = w.colors[0][0]
        bad_coloring = self.recolor(space, coloring, w.parts[1][0], c)
        bad = self.put(w, 1, 0, w.parts[1][0], c)
        assert any(f"color {c} appears 2 > p-1" in msg for msg in bad.problems(factors, bad_coloring))
        assert self.oracle(F, space, bad, bad_coloring)

    def test_transversal_not_disjoint(self, case):
        factors, coloring, F, space, w = case
        c = w.colors[1][0]

        def meets_part_0(v):
            return any(
                H.edge_masks[v[j] - 1] & H.edge_masks[u[j] - 1]
                for u in w.parts[0]
                for j, H in enumerate(factors)
            )

        v = next(
            v for v in self.outside(factors, w)
            if self.color(space, coloring, v) == c and meets_part_0(v)
        )
        bad = self.put(w, 1, 0, v, c)
        assert any("not disjoint in factor" in msg for msg in bad.problems(factors, coloring))
        assert not self.oracle(F, space, bad, coloring)


class TestScanAndCounting:
    def test_scan_petersen(self, petersen_coloring):
        scan = sigma2_scan([CU5], 2, petersen_coloring)
        assert scan.max_ell == 3
        assert scan.saturated_count == 50

    def test_dold_consequence_petersen(self, petersen_coloring):
        rep = dold_consequence([CU5], 2, petersen_coloring)
        assert rep["min_ecd"] == 3 and rep["min_n_minus_alt"] == 3
        assert rep["ok"]

    def test_scan_empty_saturated_side(self):
        # no sign class of a 3-vertex graph can span edges for both signs
        # of a 2-coloring split into singleton classes... the saturated side
        # of complete_uniform(3,2) at p=3 is empty (needs 6 vertices)
        kg = kneser(CU3, 3)
        coloring = Coloring((1,) * kg.n, 1) if kg.n else Coloring((), 0)
        scan = sigma2_scan([CU3], 3, coloring)
        assert scan.saturated_count == 0 and scan.max_ell == 0


def _disjoint_edges_hypergraph(rng: random.Random, n: int, p: int) -> Hypergraph:
    """p pairwise disjoint edges of size 1 or 2 (so saturated vectors exist),
    plus up to five random pairs."""
    order = rng.sample(range(1, n + 1), n)
    edges, used = set(), 0
    for k in range(p):
        size = 2 if n - used >= 2 * (p - k) and rng.random() < 0.6 else 1
        edges.add(tuple(sorted(order[used : used + size])))
        used += size
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges.update(rng.sample(pairs, rng.randint(0, min(len(pairs), 5))))
    return Hypergraph(n, edges)


def saturated_side_instances() -> list[tuple[list[Hypergraph], int, str]]:
    """(factors, p, coloring kind) for the saturated-side differential test:
    named and seeded single factors and two-factor products at p = 2 and 3,
    colored by an optimal coloring or by projection to the first factor;
    some have no saturated vector."""
    rng = random.Random(9091)
    out = [
        ([CU5], 2, "solved"),
        ([complete_uniform(6, 2)], 3, "solved"),
        ([CU3], 3, "solved"),
        ([CU4, CU3], 2, "projection"),
        ([CU3, CU4], 2, "solved"),
    ]
    for _ in range(3):
        p = rng.choice((2, 3))
        out.append(([random_hypergraph(rng, max_n=4, max_edges=3)], p, "solved"))
    while len(out) < 40:
        p = rng.choice((2, 3))
        if rng.random() < 0.4:
            factors = [_disjoint_edges_hypergraph(rng, rng.randint(p, 6 if p == 2 else 5), p)]
        else:
            factors = [_disjoint_edges_hypergraph(rng, rng.randint(p, 4 if p == 2 else 3), p) for _ in range(2)]
        out.append((factors, p, rng.choice(("solved", "projection"))))
    return out


def instance_coloring(factors: list[Hypergraph], p: int, kind: str) -> Coloring:
    """A proper coloring of the product of the KG^p of the factors: an
    optimal one, or the projection of an optimal one of the first factor."""
    kgs = [kneser(H, p) for H in factors]
    if kind == "solved":
        return solve_product_chromatic(kgs)[1]
    return projection_coloring(kgs, 0, solve_chromatic(kgs[0])[1])


class TestSaturatedSideOracle:
    def test_scan_tau_and_witness_match_the_definitions(self):
        seen = {"saturated": 0, "none": 0, "products": 0, "p3": 0, "projection": 0}
        for factors, p, kind in saturated_side_instances():
            coloring = instance_coloring(factors, p, kind)
            scan = sigma2_scan(factors, p, coloring)
            best, best_entries, count = sigma2_scan_naive(factors, p, coloring)
            assert (scan.max_ell, scan.argmax, scan.saturated_count) == (best, best_entries, count)
            best_rows = None
            for entries, rows in saturated_rows_naive(factors, p, coloring):
                cells = {(s, c) for s, row in enumerate(rows, start=1) for c in row}
                assert tau_of(factors, p, entries, coloring) == cells
                if entries == best_entries:
                    best_rows = rows
            if best_entries is not None:
                for q in range(best + 1):
                    w = extract_witness(factors, p, best_entries, coloring, q)
                    assert w.size == q and w.problems(factors, coloring) == []
                    for part, cols, row in zip(w.parts, w.colors, best_rows):
                        assert list(cols) == sorted(row)[: len(cols)]
                        assert part == tuple(row[c] for c in cols)
            seen["saturated" if count else "none"] += 1
            seen["products"] += len(factors) == 2 and count > 0
            seen["p3"] += p == 3 and count > 0
            seen["projection"] += kind == "projection" and len(factors) == 2 and count > 0
        assert seen["saturated"] >= 30 and seen["none"] >= 3
        assert min(seen["products"], seen["p3"], seen["projection"]) >= 5


def deficient_side_instances() -> list[tuple[list[Hypergraph], int]]:
    """(factors, p) for the lemma-1 differential test: the random pool's
    members at p = 2 (and those up to 4 vertices at p = 3), named factors,
    and two-factor products."""
    pool = random_pool(12, max_n=5)
    out = [([H], 2) for H in pool] + [([H], 3) for H in pool if H.n <= 4]
    out += [
        ([CU5], 2),
        ([CU5], 3),
        ([cycle(5)], 2),
        ([star(4)], 3),
        ([Hypergraph(5, [(1,), (4,), (1, 2), (1, 5), (3, 5), (1, 2, 4)])], 2),
        ([CU3, CU3], 2),
        ([CU3, CU4], 2),
        ([next(H for H in pool if H.n == 3), CU3], 2),
        ([CU3, complete_uniform(2, 2)], 3),
        ([edgeless(1), CU4], 2),
    ]
    return out


class TestLabelsOracle:
    """The sweeps' label dicts, built from per-factor block tables, against
    the per-vector definitions of `labels_naive`: same labels, same order."""

    @staticmethod
    def assert_labels_match(factors, p, coloring, tables):
        cap = index_cap(factors, p)
        got = _labels(factors, p, coloring, tables, cap)
        want = labels_naive(factors, p, coloring, tables, "balanced", cap)
        assert list(got.items()) == list(want.items()), (factors, p, sorted(tables.corrupt))
        return got

    def test_deficient_side(self):
        changed = 0
        for factors, p in deficient_side_instances():
            clean = self.assert_labels_match(factors, p, None, SignMapTables(p))
            for corrupt in (("blocks",), ("signsets",)):
                got = self.assert_labels_match(factors, p, None, SignMapTables(p, corrupt))
                changed += got != clean
            # the alternation labeling has no library sweep: its oracle
            # labels go through the library's checks
            clean, cap = alternation_labels(factors, p)
            assert kneserlab.prooflab._label_violations(clean, p, cap, False) == [], (factors, p)
            for corrupt in (("blocks",), ("signsets",)):
                changed += alternation_labels(factors, p, SignMapTables(p, corrupt))[0] != clean
        assert changed >= 40

    def test_saturated_side(self):
        labeled = 0
        for factors, p, kind in saturated_side_instances()[:20]:
            coloring = instance_coloring(factors, p, kind)
            for corrupt in ((), ("simplex",)):
                labeled += bool(self.assert_labels_match(factors, p, coloring, SignMapTables(p, corrupt)))
        assert labeled >= 20

    def test_mutant_nu_term_is_caught(self, monkeypatch):
        # one block's index term off by one must show against the oracle
        real = kneserlab.prooflab._deficient_blocks

        def off_by_one(H, p):
            blocks = real(H, p)
            entries, saturated, term, *rest = blocks[5]
            blocks[5] = (entries, saturated, term + 1, *rest)
            return blocks

        self.assert_labels_match([CU5], 2, None, SignMapTables(2))
        monkeypatch.setattr(kneserlab.prooflab, "_deficient_blocks", off_by_one)
        with pytest.raises(AssertionError):
            self.assert_labels_match([CU5], 2, None, SignMapTables(2))


class TestSaturatedBlocks:
    # n <= 6 keeps the (p+1)^n oracle to a few thousand tuples per factor
    NAMED = (
        CU3,
        CU4,
        CU5,
        complete_uniform(6, 2),
        complete_uniform(6, 3),
        cycle(6),
        star(5),
        hnka(6, 2, 2),
        Hypergraph(0),
        edgeless(1),
        Hypergraph(3, [(2,), (1, 3)]),
        Hypergraph(4, [(1,), (2,), (3,), (4,)]),
        Hypergraph(5, [(1,), (2,), (3,), (4, 5), (1, 5)]),
        Hypergraph(6, [(1,), (2,), (3, 4), (5, 6), (4, 5)]),
    )

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_blocks_match_the_definition(self, p):
        nonempty = 0
        for H in (*random_pool(16, max_n=6), *self.NAMED):
            blocks = _saturated_blocks(H, p)
            assert blocks == saturated_blocks_naive(H, p), H
            nonempty += bool(blocks)
        assert nonempty >= 3

    def test_lemma2_splits_only_saturated_vectors(self, monkeypatch):
        factors = [CU4, CU4]
        _, coloring = solve_product_chromatic([kneser(CU4, 2)] * 2)
        count = sigma2_scan(factors, 2, coloring).saturated_count
        calls = []
        tau = kneserlab.prooflab._tau

        def counted(masks, read):
            calls.append(masks)
            return tau(masks, read)

        monkeypatch.setattr(kneserlab.prooflab, "_tau", counted)
        assert check_lemma2(factors, 2, coloring) == []
        assert len(calls) == count == 36
        # a constant simplex table breaks equivariance on every saturated
        # vector, reported in vector order against its negation
        corrupted = check_lemma2(factors, 2, coloring, SignMapTables(2, corrupt=("simplex",)))
        assert corrupted == [
            Violation(
                "equivariance",
                x,
                tuple(3 - v if v else 0 for v in x),
                "label(1, 8) != expected (2, 8) under g=1",
            )
            for x, _ in saturated_rows_naive(factors, 2, coloring)
        ]


class TestBoundsPath:
    def test_defect_minima_match_naive_oracles(self):
        from conftest import alt_min_naive, ecd_naive, random_pool
        from kneserlab.prooflab import _defect_minima

        # n <= 6 keeps the n! x (p+1)^n alternation oracle to about 2 s
        pool = random_pool(24, max_n=6)
        for p in (2, 3):
            for pair in zip(pool[::2], pool[1::2]):
                if p == 3 and max(H.n for H in pair) > 5:
                    continue
                assert _defect_minima(pair, p, None) == (
                    min(ecd_naive(H, p) for H in pair),
                    min(H.n - alt_min_naive(H, p) for H in pair),
                )

    def test_past_exact_alternation_range(self):
        # at n = 10 every witness-side quantity reads the bounds path's
        # heuristic n - alt, which here beats the equitable defect
        H = cycle(10)
        f = factor_bounds(H, 2)
        assert not f.alt_exact and f.n_minus_alt > f.ecd
        assert witness_target([H], 2) == f.n_minus_alt
        _, coloring = solve_chromatic(kneser(H, 2))
        rep = dold_consequence([H], 2, coloring)
        assert (rep["min_ecd"], rep["min_n_minus_alt"]) == (f.ecd, f.n_minus_alt)
        assert rep["ok"]
        witness = find_witness([H], 2, coloring)
        assert witness is not None and witness.size == f.n_minus_alt
        assert witness.problems([H], coloring) == []

    def test_guarantee_rule(self):
        # (p, target, guarantee, max_ell, saturated_count)
        assert misses_guarantee(2, 3, 3, 2, 5)
        assert not misses_guarantee(2, 3, 3, 3, 5)
        assert not misses_guarantee(2, 4, 3, 2, 5)  # beyond the guarantee
        # an empty saturated side promises nothing below p
        assert not misses_guarantee(3, 2, 2, 0, 0)
        assert misses_guarantee(3, 3, 3, 0, 0)


class TestCoveringCheck:
    """The chain check reads the covering pairs (y with one nonzero entry
    zeroed) first, and enumerates every face of every labeled vector only
    when some covering pair has a falling index or equal indices with
    different signs. `chain_oracle` holds each list below equal to the full
    enumeration; these tests pin which path is taken."""

    @staticmethod
    def full_checks(monkeypatch) -> list[int]:
        """The supports the full chain check enumerates, recorded as the
        library calls `submasks` on them."""
        calls: list[int] = []
        real = kneserlab.prooflab.submasks

        def counted(mask):
            calls.append(mask)
            return real(mask)

        monkeypatch.setattr(kneserlab.prooflab, "submasks", counted)
        return calls

    def test_chain_violation_without_a_covering_split(self, monkeypatch):
        # x < z < y by covering pairs, with indices 2, 3, 2 and signs 1, 1,
        # 2: no covering pair has equal indices, so none splits its signs;
        # the index falls from z to y, the full check runs, and it reports
        # the pair (x, y)
        x, z, y = (1, 0, 0), (1, 1, 0), (1, 1, 1)
        calls = self.full_checks(monkeypatch)
        got = kneserlab.prooflab._label_violations({x: (1, 2), z: (1, 3), y: (2, 2)}, 2, 9, False)
        assert [v for v in got if v.kind == "chain"] == [
            Violation("chain", x, y, "equal index 2 but signs 1 != 2")
        ]
        assert calls

    def test_clean_lemma1_sweeps_read_covering_pairs_only(self, monkeypatch):
        calls = self.full_checks(monkeypatch)
        assert check_lemma1([CU4, CU3], 2) == []
        assert check_lemma1([star(4)], 3) == []
        assert alternation_violations([CU5], 2) == []
        assert calls == []

    def test_lemma2_alone(self, monkeypatch):
        # the saturated side: a clean sweep needs no full check, and a
        # saturated label whose sign is turned against a covering face of
        # equal index is caught by the fallback
        factors = [CU5, CU4]
        coloring = instance_coloring(factors, 2, "solved")
        calls = self.full_checks(monkeypatch)
        assert check_lemma2(factors, 2, coloring) == []
        assert calls == []
        clean = labels(factors, 2, coloring)
        cap = index_cap(factors, 2)
        x, y = next(
            (x, y) for y in clean for i in range(9)
            if y[i] and (x := y[:i] + (0,) + y[i + 1 :]) in clean and clean[x][1] == clean[y][1]
        )
        sign, index = clean[y]
        got = kneserlab.prooflab._label_violations({**clean, y: (3 - sign, index)}, 2, cap, True)
        assert calls
        assert Violation("chain", x, y, f"equal index {index} but signs {sign} != {3 - sign}") in got

    @pytest.mark.parametrize("side", ["deficient", "saturated"])
    def test_corrupted_labels_fall_back_to_every_face(self, side, monkeypatch):
        # one label changed at a time, on a vector with a labeled covering
        # face: its sign turned, or its index moved by one; each sweep's
        # clean labels reach the full check only then
        if side == "deficient":
            cases = [([CU5], 2, None), ([CU3, CU3], 2, None), ([star(4)], 3, None)]
        else:
            cases = [([CU5], 2, min_element_coloring_petersen())]
            cases += [([H], 2, instance_coloring([H], 2, "solved")) for H in (complete_uniform(6, 2), cycle(6))]
        calls = self.full_checks(monkeypatch)
        fallbacks = chains = 0
        for factors, p, coloring in cases:
            clean = labels(factors, p, coloring)
            cap = index_cap(factors, p)
            assert kneserlab.prooflab._label_violations(clean, p, cap, coloring is not None) == []
            assert calls == []
            covered = [y for y in clean if any(x and y[:i] + (0,) + y[i + 1 :] in clean for i, x in enumerate(y))]
            for y in random.Random(len(clean)).sample(covered, 4):
                sign, index = clean[y]
                for label in ((sign % p + 1, index), (sign, index + 1), (sign, index - 1)):
                    corrupted = {**clean, y: label}
                    got = kneserlab.prooflab._label_violations(corrupted, p, cap, coloring is not None)
                    fallbacks += bool(calls)
                    chains += any(v.kind == "chain" for v in got)
                    calls.clear()
        assert fallbacks >= len(cases) * 6 and chains >= len(cases) * 2, (fallbacks, chains)

    @pytest.mark.parametrize(
        "H, p", [(CU5, 2), (cycle(5), 2), (Hypergraph(5, [(1,), (2,), (3,), (4, 5), (1, 5)]), 3)]
    )
    def test_each_side_is_convex_in_the_face_order(self, H, p):
        # the covering argument's premise, from the definitions: with x < y
        # both on one side, every z between them is on that side too
        no_colors = Coloring((1,) * H.edge_count, 1)
        saturated = {entries for entries, _ in saturated_rows_naive([H], p, no_colors)}
        deficient = set(all_vectors(p, H.n)) - saturated
        pairs = 0
        for side in (saturated, deficient):
            for y in side:
                support = [i for i in range(H.n) if y[i]]
                faces = [
                    tuple(y[i] if i in kept else 0 for i in range(H.n))
                    for size in range(1, len(support))
                    for kept in itertools.combinations(support, size)
                ]
                for x in (x for x in faces if x in side):
                    pairs += side is saturated
                    between = [z for z in faces if all(a in (0, b) for a, b in zip(x, z))]
                    assert all(z in side for z in between), (x, y)
        assert pairs >= 10


class TestDeficientTerms:
    """`_deficient_blocks` reads a non-saturated block's best edge-free
    sub-block from the per-class ``free`` table; `nu_naive` tries every
    sub-block."""

    # a full table up to 5 vertices; above, a seeded sample of blocks, since
    # the oracle tries 2^n sub-blocks of each of (p+1)^n blocks
    FULL_N = 5
    SAMPLE = 150

    @pytest.mark.parametrize("p", [2, 3])
    def test_terms_match_every_sub_block(self, p):
        rng = random.Random(3700 + p)
        checked = {"full": 0, "sampled": 0, "deficient": 0}
        for H in (*random_pool(14, max_n=7), hnka(7, 2, 3), cycle(6)):
            blocks = _deficient_blocks(H, p)
            assert [row[0] for row in blocks] == list(itertools.product(range(p + 1), repeat=H.n))
            if H.n > self.FULL_N:
                blocks = rng.sample(blocks, self.SAMPLE)
            checked["full" if H.n <= self.FULL_N else "sampled"] += 1
            for entries, saturated, term, _, signs in blocks:
                want = nu_naive(((H, entries, frozenset(signs)),), p, "balanced")
                assert term == want, (H, p, entries)
                checked["deficient"] += not saturated and term > len(signs)
        assert checked["full"] >= 5 and checked["sampled"] >= 4 and checked["deficient"] >= 500, checked


class TestScanBound:
    """`sigma2_scan` skips a prefix of blocks whose rows, read with every
    later factor's whole vertex set, cannot beat the best size so far. It
    must give the definition's (max_ell, argmax, saturated_count):
    `sigma2_scan_naive` where (p+1)^N vectors can be enumerated,
    `sigma2_scan_lex_naive` (held equal to it here) on the named products.
    A rainbow coloring (every product vertex its own color) is proper and
    puts the ceiling out of reach, so the scan reads every block it does
    not skip."""

    KINDS = ("solved", "projection", "rainbow")

    @staticmethod
    def coloring(factors: list[Hypergraph], p: int, kind: str) -> Coloring:
        if kind == "rainbow":
            size = prod(kneser(H, p).n for H in factors)
            return Coloring(tuple(range(1, size + 1)), size)
        return instance_coloring(factors, p, kind)

    @staticmethod
    def small_cases() -> list[tuple[list[Hypergraph], int, str]]:
        """Pool pairs and three-factor products small enough for
        `sigma2_scan_naive`; pool pairs seldom have p disjoint edges in
        both factors, so pairs built to have them are added."""
        rng = random.Random(3701)
        pool = random_pool(40, max_n=5, max_edges=8)
        pairs = [[H1, H2] for H1, H2 in zip(pool[::2], pool[1::2])]
        pairs += [
            [_disjoint_edges_hypergraph(rng, rng.randint(2, n), 2) for n in (5, 4)] for _ in range(8)
        ]
        pairs += [[_disjoint_edges_hypergraph(rng, 3, 3) for _ in range(2)] for _ in range(4)]
        out = [
            (factors, p, kind)
            for factors in pairs
            for p in (2, 3)
            if (p + 1) ** sum(H.n for H in factors) <= 7_000
            for kind in ("solved", "rainbow")
        ]
        for p, n in ((2, 3), (2, 3), (2, 2), (3, 3)):
            factors = [_disjoint_edges_hypergraph(rng, rng.randint(p, n), p) for _ in range(3)]
            if (p + 1) ** sum(H.n for H in factors) <= 20_000:
                out.append((factors, p, rng.choice(("solved", "projection", "rainbow"))))
        return out

    def test_random_pairs_and_three_factor_products(self):
        # "later" counts scans whose first maximizer lies past the first
        # factor's first saturated block, where only a sound bound keeps it
        seen = {"saturated": 0, "three": 0, "p3": 0, "later": 0}
        for factors, p, kind in self.small_cases():
            coloring = self.coloring(factors, p, kind)
            want = sigma2_scan_naive(factors, p, coloring)
            assert sigma2_scan_lex_naive(factors, p, coloring) == want, (factors, p)
            assert tuple(sigma2_scan(factors, p, coloring)) == want, (factors, p, kind)
            if want[2]:
                seen["saturated"] += 1
                seen["three"] += len(factors) == 3
                seen["p3"] += p == 3
                seen["later"] += want[1][: factors[0].n] != saturated_blocks_naive(factors[0], p)[0][0]
        assert seen["saturated"] >= 30 and min(seen["three"], seen["p3"]) >= 2 and seen["later"] >= 8, seen

    @pytest.mark.parametrize(
        "factors, p, kind",
        [
            ([complete_uniform(6, 2)] * 2, 2, "solved"),
            ([complete_uniform(7, 2)] * 2, 3, "solved"),
            ([CU4] * 3, 2, "solved"),
            ([CU5, CU4, CU4], 2, "solved"),
            ([CU5, CU4], 2, "rainbow"),
            ([CU4, CU4, CU4], 2, "rainbow"),
        ],
        ids=["KG(6,2)^2", "KG3(7,2)^2", "KG(4,2)^3", "KG(5,2)xKG(4,2)^2", "KG(5,2)xKG(4,2)-rainbow",
             "KG(4,2)^3-rainbow"],
    )
    def test_named_products(self, factors, p, kind):
        coloring = self.coloring(factors, p, kind)
        want = sigma2_scan_lex_naive(factors, p, coloring)
        assert want[1] is not None
        assert tuple(sigma2_scan(factors, p, coloring)) == want
