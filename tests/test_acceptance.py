"""Acceptance suite: one test per criterion, each printing a pass line and
holding its stated time budget. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines)."""

from __future__ import annotations

import random
import time

import pytest

from kneserlab import (
    Coloring,
    ProductSpace,
    SignMapTables,
    bound_report,
    cd,
    check_lemma1,
    check_lemma2,
    compare_bounds,
    complete_uniform,
    default_compare_pool,
    ecd,
    find_witness,
    formula_kneser,
    hnka,
    kneser,
    product_is_proper,
    reduction_check,
    sigma2_scan,
    solve_chromatic,
    solve_product_chromatic,
    witness_target,
)
from kneserlab.chromatic import ceil_div
from kneserlab.invariants import alt_min
from conftest import (
    SEED,
    alt_min_naive,
    cd_naive,
    ecd_naive,
    finite_chi,
    is_colorful_balanced_complete,
    is_proper,
    minimal_covers,
    minimal_covers_brute,
    product_full,
    product_minimal,
    projection_coloring,
    random_hypergraph,
    random_pool,
)


def report(num: int, desc: str, elapsed: float, budget: float) -> None:
    print(f"[criterion {num:02d}] PASS {desc} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def pool():
    return random_pool(200)


@pytest.fixture(scope="module")
def timed_instances():
    """Every formula-criterion instance with its solve time, chi, and
    optimal coloring."""
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
        start = time.perf_counter()
        value, coloring = solve_chromatic(kg)
        out[name] = {
            "ground": ground,
            "p": p,
            "kg": kg,
            "chi": finite_chi(value),
            "coloring": coloring,
            "seconds": time.perf_counter() - start,
        }
    return out


def test_criterion_01_lovasz_formula(timed_instances):
    start = time.perf_counter()
    for n in (4, 5, 6, 7):
        inst = timed_instances[f"KG({n},2)"]
        assert inst["chi"] == n - 2
        assert inst["seconds"] < 10.0
    inst = timed_instances["KG(7,3)"]
    assert inst["chi"] == 7 - 2 * 3 + 2 == 3
    assert inst["seconds"] < 10.0
    report(1, "chi(KG(n,2)) = n-2 and chi(KG(7,3)) = 3", time.perf_counter() - start, 60)


def test_criterion_02_alon_frankl_lovasz(timed_instances):
    start = time.perf_counter()
    for name, n in (("KG3(7,2)", 7), ("KG3(9,2)", 9)):
        inst = timed_instances[name]
        assert inst["chi"] == formula_kneser(n, 2, 3)
        assert inst["seconds"] < 60.0
    assert timed_instances["KG3(7,2)"]["chi"] == 2
    assert timed_instances["KG3(9,2)"]["chi"] == 3
    report(2, "chi(KG^3(7,2)) = 2 and chi(KG^3(9,2)) = 3", time.perf_counter() - start, 120)


def test_criterion_03_hnka_family(timed_instances):
    start = time.perf_counter()
    inst = timed_instances["KG2(H(7,2,3))"]
    assert inst["seconds"] < 60.0
    assert ecd(hnka(7, 2, 3), 2) == 4
    assert inst["chi"] == 4 == ceil_div(4, 1)
    report(3, "chi(KG^2(H(7,2,3))) = 4 = ecd^2", time.perf_counter() - start, 60)


def test_criterion_04_defect_orderings_and_oracles(pool):
    start = time.perf_counter()
    oracle_checked = 0
    for H in pool:
        for r in (2, 3):
            cd_v = cd(H, r)
            assert ecd(H, r) >= cd_v
            assert H.n - alt_min(H, r, "exact").value >= cd_v
    for H in pool:
        if H.n > 5:
            continue
        for r in (2, 3):
            assert cd(H, r) == cd_naive(H, r)
            assert ecd(H, r) == ecd_naive(H, r)
            assert alt_min(H, r, "exact").value == alt_min_naive(H, r)
            oracle_checked += 1
    assert oracle_checked >= 50
    report(
        4,
        f"orderings on 200 hypergraphs, oracles on {oracle_checked} (n<=5, r) pairs",
        time.perf_counter() - start,
        300,
    )


def test_criterion_05_lower_bound_soundness(pool):
    start = time.perf_counter()
    checked = 0
    for H in pool:
        for r in (2, 3):
            value = solve_chromatic(kneser(H, r), limit=6)[0]
            chi = value.to_json()
            if type(chi) is not int:
                continue
            assert ceil_div(ecd(H, r), r - 1) <= chi
            assert ceil_div(H.n - alt_min(H, r, "exact").value, r - 1) <= chi
            checked += 1
    assert checked >= 300
    report(5, f"bound soundness on {checked} solved (H, r) pairs", time.perf_counter() - start, 300)


def test_criterion_06_products_and_zhu(timed_instances):
    petersen = timed_instances["KG(5,2)"]["kg"]
    matching = timed_instances["KG(4,2)"]["kg"]
    start = time.perf_counter()
    value, _ = solve_product_chromatic([petersen, petersen])
    elapsed1 = time.perf_counter() - start
    assert value.to_json() == 3 == min(3, 3)
    assert elapsed1 < 120.0
    start2 = time.perf_counter()
    value2, _ = solve_product_chromatic([matching, petersen])
    elapsed2 = time.perf_counter() - start2
    assert value2.to_json() == 2
    assert elapsed2 < 120.0
    rep = bound_report([complete_uniform(5, 2), complete_uniform(5, 2)], 2)
    assert rep.exact_chi == 3
    assert rep.product_alt_bound <= 3 and rep.product_ecd_bound <= 3
    assert rep.zhu_status == "VERIFIED" and rep.check() == []
    rep2 = bound_report([complete_uniform(4, 2), complete_uniform(5, 2)], 2)
    assert rep2.exact_chi == 2
    assert rep2.zhu_status == "VERIFIED" and rep2.check() == []
    report(6, "product chis and Zhu verification", time.perf_counter() - start, 240)


@pytest.fixture(scope="module")
def witness_cases(timed_instances):
    """(label, factors, p, coloring) for every criterion-7 coloring."""
    cases = []
    for name, inst in timed_instances.items():
        cases.append((name, [inst["ground"]], inst["p"], inst["coloring"]))
    petersen = timed_instances["KG(5,2)"]["kg"]
    proj = projection_coloring(
        [petersen, petersen], 0, timed_instances["KG(5,2)"]["coloring"]
    )
    cases.append(
        ("Petersen x Petersen", [complete_uniform(5, 2)] * 2, 2, proj)
    )
    return cases


def test_criterion_07_colorful_witnesses(timed_instances, witness_cases):
    start = time.perf_counter()
    expected_targets = {
        "KG(4,2)": 2,
        "KG(5,2)": 3,
        "KG(6,2)": 4,
        "KG(7,2)": 5,
        "KG(7,3)": 3,
        "KG3(7,2)": 4,
        "KG3(9,2)": 6,
        "KG2(H(7,2,3))": 4,
        "Petersen x Petersen": 3,
    }
    for label, factors, p, coloring in witness_cases:
        case_start = time.perf_counter()
        target = witness_target(factors, p)
        assert target == expected_targets[label]
        witness = find_witness(factors, p, coloring, target)
        assert witness is not None, f"{label}: no witness of size {target}"
        assert witness.size == target
        assert witness.problems(factors, coloring) == []
        if len(factors) == 1:
            F = timed_instances[label]["kg"]
        else:
            F = product_full([kneser(H, p) for H in factors])
        space = ProductSpace(tuple(kneser(H, p).n for H in factors))
        parts = [[space.index_of(v) for v in part] for part in witness.parts if part]
        assert is_colorful_balanced_complete(F, parts, coloring)
        uses: dict[int, int] = {}
        for cols in witness.colors:
            for c in cols:
                uses[c] = uses.get(c, 0) + 1
        assert all(v <= p - 1 for v in uses.values())
        assert time.perf_counter() - case_start < 120.0
    report(7, f"witnesses on {len(witness_cases)} colorings", time.perf_counter() - start, 600)


def test_criterion_08_lemma_suites(timed_instances):
    start = time.perf_counter()
    H5 = complete_uniform(5, 2)
    H3 = complete_uniform(3, 2)
    assert check_lemma1([H5], 2) == []
    assert check_lemma1([H5], 3) == []
    assert check_lemma1([H3, H3], 2) == []
    coloring5 = timed_instances["KG(5,2)"]["coloring"]
    assert check_lemma2([H5], 2, coloring5) == []
    # p=3 on five vertices: the saturated side is empty, the sweep is vacuous
    kg53 = kneser(H5, 3)
    assert kg53.edge_count == 0
    assert check_lemma2([H5], 3, Coloring((1,) * kg53.n, 1)) == []
    kg3 = kneser(H3, 2)
    pair_coloring = Coloring((1,) * (kg3.n * kg3.n), 1)
    assert check_lemma2([H3, H3], 2, pair_coloring) == []
    # negative controls: corrupted tables must be detected
    assert check_lemma1([H5], 2, tables=SignMapTables(2, corrupt=("signsets",)))
    assert check_lemma1([H5], 2, tables=SignMapTables(2, corrupt=("blocks",)))
    assert check_lemma2(
        [H5], 2, coloring5, tables=SignMapTables(2, corrupt=("simplex",))
    )
    report(8, "labeling consistency suites and negative controls", time.perf_counter() - start, 300)


def test_criterion_09_counting_consequence(witness_cases):
    start = time.perf_counter()
    for label, factors, p, coloring in witness_cases:
        scan = sigma2_scan(factors, p, coloring)
        min_ecd = min(ecd(H, p) for H in factors)
        min_alt_side = min(H.n - alt_min(H, p, "exact").value for H in factors)
        assert scan.max_ell >= min_ecd, label
        assert scan.max_ell >= min_alt_side, label
    report(9, f"saturated max level covers both defects on {len(witness_cases)} colorings", time.perf_counter() - start, 300)


def test_criterion_10_reduction():
    start = time.perf_counter()
    H = complete_uniform(5, 2)
    for C in (0, 1, 2):
        rep = reduction_check(H, 2, 2, C)
        assert rep["holds"], f"C={C}: {rep['lhs_ecd_rs']} > {rep['rhs']}"
    rng = random.Random(SEED + 1)
    for i in range(20):
        G = random_hypergraph(rng, max_n=5, max_edges=6)
        r, s = rng.choice([(2, 2), (2, 3), (3, 2)])
        C = rng.randint(0, 2)
        rep = reduction_check(G, r, s, C)
        assert rep["holds"], f"instance {i}: {rep['lhs_ecd_rs']} > {rep['rhs']}"
    report(10, "defect reduction on 3 + 20 instances", time.perf_counter() - start, 300)


def test_criterion_11_product_representations():
    start = time.perf_counter()
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 500:
        H1 = random_hypergraph(rng, max_n=6, max_edges=5)
        H2 = random_hypergraph(rng, max_n=6, max_edges=5)
        if H1.n * H2.n > 36:
            continue
        mini = product_minimal([H1, H2])
        k = rng.randint(1, 4)
        for _ in range(5):
            if checked >= 500:
                break
            coloring = Coloring(
                tuple(rng.randint(1, k) for _ in range(mini.n)), k
            )
            assert product_is_proper([H1, H2], coloring) == is_proper(mini, coloring)
            checked += 1
    got = {frozenset(S) for S in minimal_covers(3, 3)}
    assert got == minimal_covers_brute(3, 3)
    report(11, "implicit/minimal product agreement on 500 colorings", time.perf_counter() - start, 300)


def test_criterion_12_bound_direction_witnesses():
    start = time.perf_counter()
    rep = compare_bounds(default_compare_pool())
    star_row = next(r for r in rep["rows"] if r["recipe"] == "star:4")
    assert (star_row["cd"], star_row["ecd"]) == (0, 1)
    for label in rep["ecd_side_wins"]:
        row = next(r for r in rep["rows"] if f"{r['recipe']} (r={r['r']})" == label)
        assert row["ecd_bound"] > row["alt_bound"]
    for label in rep["alt_side_wins"]:
        row = next(r for r in rep["rows"] if f"{r['recipe']} (r={r['r']})" == label)
        assert row["alt_bound"] > row["ecd_bound"]
    # the shipped pool realizes both strict directions (star:6 at r=3 and
    # cycle:5 at r=2); if a future pool change loses one, the report must
    # say so in notes instead
    assert rep["ecd_side_wins"] or "no pool instance has ecd_bound > alt_bound" in rep["notes"]
    assert rep["alt_side_wins"] or "no pool instance has alt_bound > ecd_bound" in rep["notes"]
    assert rep["ecd_side_wins"] and rep["alt_side_wins"]
    report(12, "both bound directions realized in the shipped pool", time.perf_counter() - start, 120)
