"""The four workloads: how each makes its inputs from the seed, what one
operation is, and how its outputs are checked.

Inputs are built with the benchmark's own code and handed to kneserlab as
plain ``Hypergraph`` objects. Every library call goes through the module
attribute at call time, so a traced round sees the wrapped functions.
"""

from __future__ import annotations

import itertools
import json
import random

import oracles

R_VALUES = (2, 3)


# --- ground hypergraphs, built here -----------------------------------------------


def complete_edges(n: int, k: int):
    return [list(e) for e in itertools.combinations(range(1, n + 1), k)]


def hnka_edges(n: int, k: int, a: int):
    return [list(e) for e in itertools.combinations(range(1, n + 1), k) if e[-1] > a]


def star_edges(n: int):
    return [[i, n] for i in range(1, n)]


def cycle_edges(n: int):
    return [[i, i + 1] for i in range(1, n)] + [[1, n]]


def relabel(edges, n: int, rng: random.Random):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [sorted(perm[v - 1] for v in e) for e in edges]


def low_symmetry(rng: random.Random, n: int, sizes) -> list[list[int]]:
    """Random distinct edges of the given sizes, redrawn until every vertex
    has its own multiset of incident edge sizes: an automorphism keeps that
    multiset, so the automorphism group is trivial."""
    while True:
        edges: set[frozenset[int]] = set()
        for size in sizes:
            e = frozenset(rng.sample(range(1, n + 1), size))
            while e in edges:
                e = frozenset(rng.sample(range(1, n + 1), size))
            edges.add(e)
        sig = [tuple(sorted(len(e) for e in edges if v in e)) for v in range(1, n + 1)]
        if len(set(sig)) == n:
            return [sorted(e) for e in edges]


# --- defects ------------------------------------------------------------------------

# (n, edge sizes, hypergraphs per seed); each hypergraph is run at r = 2 and 3.
DEFECT_SHAPES = (
    (5, (2, 2, 3, 3), 6),
    (6, (2, 2, 2, 3, 3, 4), 8),
    (7, (2, 2, 2, 3, 3, 4, 4), 2),
    (7, (2, 3, 3, 3, 4, 4), 2),
)
# Named high-symmetry inputs: (label, n, edges, r, complete k or None).
DEFECT_NAMED = (
    ("complete:6,2", 6, complete_edges(6, 2), 2, 2),
    ("complete:6,2", 6, complete_edges(6, 2), 3, 2),
    ("complete:7,2", 7, complete_edges(7, 2), 3, 2),
    ("star:7", 7, star_edges(7), 3, None),
    ("cycle:7", 7, cycle_edges(7), 2, None),
    ("hnka:7,2,3", 7, hnka_edges(7, 2, 3), 3, None),
)


def defects_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for n, sizes, count in DEFECT_SHAPES:
        for _ in range(count):
            edges = low_symmetry(rng, n, sizes)
            for r in R_VALUES:
                items.append({"label": f"random:n={n}", "n": n, "edges": edges, "r": r, "k": None})
    for label, n, edges, r, k in DEFECT_NAMED:
        items.append({"label": label, "n": n, "edges": edges, "r": r, "k": k})
    # one repeated (H, r) per random shape and one named repeat: the calls
    # the memos of cd, ecd and alt_min serve
    starts = [0]
    for _, _, count in DEFECT_SHAPES:
        starts.append(starts[-1] + 2 * count)
    repeats = [items[rng.randrange(a, b)] for a, b in zip(starts, starts[1:])]
    repeats.append(items[starts[-1] + 3])
    items += [dict(it, label=it["label"] + " (repeat)") for it in repeats]
    rng.shuffle(items)
    return items


def defects_op(kl, H, r):
    inv = kl.invariants
    cd_v = inv.cd(H, r)
    ecd_v = inv.ecd(H, r)
    return cd_v, ecd_v, inv.alt_min(H, r, "exact")


def defects_encode(raw) -> dict:
    cd_v, ecd_v, alt = raw
    return {"cd": cd_v, "ecd": ecd_v, "alt": alt.value, "sigma": list(alt.sigma.sigma), "exact": alt.exact}


def defects_check(items, results, rng) -> list[str]:
    out = []
    for it, res in zip(items, results):
        n, edges, r = it["n"], it["edges"], it["r"]
        where = f"{it['label']} r={r}"
        if not res["exact"]:
            out.append(f"{where}: alternation not exact")
        probs = oracles.check_defects(n, edges, r, res["cd"], res["ecd"], res["alt"], res["sigma"], rng)
        if it["k"] is not None:
            want = oracles.complete_defect(n, it["k"], r)
            if (res["cd"], res["ecd"], n - res["alt"]) != (want, want, want):
                probs.append(f"closed form n-r(k-1)={want}, got cd/ecd/n-alt "
                             f"{res['cd']}/{res['ecd']}/{n - res['alt']}")
        out += [f"{where}: {p}" for p in probs]
    return out


def defects_controls(items, results, rng) -> list[str]:
    """Corrupted answers the defect checks must reject."""
    it, res = next((i, r) for i, r in zip(items, results) if i["n"] == 5)
    n, edges, r = it["n"], it["edges"], it["r"]
    bad = [
        ("cd+1", dict(res, cd=res["cd"] + 1)),
        ("ecd+1", dict(res, ecd=res["ecd"] + 1)),
        ("alt-1", dict(res, alt=res["alt"] - 1)),
        ("alt+1", dict(res, alt=res["alt"] + 1)),
    ]
    missed = []
    for name, b in bad:
        if not oracles.check_defects(n, edges, r, b["cd"], b["ecd"], b["alt"], b["sigma"], rng):
            missed.append(f"defect check accepted corrupted answer {name}")
    if oracles.complete_defect(6, 2, 2) != oracles.cd_brute(6, complete_edges(6, 2), 2):
        missed.append("closed form for complete:6,2 disagrees with brute force")
    return missed


# --- kneser_chi -----------------------------------------------------------------------

# (label, ground kind, params, r, relabel by seed). The seed relabels only
# instances far below the median operation: relabelled, KG(H(8,2,3)) takes
# 0.04-0.59 s and KG^3(H(8,2,3)) 0.02-0.14 s, which would move wall_s and
# op_p50_s with the seed.
KNESER_LADDER = (
    ("KG(7,2)", "complete", (7, 2), 2, False),
    ("KG(7,3)", "complete", (7, 3), 2, False),
    ("KG(8,2)", "complete", (8, 2), 2, False),
    ("KG^3(9,2)", "complete", (9, 2), 3, False),
    ("KG^3(8,2)", "complete", (8, 2), 3, False),
    ("KG(H(7,2,3))", "hnka", (7, 2, 3), 2, True),
    ("KG(H(8,2,3))", "hnka", (8, 2, 3), 2, False),
    ("KG^3(H(8,2,3))", "hnka", (8, 2, 3), 3, False),
)


def ground(kind: str, params) -> tuple[int, list[list[int]]]:
    if kind == "complete":
        return params[0], complete_edges(*params)
    if kind == "hnka":
        return params[0], hnka_edges(*params)
    if kind == "cycle":
        return params[0], cycle_edges(*params)
    raise ValueError(kind)


def expected_chi(kind: str, params, r: int) -> int:
    if kind == "complete":
        return oracles.kneser_chi(params[0], params[1], r)
    if kind == "hnka":
        return oracles.hnka_chi(*params, r)
    if kind == "cycle":
        return 3 if params[0] % 2 else 2
    raise ValueError(kind)


def kneser_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for label, kind, params, r, shuffle in KNESER_LADDER:
        n, edges = ground(kind, params)
        if shuffle:
            edges = relabel(edges, n, rng)
        items.append({"label": label, "n": n, "edges": edges, "r": r, "chi": expected_chi(kind, params, r)})
    rng.shuffle(items)
    return items


def kneser_op(kl, G, r):
    KG = kl.constructions.kneser(G, r)
    return KG, kl.chromatic.solve_chromatic(KG)


def kneser_encode(raw) -> dict:
    KG, (value, coloring) = raw
    return {"n": KG.n, "edges": [list(e) for e in KG.edges], "chi": value.to_json(),
            "colors": list(coloring.colors)}


def kneser_probe(kl, G, r, chi):
    """The UNSAT part alone: the solver with limit chi-1."""
    KG = kl.constructions.kneser(G, r)
    kl.chromatic.solve_chromatic(KG, chi - 1)


def kneser_check(items, results) -> list[str]:
    out = []
    for it, res in zip(items, results):
        kn, kedges = oracles.kneser_edges(it["edges"], it["r"])
        if res["n"] != kn or sorted(map(tuple, res["edges"])) != sorted(kedges):
            out.append(f"{it['label']}: Kneser hypergraph differs from the definition")
        if res["chi"] != it["chi"]:
            out.append(f"{it['label']}: chi={res['chi']}, closed form gives {it['chi']}")
        out += [f"{it['label']}: {p}" for p in oracles.check_coloring(kn, kedges, res["colors"], it["chi"])]
    return out


def kneser_controls(items, results) -> list[str]:
    it, res = next((i, r) for i, r in zip(items, results) if i["label"] == "KG(7,2)")
    kn, kedges = oracles.kneser_edges(it["edges"], it["r"])
    colors = res["colors"]
    mono = list(colors)
    for v in kedges[0]:
        mono[v - 1] = colors[kedges[0][0] - 1]
    swapped = [{1: 2, 2: 1}.get(c, c) for c in colors]
    merged = [min(c, it["chi"] - 1) for c in colors]
    missed = []
    for name, bad, chi in (("monochromatic edge", mono, it["chi"]), ("colours 1,2 swapped", swapped, it["chi"]),
                           ("chi-1 colours", merged, it["chi"] - 1)):
        if not oracles.check_coloring(kn, kedges, bad, chi):
            missed.append(f"colouring check accepted {name}")
    return missed


# --- product_chi ------------------------------------------------------------------------

# (label, factors as (kind, params, r or None for ground, relabel by seed)).
# As in the ladder, the seed relabels only the smallest instance: relabelled,
# KG(H(6,2,2))^2 takes 0.15-0.24 s and C7^3 0.15-0.28 s, around the median.
PRODUCT_SET = (
    ("KG(5,2)^2", (("complete", (5, 2), 2, False),) * 2),
    ("KG(6,2)^2", (("complete", (6, 2), 2, False),) * 2),
    ("KG^3(7,2)^2", (("complete", (7, 2), 3, False),) * 2),
    ("KG(5,2)xKG(7,3)", (("complete", (5, 2), 2, False), ("complete", (7, 3), 2, False))),
    ("KG(5,2)xKG(6,2)", (("complete", (5, 2), 2, False), ("complete", (6, 2), 2, False))),
    ("KG(H(6,2,2))^2", (("hnka", (6, 2, 2), 2, False),) * 2),
    ("C7^3", (("cycle", (7,), None, False),) * 3),
    ("C5xC7", (("cycle", (5,), None, True), ("cycle", (7,), None, True))),
)


def product_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for label, spec in PRODUCT_SET:
        factors = []
        for kind, params, r, shuffle in spec:
            n, edges = ground(kind, params)
            if shuffle:
                edges = relabel(edges, n, rng)
            factors.append({"n": n, "edges": edges, "r": r, "chi": expected_chi(kind, params, r or 2)})
        # chi of the product is the smallest factor chi: trivial for equal
        # factors and for odd cycles, Hajiabolhassan-Meunier for Kneser factors
        items.append({"label": label, "factors": factors, "chi": min(f["chi"] for f in factors)})
    rng.shuffle(items)
    return items


def product_op(kl, grounds, rs):
    fs = [G if r is None else kl.constructions.kneser(G, r) for G, r in zip(grounds, rs)]
    return kl.chromatic.solve_product_chromatic(fs)


def product_encode(raw) -> dict:
    value, coloring = raw
    return {"chi": value.to_json(), "colors": list(coloring.colors)}


def product_probe(kl, grounds, rs, chi):
    fs = [G if r is None else kl.constructions.kneser(G, r) for G, r in zip(grounds, rs)]
    kl.chromatic.solve_product_chromatic(fs, chi - 1)


def product_factor_edges(item):
    out = []
    for f in item["factors"]:
        if f["r"] is None:
            out.append((f["n"], oracles.canonical_edges(f["edges"])))
        else:
            out.append(oracles.kneser_edges(f["edges"], f["r"]))
    return out


def product_check(items, results) -> list[str]:
    out = []
    for it, res in zip(items, results):
        fe = product_factor_edges(it)
        if res["chi"] != it["chi"]:
            out.append(f"{it['label']}: chi={res['chi']}, expected {it['chi']}")
        probs = oracles.check_product_coloring([e for _, e in fe], [n for n, _ in fe], res["colors"], it["chi"])
        out += [f"{it['label']}: {p}" for p in probs]
    return out


def product_controls(items, results) -> list[str]:
    it, res = next((i, r) for i, r in zip(items, results) if i["label"] == "KG(5,2)^2")
    fe = product_factor_edges(it)
    dims = [n for n, _ in fe]
    edges = [e for _, e in fe]
    colors = list(res["colors"])
    box = [e[0] for e in edges]
    for cell in itertools.product(*box):
        colors[(cell[0] - 1) * dims[1] + cell[1] - 1] = 1
    merged = [min(c, it["chi"] - 1) for c in res["colors"]]
    missed = []
    if not oracles.check_product_coloring(edges, dims, colors, it["chi"]):
        missed.append("box check accepted a covered box")
    if not oracles.check_product_coloring(edges, dims, merged, it["chi"] - 1):
        missed.append("box check accepted a chi-1 colouring")
    return missed


# --- lab_cli ----------------------------------------------------------------------------

# One session, run once against an empty cache and once against the filled
# cache. ``{file}`` is a seeded low-symmetry hypergraph written at set-up.
SESSION = (
    "build kneser:2:complete:5,2",
    "invariants --r 2 hnka:7,2,3",
    "invariants --r 2 complete:6,2",
    "invariants --r 3 file:{file}",
    "chromatic --r 2 hnka:7,2,3",
    "chromatic --r 2 complete:6,2",
    "chromatic --r 2 complete:5,2 complete:5,2",
    "bounds --r 2 hnka:7,2,3",
    "witness --p 2 complete:5,2",
    "witness --p 2 complete:5,2 complete:5,2",
    "witness --p 2 complete:6,2 complete:6,2",
    "prooflab --p 2 complete:5,2",
    "prooflab --p 2 complete:3,2 --negative-control",
    "prooflab --p 3 complete:5,2",
    "reduce --r 2 --s 2 --C 1 complete:5,2",
    "reduce --r 2 --s 2 --C 1 complete:11,2",
    "compare",
)


def session_file(seed: int) -> dict:
    rng = random.Random(seed)
    n = 6
    return {"n": n, "edges": sorted(low_symmetry(rng, n, (2, 2, 2, 3, 3, 4)), key=lambda e: (len(e), e))}


def parse_output(text: str):
    """The JSON list of task results the CLI prints after its tables."""
    lines = text.splitlines()
    start = lines.index("[")
    return json.loads("\n".join(lines[start:]))


def strip_timing(results):
    return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in results]


def recipe_ground(recipe: str, file_graph: dict):
    """(kind, params, n, edges) of a session recipe, built here."""
    head, _, rest = recipe.partition(":")
    if head == "file":
        return head, (), file_graph["n"], file_graph["edges"]
    params = tuple(int(x) for x in rest.split(","))
    return (head, params, *ground(head, params))


def lab_check(argv: list[str], code: int, results, file_graph: dict) -> list[str]:
    """Check one CLI command's exit code and results against the closed
    forms and independent computations."""
    cmd = argv[0]
    res = results[0]
    pay = res["payload"]
    out = []
    negative = "--negative-control" in argv
    if negative:
        if code != 1 or res["status"] != "violation" or not pay["lemma1_violations"]:
            out.append("negative control did not report violations with exit 1")
        return out
    if code != 0 or res["status"] != "ok":
        return [f"exit {code}, status {res['status']}"]
    recipes = [a for a in argv[1:] if ":" in a]
    if cmd == "build":
        kn, kedges = oracles.kneser_edges(complete_edges(5, 2), 2)
        hg = pay["hypergraphs"][0]["hypergraph"]
        if hg["n"] != kn or sorted(map(tuple, hg["edges"])) != sorted(kedges):
            out.append("built Petersen graph differs from KG(5,2)")
    elif cmd == "invariants":
        r = int(argv[argv.index("--r") + 1])
        row = pay["factors"][0]
        kind, params, n, edges = recipe_ground(recipes[0], file_graph)
        if row["cd"] != oracles.cd_brute(n, edges, r) or row["ecd"] != oracles.ecd_brute(n, edges, r):
            out.append(f"cd/ecd {row['cd']}/{row['ecd']} differ from brute force")
        if row["cd"] > row["n_minus_alt"] or row["alt_status"] != "EXACT":
            out.append("cd > n-alt or alternation not exact")
        if kind == "complete" and row["n_minus_alt"] != oracles.complete_defect(n, params[1], r):
            out.append(f"n-alt={row['n_minus_alt']}, closed form gives {oracles.complete_defect(n, params[1], r)}")
        if kind != "file" and oracles.ceil_div(row["n_minus_alt"], r - 1) > expected_chi(kind, params, r):
            out.append("alternation bound exceeds chi")
    elif cmd == "chromatic":
        if len(recipes) == 1:
            kind, params, _, edges = recipe_ground(recipes[0], file_graph)
            kn, kedges = oracles.kneser_edges(edges, 2)
            chi = expected_chi(kind, params, 2)
            out += oracles.check_coloring(kn, kedges, pay["coloring"], chi)
        else:
            kn, kedges = oracles.kneser_edges(complete_edges(5, 2), 2)
            chi = oracles.kneser_chi(5, 2, 2)
            out += oracles.check_product_coloring([kedges, kedges], [kn, kn], pay["coloring"], chi)
        if pay["chi"] != chi:
            out.append(f"chi={pay['chi']}, closed form gives {chi}")
    elif cmd == "bounds":
        chi = oracles.hnka_chi(7, 2, 3, 2)
        f = pay["factors"][0]
        if f["kg_chi"] != chi or pay["exact_chi"] != chi or pay["zhu_status"] != "VERIFIED":
            out.append(f"bounds chi {f['kg_chi']}/{pay['exact_chi']} or zhu {pay['zhu_status']} wrong")
        for name in ("cd_bound", "ecd_bound", "alt_bound"):
            if f[name] > chi:
                out.append(f"{name}={f[name]} > chi={chi}")
        if pay["product_ecd_bound"] > chi or pay["product_alt_bound"] > chi:
            out.append("a product bound exceeds chi")
    elif cmd == "witness":
        p = int(argv[argv.index("--p") + 1])
        ks = [int(rc.split(":")[1].split(",")[0]) for rc in recipes]
        # guaranteed size: the smallest ecd^p = n - p(k-1) over complete factors
        target = min(oracles.complete_defect(n, 2, p) for n in ks)
        factor_edges = [complete_edges(n, 2) for n in ks]
        if pay["target"] != target or pay["status"] != "FOUND":
            out.append(f"witness target {pay['target']} (want {target}), status {pay['status']}")
        out += oracles.check_witness(factor_edges, p, pay["witness"], target)
    elif cmd == "prooflab":
        if pay["lemma1_violations"] or pay["lemma2_violations"] or not pay["dold"]["ok"]:
            out.append("prooflab reported violations")
    elif cmd == "reduce":
        rep = pay["reports"][0]
        n = int(recipes[0].split(":")[1].split(",")[0])
        lhs = oracles.complete_defect(n, 2, rep["r"] * rep["s"])
        if rep["lhs_ecd_rs"] != lhs or rep["rhs"] != rep["r"] * (rep["s"] - 1) * rep["C"] + rep["ecd_t"]:
            out.append(f"reduction sides {rep['lhs_ecd_rs']}/{rep['rhs']} wrong (lhs should be {lhs})")
        if not rep["holds"] or rep["lhs_ecd_rs"] > rep["rhs"]:
            out.append("reduction inequality fails")
    elif cmd == "compare":
        if not pay["ecd_side_wins"] or not pay["alt_side_wins"]:
            out.append("compare does not realise both bound directions")
        for row in pay["rows"]:
            if isinstance(row["chi"], int) and max(row["ecd_bound"], row["alt_bound"], row["cd_bound"]) > row["chi"]:
                out.append(f"{row['recipe']}: a bound exceeds chi={row['chi']}")
            if row["cd"] > row["ecd"] or row["cd"] > row["n_minus_alt"]:
                out.append(f"{row['recipe']}: cd above ecd or n-alt")
    return out


def lab_controls(checked: list[tuple[list[str], int, list]], file_graph: dict) -> list[str]:
    """Corrupted CLI answers the checks must reject."""
    missed = []
    by_cmd = {" ".join(argv): (argv, code, res) for argv, code, res in checked}
    argv, code, res = by_cmd["witness --p 2 complete:5,2 complete:5,2"]
    bad = json.loads(json.dumps(res))
    part = bad[0]["payload"]["witness"]["parts"][0]
    part["colors"] = [part["colors"][0]] * len(part["colors"])
    if not lab_check(argv, code, bad, file_graph):
        missed.append("witness check accepted a part with repeated colours")
    bad = json.loads(json.dumps(res))
    parts = bad[0]["payload"]["witness"]["parts"]
    parts[1]["vertices"][0] = parts[0]["vertices"][0]
    if not lab_check(argv, code, bad, file_graph):
        missed.append("witness check accepted vertices that meet across parts")
    argv, code, res = by_cmd["prooflab --p 2 complete:3,2 --negative-control"]
    if not lab_check(argv, 0, res, file_graph):
        missed.append("negative-control check accepted exit code 0")
    argv, code, res = by_cmd["compare"]
    bad = json.loads(json.dumps(res))
    bad[0]["payload"]["alt_side_wins"] = []
    if not lab_check(argv, code, bad, file_graph):
        missed.append("compare check accepted a one-sided table")
    return missed
