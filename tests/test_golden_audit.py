"""The golden file audits its own certificates. The golden test pins bytes,
not truth: ``regen_golden.py`` writes whatever the library prints. So every
colouring and every defect row that ``golden/cli.json`` records is re-checked
here by the oracles of ``conftest.py``, never by the library's checkers:

- ``chromatic``: the colouring is proper on `product_minimal` of the KG^r of
  the factors (of the factors themselves under ``--ground``), is in
  first-appearance form, and uses exactly ``chi`` colours;
- ``invariants``, ``bounds`` and ``compare``: cd and ecd equal `cd_naive` and
  `ecd_naive`, and every printed bound is at most its row's chi;
- ``witness`` with status FOUND: the printed parts, under their printed
  colours, pass `is_colorful_balanced_complete` on `product_minimal` of the
  KG^p of the factors. No colouring of the product is printed, so the
  colours are checked for distinctness within a part, not against the
  colouring.

The library builds the factors from their recipes; KG^r is built here.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
from math import prod

import pytest

from kneserlab import MAX_VERTICES, Coloring, Hypergraph, parse_recipe
from conftest import (
    cd_naive,
    ecd_naive,
    is_colorful_balanced_complete,
    is_first_appearance,
    is_proper,
    product_minimal,
)
from test_golden import FILE_NAME, GOLDEN, INPUT_FILES

# size bounds: `product_minimal` refuses products over MAX_VERTICES, and the
# naive defect searches enumerate colourings of every vertex subset
PRODUCT_MAX_VERTICES = MAX_VERTICES
DEFECT_MAX_N = 9

cd_of = functools.cache(cd_naive)
ecd_of = functools.cache(ecd_naive)


def kneser_naive(H: Hypergraph, r: int) -> Hypergraph:
    """KG^r(H): vertex i is the i-th edge of H, and every r pairwise disjoint
    edges of H span an edge."""
    masks = H.edge_masks
    return Hypergraph(len(masks), [
        tuple(i + 1 for i in chosen)
        for chosen in itertools.combinations(range(len(masks)), r)
        if all(masks[a] & masks[b] == 0 for a, b in itertools.combinations(chosen, 2))
    ])


def factor(recipe: str) -> Hypergraph:
    if recipe == f"file:{FILE_NAME}":
        return Hypergraph(**INPUT_FILES[FILE_NAME])
    return parse_recipe(recipe)


def audit_coloring(command: str, payload: dict) -> int:
    """1 if the entry's colouring was checked, 0 if it has none or its
    product is over the size bound."""
    colors, chi = payload["coloring"], payload["chi"]
    if colors is None:
        return 0
    factors = [factor(word) for word in command.split()[1:] if ":" in word]
    targets = factors if payload["ground"] else [kneser_naive(H, payload["r"]) for H in factors]
    if prod(H.n for H in targets) > PRODUCT_MAX_VERTICES:
        return 0
    assert type(chi) is int and payload["color_count"] == chi, (command, "color_count is not chi")
    assert set(colors) == set(range(1, chi + 1)), (command, "does not use chi colours")
    assert is_proper(product_minimal(targets), Coloring(tuple(colors), chi)), (command, "not proper")
    assert is_first_appearance(colors), (command, "not in first-appearance form")
    return 1


def audit_witness(command: str, payload: dict) -> int:
    """1 if the entry's witness was checked, 0 if its product is over the
    size bound. A witness vertex lists 1-based factor edge indices, which
    are KG^p vertices; the product numbers its vertices in row-major order."""
    p, parts = payload["p"], payload["witness"]["parts"]
    targets = [kneser_naive(factor(word), p) for word in command.split()[1:] if ":" in word]
    if prod(H.n for H in targets) > PRODUCT_MAX_VERTICES:
        return 0
    F = product_minimal(targets)
    assert sum(len(part["vertices"]) for part in parts) == payload["target"], (command, "size is not the target")
    colors = [1] * F.n
    index_parts = []
    for part in parts:
        indices = []
        for vertex, color in zip(part["vertices"], part["colors"], strict=True):
            index = 0
            for H, v in zip(targets, vertex, strict=True):
                index = index * H.n + v - 1
            colors[index] = color
            indices.append(index + 1)
        index_parts.append(indices)
    coloring = Coloring(tuple(colors), max(colors))
    assert is_colorful_balanced_complete(F, index_parts, coloring), (command, "not a colourful witness")
    return 1


def audit_row(label: str, recipe: str, r: int, row: dict, chi) -> tuple[int, int]:
    """(1 if cd and ecd were checked, 1 if the bounds were checked against an
    int chi); the bound names are those every bounds and compare row prints."""
    H = factor(recipe)
    defects = 0
    if H.n <= DEFECT_MAX_N:
        assert row["cd"] == cd_of(H, r), (label, recipe, "cd")
        assert row["ecd"] == ecd_of(H, r), (label, recipe, "ecd")
        defects = 1
    if type(chi) is not int:
        return defects, 0
    for name in ("cd_bound", "alt_bound", "ecd_bound"):
        assert row[name] <= chi, (label, recipe, f"{name} above chi")
    return defects, 1


def audit(golden: list[dict]) -> dict[str, int]:
    """How many colourings, defect rows, bounded rows and witnesses the
    audit checked; an AssertionError names the first entry that fails."""
    counts = {"colourings": 0, "defect_rows": 0, "bounded_rows": 0, "witnesses": 0}

    def row(*args) -> None:
        defects, bounded = audit_row(*args)
        counts["defect_rows"] += defects
        counts["bounded_rows"] += bounded

    for entry in golden:
        command, task = entry["command"], entry["command"].split()[0]
        for result in entry.get("results", []):  # a usage error has none
            payload = result["payload"]
            if result["status"] == "failed":
                continue
            if task == "chromatic":
                counts["colourings"] += audit_coloring(command, payload)
            elif task == "witness" and payload.get("status") == "FOUND":
                counts["witnesses"] += audit_witness(command, payload)
            elif task == "invariants":
                for f in payload["factors"]:
                    row(command, f["recipe"], payload["r"], f, None)
            elif task == "bounds":
                r, chi = payload["r"], payload["exact_chi"]
                for recipe, f in zip(payload["recipes"], payload["factors"]):
                    row(command, recipe, r, f, f["kg_chi"])
                if type(chi) is int:
                    for name in ("product_alt_bound", "product_ecd_bound"):
                        assert payload[name] <= chi, (command, f"{name} above chi")
            elif task == "compare":
                for f in payload["rows"]:
                    row(command, f["recipe"], f["r"], f, f["chi"])
    return counts


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_certificates_hold(golden):
    assert audit(golden) == {"colourings": 9, "defect_rows": 24, "bounded_rows": 14, "witnesses": 5}


def _first(golden: list[dict], task: str, key: str) -> dict:
    return next(
        result["payload"] for entry in golden if entry["command"].split()[0] == task
        for result in entry.get("results", []) if result["payload"].get(key)
    )


def test_a_flipped_colour_fails_the_audit(golden):
    # in the lex-least colouring, a vertex above colour 1 is there because
    # colour 1 completes an edge: recolouring it 1 makes the colouring improper
    broken = copy.deepcopy(golden)
    colors = _first(broken, "chromatic", "coloring")["coloring"]
    v = max(i for i, c in enumerate(colors) if c > 1)
    colors[v] = 1
    with pytest.raises(AssertionError, match="not proper"):
        audit(broken)


def test_a_cd_off_by_one_fails_the_audit(golden):
    broken = copy.deepcopy(golden)
    _first(broken, "invariants", "factors")["factors"][0]["cd"] += 1
    with pytest.raises(AssertionError, match="'cd'"):
        audit(broken)


def test_a_repeated_colour_in_a_part_fails_the_audit(golden):
    broken = copy.deepcopy(golden)
    part = next(
        part for part in _first(broken, "witness", "witness")["witness"]["parts"] if len(part["colors"]) > 1
    )
    part["colors"][1] = part["colors"][0]
    with pytest.raises(AssertionError, match="not a colourful witness"):
        audit(broken)
