"""Every guard on an input refuses it with its own exception type and a
message that says what is wrong: one case per guard that no other test
reaches in process."""

from __future__ import annotations

import pytest

from kneserlab import (
    CapExceededError,
    Coloring,
    Hypergraph,
    bound_report,
    check_lemma1,
    complete_uniform,
    cycle,
    extract_witness,
    formula_hnka,
    formula_kneser,
    hnka,
    sigma2_scan,
    solve_product_chromatic,
    star,
    t_hypergraph,
)
from kneserlab.hypergraph import MAX_VERTICES
from kneserlab.invariants import _alt_min, _cd, _ecd

K42 = complete_uniform(4, 2)


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: Hypergraph(-1), ValueError, "nonnegative int, got -1"),
        (lambda: Hypergraph(2.0), ValueError, "nonnegative int, got 2.0"),
        (lambda: Hypergraph(MAX_VERTICES + 1), CapExceededError, f"exceeds cap {MAX_VERTICES}"),
        (lambda: solve_product_chromatic([]), ValueError, "at least one factor"),
        (lambda: bound_report([K42], 1), ValueError, "need r >= 2"),
        (lambda: formula_kneser(7, 2, 1), ValueError, "need r >= 2"),
        (lambda: formula_kneser(7, 0, 2), ValueError, "need k >= 1"),
        (lambda: formula_hnka(7, 2, 3, 1), ValueError, "need r >= 2"),
        (lambda: formula_hnka(5, 2, 3, 3), ValueError, "need n >= 6"),
        (lambda: formula_hnka(7, 2, -1, 2), ValueError, "need a >= 0"),
        (lambda: formula_hnka(7, 2, 7, 2), ValueError, "need 0 <= a < n"),
        (lambda: complete_uniform(5, 0), ValueError, "edge size must be >= 1"),
        (lambda: hnka(5, 0, 2), ValueError, "k >= 1"),
        (lambda: hnka(5, 2, -1), ValueError, "a >= 0"),
        (lambda: star(1), ValueError, "at least 2 vertices"),
        (lambda: cycle(2), ValueError, "at least 3 vertices"),
        (lambda: t_hypergraph(K42, 1, 1), ValueError, "modulus s >= 2"),
        (lambda: t_hypergraph(K42, -1, 2), ValueError, "budget C >= 0"),
        (lambda: _cd(K42, 0), ValueError, "r must be >= 1"),
        (lambda: _ecd(K42, 0), ValueError, "r must be >= 1"),
        (lambda: _alt_min(K42, 0), ValueError, "r must be >= 1"),
        (lambda: _alt_min(K42, 2, "fast"), ValueError, "unknown mode 'fast'"),
        (
            lambda: extract_witness([complete_uniform(2, 1)], 2, (1, 2), Coloring((1, 1), 1), -1),
            ValueError,
            "witness size must be nonnegative",
        ),
        (lambda: check_lemma1([complete_uniform(10, 2)], 2), CapExceededError, "beyond the cap"),
        (lambda: sigma2_scan([K42], 2, Coloring((1,), 1)), ValueError, "not total on the product"),
    ],
)
def test_input_refused(build, error, fragment):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and fragment in str(info.value)
