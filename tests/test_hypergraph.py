"""Core model: canonical form, induced, the span table, and the properness
and colorful-balanced-complete oracles."""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from kneserlab import (
    CapExceededError,
    Coloring,
    Hypergraph,
    complete_uniform,
    hnka,
    kneser,
    load_hypergraph,
    store_hypergraph,
    t_hypergraph,
)
from kneserlab.hypergraph import T_ENUM_CAP, induced_mask, span_table
from conftest import (
    class_vertices,
    contains_edge_within,
    induced,
    is_colorful_balanced_complete,
    is_proper,
    min_element_coloring_petersen,
    random_hypergraph,
    random_pool,
)


@st.composite
def hypergraphs(draw, max_n: int = 6, max_edges: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.frozensets(st.integers(1, n), min_size=1, max_size=min(n, 3)),
            max_size=max_edges,
        )
    )
    return Hypergraph(n, set(edges))


class TestHypergraphModel:
    def test_canonical_edge_order(self):
        H = Hypergraph(4, [(3, 4), (1, 2, 3), (1, 2)])
        assert H.edges == ((1, 2), (3, 4), (1, 2, 3))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [()])
        with pytest.raises(ValueError):
            Hypergraph(3, [(4,)])
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 2), (2, 1)])

    def test_immutable(self):
        H = Hypergraph(2, [(1, 2)])
        with pytest.raises(AttributeError):
            H.n = 5


class TestSpanTable:
    """span_table against its oracle, contains_edge_within, on every mask."""

    @staticmethod
    def assert_matches(H: Hypergraph) -> None:
        spans = span_table(H)
        assert len(spans) == 1 << H.n
        assert [spans[m] for m in range(1 << H.n)] == [
            int(contains_edge_within(H, m)) for m in range(1 << H.n)
        ], H

    def test_random_hypergraphs(self):
        rng = random.Random(12)
        for _ in range(200):
            self.assert_matches(random_hypergraph(rng, max_n=12, max_edges=8))

    def test_no_vertices(self):
        self.assert_matches(Hypergraph(0))
        assert span_table(Hypergraph(0)) == b"\x00"

    def test_singleton_edges(self):
        H = Hypergraph(5, [(2,), (4,), (1, 3)])
        self.assert_matches(H)
        assert span_table(H)[0b00010] == 1 and span_table(H)[0b00101] == 1
        assert span_table(H)[0b10001] == 0

    def test_upward_closed(self):
        self.assert_matches(t_hypergraph(complete_uniform(11, 2), 1, 2))

    def test_at_the_cap(self):
        rng = random.Random(16)
        edges = {frozenset(rng.sample(range(1, 17), rng.randint(2, 6))) for _ in range(12)}
        self.assert_matches(Hypergraph(T_ENUM_CAP, edges))
        with pytest.raises(CapExceededError):
            span_table(complete_uniform(T_ENUM_CAP + 1, 2))


class TestInduced:
    def test_complete_pair_within(self):
        H = complete_uniform(5, 2)
        sub = induced(H, {1, 2})
        assert sub == Hypergraph(2, [(1, 2)])

    def test_single_vertex(self):
        H = complete_uniform(5, 2)
        assert induced(H, {1}) == Hypergraph(1, [])

    def test_hnka_excluded_prefix(self):
        # every edge of H(7,2,3) leaves [3], so the induced hypergraph on
        # {1,2,3} has no edges; confirm by re-deriving from the edge list
        H = hnka(7, 2, 3)
        expected = [e for e in H.edges if set(e) <= {1, 2, 3}]
        assert expected == []
        assert induced(H, {1, 2, 3}) == Hypergraph(3, [])

    def test_induced_mask_matches_oracle(self):
        # every vertex subset of the small pool members, against the
        # checking constructor: same fields, order, masks and hash
        for H in random_pool(40, max_n=6):
            for amask in range(1 << H.n):
                A = [v for v in range(1, H.n + 1) if amask >> (v - 1) & 1]
                got, want = induced_mask(H, amask), induced(H, A)
                assert (got.n, got.edges, got.edge_masks) == (want.n, want.edges, want.edge_masks)
                assert hash(got) == hash(want) and got == want

    def test_full_induced_is_identity(self):
        H = complete_uniform(4, 2)
        assert induced(H, range(1, 5)) == H

    @given(hypergraphs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_nested_induced_is_intersection(self, H, data):
        A = data.draw(st.frozensets(st.integers(1, H.n)))
        inner = induced(H, A)
        B = data.draw(st.frozensets(st.integers(1, max(inner.n, 1))))
        B = {b for b in B if b <= inner.n}
        translated = {sorted(A)[b - 1] for b in B}
        assert induced(inner, B) == induced(H, translated)


class TestIsProper:
    def test_petersen_min_element_coloring(self):
        # classical 3-coloring: classes share their minimum element (colors
        # 1,2) or live inside {3,4,5} (color 3), hence pairwise intersect
        P = kneser(complete_uniform(5, 2), 2)
        coloring = min_element_coloring_petersen()
        ground = complete_uniform(5, 2)
        for color in (1, 2, 3):
            members = [
                set(ground.edges[v - 1])
                for v in range(1, 11)
                if coloring.color_of(v) == color
            ]
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert a & b, "classes must be pairwise intersecting"
        assert is_proper(P, coloring)

    def test_singleton_edge_never_proper(self):
        H = Hypergraph(3, [(2,)])
        assert not is_proper(H, Coloring((1, 2, 3), 3))

    def test_two_colors_on_edge(self):
        H = Hypergraph(3, [(1, 2, 3)])
        assert is_proper(H, Coloring((1, 1, 2), 2))

    def test_partial_coloring_rejected(self):
        H = complete_uniform(3, 2)
        with pytest.raises(ValueError):
            is_proper(H, Coloring((1, 2), 2))

    @given(hypergraphs(max_n=5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_under_edge_removal(self, H, data):
        colors = data.draw(
            st.lists(st.integers(1, 3), min_size=H.n, max_size=H.n)
        )
        c = Coloring(tuple(colors), 3)
        if is_proper(H, c):
            keep = data.draw(st.frozensets(st.integers(0, max(H.edge_count - 1, 0))))
            sub = Hypergraph(H.n, [e for i, e in enumerate(H.edges) if i in keep])
            assert is_proper(sub, c)


class TestColorfulBalancedComplete:
    def test_petersen_bipartite_witness(self):
        # v({2,3}) with {v({1,4}), v({1,5})}: all cross pairs disjoint
        ground = complete_uniform(5, 2)
        P = kneser(ground, 2)
        idx = {e: i + 1 for i, e in enumerate(ground.edges)}
        parts = [[idx[(2, 3)]], [idx[(1, 4)], idx[(1, 5)]]]
        colors = [2] * 10
        colors[idx[(2, 3)] - 1] = 1
        colors[idx[(1, 5)] - 1] = 3
        assert is_colorful_balanced_complete(P, parts, Coloring(tuple(colors), 3))

    def test_unbalanced_fails(self):
        F = complete_uniform(4, 2)
        c = Coloring((1, 2, 3, 4), 4)
        assert not is_colorful_balanced_complete(F, [[1, 2, 3], [4]], c)

    def test_repeated_color_in_part_fails(self):
        F = complete_uniform(4, 2)
        c = Coloring((1, 1, 2, 3), 3)
        assert not is_colorful_balanced_complete(F, [[1, 2], [3, 4]], c)

    def test_missing_edge_fails_completeness(self):
        F = Hypergraph(4, [(1, 3), (1, 4), (2, 3)])
        c = Coloring((1, 2, 3, 4), 4)
        assert not is_colorful_balanced_complete(F, [[1, 2], [3, 4]], c)

    def test_empty_part_rejected(self):
        F = complete_uniform(3, 2)
        with pytest.raises(ValueError):
            is_colorful_balanced_complete(F, [[1], []], Coloring((1, 2, 3), 3))


class TestColoringModel:
    def test_color_range_validated(self):
        with pytest.raises(ValueError):
            Coloring((1, 4), 3)
        with pytest.raises(ValueError):
            Coloring((0, 1), 2)

    def test_of_infers_color_count(self):
        c = Coloring((2, 1, 2), 2)
        assert c.color_count == 2
        assert class_vertices(c, 2) == (1, 3)

    def test_chromatic_value_kinds(self):
        from kneserlab import ChromaticValue

        assert ChromaticValue.finite(3).to_json() == 3
        assert ChromaticValue.infinite().to_json() == "INFINITE"
        assert ChromaticValue.exceeds(6).to_json() == "EXCEEDS(6)"
        with pytest.raises(ValueError):
            ChromaticValue.finite(0)

    def test_chromatic_value_json_round_trip(self):
        # each kind's JSON form is distinct and survives a JSON round trip
        from kneserlab import ChromaticValue

        values = (
            ChromaticValue.finite(4),
            ChromaticValue.infinite(),
            ChromaticValue.exceeds(0),
            ChromaticValue.exceeds(12),
        )
        forms = [value.to_json() for value in values]
        assert forms == [4, "INFINITE", "EXCEEDS(0)", "EXCEEDS(12)"]
        assert [type(form) for form in forms] == [int, str, str, str]
        assert json.loads(json.dumps(forms)) == forms


class TestJson:
    def test_round_trip_byte_stable(self):
        H = kneser(complete_uniform(5, 2), 2)
        text = store_hypergraph(H)
        again = store_hypergraph(load_hypergraph(text))
        assert text == again
        assert load_hypergraph(text) == H

    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_everything(self, H):
        assert load_hypergraph(store_hypergraph(H)) == H

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"n": true, "edges": [[1]]}', "expected an integer, got True"),
            ('{"n": 2, "edges": [[true, 2]]}', "expected an integer, got True"),
            ('{"colors": [1, true], "color_count": 2}', "expected an integer, got True"),
            ('{"colors": [1, 1], "color_count": true}', "expected an integer, got True"),
            ('{"n": 2, "edges": 5}', "expected a list, got 5"),
            ('{"n": 2, "edges": [5]}', "expected a list, got 5"),
            ('[{"n": 2, "edges": []}]', "expected an object, got [{'n': 2, 'edges': []}]"),
            ('{"colors": 5, "color_count": 2}', "expected a list, got 5"),
            ('[{"colors": [1], "color_count": 1}]', "expected an object, got [{'colors': [1], 'color_count': 1}]"),
        ],
        ids=["n", "vertex", "color", "color_count", "edges", "edge", "graph_list", "colors", "coloring_list"],
    )
    def test_json_booleans_are_not_integers(self, text, message):
        # json loads true as True, which isinstance(True, int) accepts; a
        # document of the wrong shape is refused the same way
        from kneserlab import load_coloring

        load = load_coloring if "colors" in text else load_hypergraph
        with pytest.raises(ValueError, match=re.escape(message)):
            load(text)

    @pytest.mark.parametrize(
        ("loader", "text", "key"),
        [
            ("load_hypergraph", '{"edges": []}', "n"),
            ("load_hypergraph", '{"n": 2}', "edges"),
            ("load_coloring", '{"color_count": 3}', "colors"),
            ("load_coloring", '{"colors": [1]}', "color_count"),
        ],
        ids=["n", "edges", "colors", "color_count"],
    )
    def test_missing_key_is_named(self, loader, text, key):
        import kneserlab

        with pytest.raises(ValueError, match=re.escape(f"missing key {key!r}")):
            getattr(kneserlab, loader)(text)

    def test_coloring_round_trip(self):
        from kneserlab import load_coloring, store_coloring

        c = Coloring((1, 3, 2, 3), 3)
        text = store_coloring(c)
        assert load_coloring(text) == c
        assert store_coloring(load_coloring(text)) == text
