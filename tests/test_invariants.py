"""Defect and alternation invariants against their naive oracles."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kneserlab import (
    Hypergraph,
    Permutation,
    alt_min,
    cd,
    ecd,
    complete_uniform,
    cycle,
    hnka,
    star,
)
from kneserlab import invariants
from kneserlab.hypergraph import T_ENUM_CAP, span_table
from conftest import (
    alt_min_lex_naive,
    alt_min_naive,
    alt_min_plain,
    alt_naive,
    alt_sigma,
    alt_sigma_naive,
    cd_naive,
    class_mask,
    contains_edge_within,
    ecd_naive,
    random_hypergraph,
    random_pool,
    twins_naive,
)


STAR4 = star(4)  # ([4], {{1,4},{2,4},{3,4}})


@st.composite
def sign_vectors(draw, max_modulus: int = 3, max_len: int = 6):
    """A modulus m and the entries, each in 0..m, of a sign vector."""
    m = draw(st.integers(1, max_modulus))
    entries = draw(st.lists(st.integers(0, m), max_size=max_len))
    return m, tuple(entries)


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
        assert alt_naive((1, 0, 2, 2, 1)) == 3

    def test_zero_vector(self):
        assert alt_naive((0, 0, 0)) == 0

    def test_constant_vector(self):
        assert alt_naive((1, 1, 1)) == 1

    @given(sign_vectors())
    @settings(max_examples=100, deadline=None)
    def test_sign_class_views_consistent(self, vector):
        m, X = vector
        sizes = [class_mask(X, s).bit_count() for s in range(1, m + 1)]
        assert sum(sizes) == len(X) - X.count(0)
        h = min(sizes)
        assert invariants.balanced_size(sizes) == m * h + sum(1 for s in sizes if s > h)


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


class TestEdgeIndexCap:
    """The node test reads the span table up to T_ENUM_CAP vertices and
    scans the edges through each vertex above it; both sides of the cap
    give the closed forms of the complete graph K_n (classes of at most
    one vertex): cd = ecd = n - r and alternation r."""

    @pytest.mark.parametrize("n", [16, 17])
    def test_closed_forms_either_side(self, n):
        H = complete_uniform(n, 2)
        spans, edges_at = invariants._edge_index(H)
        assert (spans is not None) == (n <= T_ENUM_CAP) == (edges_at is None)
        for r in (2, 3):
            assert cd(H, r) == ecd(H, r) == n - r
            res = alt_min(H, r, "heuristic")
            assert (res.value, res.exact) == (r, False)
            assert alt_sigma(H, r, res.sigma) == r


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
        ident = Permutation(tuple(range(1, 6)))
        assert alt_sigma(H, 2, ident) == alt_sigma_naive(H, 2, ident) == 2

    def test_star_identity(self):
        ident = Permutation(tuple(range(1, 5)))
        assert alt_sigma(STAR4, 2, ident) == alt_sigma_naive(STAR4, 2, ident) == 3

    def test_edgeless_full_alternation(self):
        H = Hypergraph(5, [])
        for r in (2, 3):
            assert alt_sigma(H, r, Permutation(tuple(range(1, 6)))) == 5

    def test_relabeling_consistency(self):
        # applying sigma as a vertex relabeling and then using the identity
        # ordering gives the same value
        H = Hypergraph(5, [(1, 2), (2, 3, 4), (4, 5)])
        sigma = Permutation((3, 1, 5, 2, 4))
        inv = {v: i + 1 for i, v in enumerate(sigma.sigma)}
        relabeled = Hypergraph(5, [tuple(inv[v] for v in e) for e in H.edges])
        assert alt_sigma(H, 2, sigma) == alt_sigma(relabeled, 2, Permutation(tuple(range(1, 6))))

    @given(small_hypergraphs(max_n=4, max_edges=4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
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
        # alt = n with the identity certificate, below (n > r) and at the floor
        for n, r in ((4, 3), (5, 2), (3, 3), (2, 4)):
            res = alt_min(Hypergraph(n, []), r)
            assert (res.value, res.sigma.sigma) == (n, tuple(range(1, n + 1)))

    def test_exact_mode_cap(self):
        with pytest.raises(ValueError):
            alt_min(complete_uniform(10, 2), 2, "exact")

    def test_heuristic_upper_bound(self):
        H = complete_uniform(6, 2)
        exact = alt_min(H, 2, "exact")
        heur = alt_min(H, 2, "heuristic")
        assert not heur.exact
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


def _low_symmetry(rng: random.Random, n: int, sizes) -> Hypergraph:
    """Distinct edges of the given sizes, redrawn until every vertex has its
    own multiset of incident edge sizes (a trivial automorphism group)."""
    while True:
        edges = {frozenset(rng.sample(range(1, n + 1), k)) for k in sizes}
        sig = {tuple(sorted(len(e) for e in edges if v in e)) for v in range(1, n + 1)}
        if len(edges) == len(sizes) and len(sig) == n:
            return Hypergraph(n, edges)


def _star_plus(n: int) -> Hypergraph:
    """star(n) with the extra edge {1, 2}: twin classes {1, 2}, {3..n-1}
    and {n} for n >= 4."""
    return Hypergraph(n, [(i, n) for i in range(1, n)] + [(1, 2)] * (n >= 3))


# two twin-free 9-vertex inputs, _low_symmetry(random.Random(seed), 9, sizes)
# for seeds 1 and 2 with sizes (2, 2, 2, 3, 3, 3, 4, 4, 4) and
# (2, 2, 3, 3, 3, 4, 4, 4, 5)
_LOW9 = (
    Hypergraph(9, [
        (1, 2, 3, 4), (1, 3, 6, 8), (1, 4, 7), (1, 5, 6, 9), (2, 3), (2, 4, 9), (2, 5), (7, 8, 9), (8, 9),
    ]),
    Hypergraph(9, [
        (1, 2), (1, 4, 5), (1, 5, 7, 9), (2, 3, 5, 6, 7), (2, 6), (3, 4, 6, 8), (3, 5, 9), (3, 6, 7), (4, 5, 6, 7),
    ]),
)


def _has_earlier_image(order: tuple[int, ...], twins) -> bool:
    """Whether the reverse of ``order``, or its image under the swap of
    one pair of ``twins``, comes before it in lex order."""
    if order[::-1] < order:
        return True
    for u, v in twins:
        swap = {u: v, v: u}
        if tuple(swap.get(x, x) for x in order) < order:
            return True
    return False


def _spy_on_walk(monkeypatch) -> tuple[list[tuple[tuple[int, ...], int]], list[int]]:
    """Record (ordering, depth) per `_next_block` call, i.e. every ordering
    the walk visits with the depth of the block it leaves (n: that ordering
    alone), whether a search or a kept vector settled it; count the
    `_alt_search` calls in a one-element list."""
    steps: list[tuple[tuple[int, ...], int]] = []
    searches = [0]
    real_step, real_search = invariants._next_block, invariants._alt_search

    def step(order, depth):
        steps.append((tuple(order), depth))
        return real_step(order, depth)

    def search(*args, **kwargs):
        searches[0] += 1
        return real_search(*args, **kwargs)

    monkeypatch.setattr(invariants, "_next_block", step)
    monkeypatch.setattr(invariants, "_alt_search", search)
    return steps, searches


class TestAltMinWalk:
    """The ordering walk of exact alt_min: prefix skips and the floor stop
    keep the value and the lex-least optimal certificate."""

    def test_certificate_is_lex_least_optimal(self):
        rng = random.Random(11)
        for _ in range(8):
            H = random_hypergraph(rng, max_n=5, max_edges=6)
            for r in (1, 2, 3, 4):
                res = alt_min(H, r)
                assert (res.value, res.sigma.sigma) == alt_min_lex_naive(H, r), (H, r)

    def test_matches_plain_loop(self):
        rng = random.Random(5)
        cases = [
            (_low_symmetry(rng, n, sizes), r)
            for n, sizes in (
                (6, (1, 2, 2, 3, 3, 4)),
                (6, (2, 2, 2, 3, 3, 4)),
                (7, (1, 2, 3, 3, 3, 4, 4)),
            )
            for r in (2, 3)
        ]
        cases += [(star(7), 3), (cycle(7), 2), (hnka(7, 2, 3), 3)]
        # the incumbent falls after the walk has kept vectors (8 -> 7 -> 6
        # and 8 -> ... -> 4), and kept vectors reach it deeper than the
        # search's own 4-vertex vector would
        cases += [(cycle(8), 3), (cycle(8), 2), (complete_uniform(8, 3), 2)]
        # twins: whole classes, and a star with one extra edge, whose twin
        # classes {1, 2}, {3..6} and {7} leave some vertices without a twin
        cases += [(star(8), 3), (hnka(8, 2, 3), 3), (complete_uniform(6, 3), 2), (_star_plus(7), 3)]
        for H, r in cases:
            res = alt_min(H, r)
            assert (res.value, res.sigma.sigma) == alt_min_plain(H, r), (H, r)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_skips_exactly_the_witness_prefix_blocks(self, monkeypatch, seed):
        H = _low_symmetry(random.Random(seed), 6, (2, 2, 2, 3, 3, 4))
        steps, searches = _spy_on_walk(monkeypatch)
        res = alt_min.__wrapped__(H, 2)
        monkeypatch.undo()
        assert res.value > 2  # above the floor: the walk covers all 6! orderings
        twins = twins_naive(H)
        values = {q: alt_sigma(H, 2, Permutation(q)) for q in itertools.permutations(range(1, 7))}
        # each block is sound. A symmetry block holds only orderings with a
        # lex-earlier reverse or twin-swapped image; any other block is a
        # witness block: each of its orderings reaches the incumbent, the
        # least alternation over the orderings visited so far. Some witness
        # blocks are shorter than any prefix that alone carries a vector
        # reaching the incumbent: a kept vector settles them from the runs
        # it still owes after the prefix
        incumbent = H.n
        kinds = {"symmetry": 0, "witness": 0, "below_prefix": 0}
        for order, depth in steps:
            incumbent = min(incumbent, values[order])
            block = [order[:depth] + tail for tail in itertools.permutations(order[depth:])]
            if all(_has_earlier_image(q, twins) for q in block):
                kinds["symmetry"] += 1
                continue
            kinds["witness"] += 1
            assert all(values[q] >= incumbent for q in block), (order, depth)
            pos = {v: j + 1 for j, v in enumerate(order[:depth])}
            prefix = Hypergraph(
                depth, [[pos[v] for v in e] for e in H.edges if set(e) <= pos.keys()]
            )
            kinds["below_prefix"] += alt_sigma(prefix, 2, Permutation(tuple(range(1, depth + 1)))) < incumbent
        assert kinds["symmetry"] > 0 and kinds["witness"] > kinds["below_prefix"] > 0, kinds
        # the walk leaves out exactly the orderings that share order[:depth]
        # with an earlier visited ordering
        visited = {order: i for i, (order, _) in enumerate(steps)}
        assert len(visited) == len(steps)
        skipped = 0
        for perm in itertools.permutations(range(1, 7)):
            limit = visited.get(perm, len(steps))
            in_block = any(perm[:depth] == order[:depth] for order, depth in steps[:limit])
            assert in_block != (perm in visited), perm
            skipped += in_block
        assert skipped > 0
        # kept vectors settle some visited orderings without a search: every
        # ordering outside a symmetry block is searched or settled by one
        assert searches[0] < kinds["witness"]

    def test_symmetric_prefix_matches_its_definition(self):
        # depth is the shortest prefix whose block holds only orderings with
        # a lex-earlier reverse or twin-swapped image, 0 if there is none;
        # so it is 0 exactly when the ordering itself has no such image
        for n in range(1, 7):
            grounds = [Hypergraph(n), _star_plus(n)]
            grounds += [_low_symmetry(random.Random(n), n, range(1, n + 1))]
            grounds += [star(n)] if n >= 2 else []
            grounds += [cycle(n)] if n >= 3 else []
            for H in grounds:
                twins = twins_naive(H)
                below = invariants._twins_below(H)
                perms = list(itertools.permutations(range(1, n + 1)))
                # the prefixes of a permutation without an earlier image
                open_prefixes = {
                    p[:d] for p in perms if not _has_earlier_image(p, twins) for d in range(n + 1)
                }
                for perm in perms:
                    want = next((d for d in range(1, n + 1) if perm[:d] not in open_prefixes), 0)
                    assert invariants._symmetric_prefix(list(perm), below) == want, (H, perm)

    def test_twins_match_naive(self):
        grounds = random_pool(40)
        grounds += [star(n) for n in (2, 5, 9)] + [cycle(n) for n in (3, 4, 7)]
        grounds += [complete_uniform(6, 2), complete_uniform(7, 3), hnka(7, 2, 3), hnka(8, 2, 3)]
        grounds += [Hypergraph(0), Hypergraph(1), Hypergraph(1, [(1,)]), Hypergraph(5)]
        grounds += [Hypergraph(4, [(2,)]), Hypergraph(4, [(1,), (3,)]), _star_plus(7)]
        for H in grounds:
            want = {}
            for u, v in twins_naive(H):
                want[v] = want.get(v, 0) | 1 << (u - 1)
            assert invariants._twins_below(H) == want, H

    @pytest.mark.parametrize(
        "H, r, value, sigma",
        [
            (cycle(9), 2, 5, (1, 3, 5, 2, 4, 7, 9, 6, 8)),
            (cycle(9), 3, 7, (1, 3, 5, 2, 4, 7, 9, 6, 8)),
            (_LOW9[0], 2, 6, (1, 2, 6, 4, 8, 3, 9, 5, 7)),
            (_LOW9[1], 2, 6, (3, 1, 6, 4, 2, 7, 5, 8, 9)),
        ],
    )
    def test_certificates_at_nine_vertices(self, H, r, value, sigma):
        # past alt_min_plain's reach, so pinned: twin-free inputs, where only
        # reversal and the kept vectors cut the walk
        assert invariants._twins_below(H) == {}
        res = invariants._alt_min(H, r)
        assert (res.value, res.sigma.sigma) == (value, sigma)

    @pytest.mark.parametrize(
        "H, r, value, limit", [(star(9), 3, 9, 1000), (complete_uniform(8, 3), 2, 4, 100)]
    )
    def test_symmetric_inputs_walk_few_orderings(self, monkeypatch, H, r, value, limit):
        # without the reversal and twin rules the walk visits all 9!
        # orderings of star(9) and 34,969 of complete_uniform(8, 3)
        steps, _ = _spy_on_walk(monkeypatch)
        res = alt_min.__wrapped__(H, r)
        assert (res.value, res.sigma.sigma) == (value, tuple(range(1, H.n + 1)))
        assert len(steps) < limit

    def test_block_step_matches_its_definition(self):
        # the first lex-later ordering whose first `depth` entries differ
        for n in range(6):
            perms = list(itertools.permutations(range(1, n + 1)))
            for i, perm in enumerate(perms):
                for depth in range(n + 1):
                    later = [q for q in perms[i + 1 :] if q[:depth] != perm[:depth]]
                    order = list(perm)
                    assert invariants._next_block(order, depth) == bool(later), (perm, depth)
                    if later:
                        assert tuple(order) == later[0], (perm, depth)

    def test_reach_matches_its_definition(self):
        # 0 exactly when no kept vector has `best` runs along the order;
        # otherwise the front vector has `best` runs along every ordering of
        # the block of order[:depth]
        rng = random.Random(31)
        settled = 0
        for _ in range(600):
            n, m = rng.randint(2, 6), rng.randint(1, 3)
            kept = [[0] + [rng.randint(0, m) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            order, best = rng.sample(range(1, n + 1), n), rng.randint(2, n)
            before = list(kept)
            depth = invariants._reach(kept, order, best)
            assert sorted(kept) == sorted(before)
            if not any(alt_naive([signs[v] for v in order]) >= best for signs in before):
                assert depth == 0, (kept, order, best)
                continue
            settled += 1
            assert 1 <= depth <= n, (kept, order, best)
            for tail in itertools.permutations(order[depth:]):
                assert alt_naive([kept[0][v] for v in order[:depth] + list(tail)]) >= best
        assert settled > 100

    def test_reach_window_needs_distinct_signs(self):
        # along 1..5 the vector (1, 2, 1, 0, 0) starts run 3 at position 3;
        # runs 1 and 3 share a sign, so the block is that of order[:2]:
        # order[:1] would hold (1, 3, 2, 4, 5), which has 2 runs
        order = [1, 2, 3, 4, 5]
        assert invariants._reach([[0, 1, 2, 1, 0, 0]], order, 3) == 2
        assert alt_naive([1, 1, 2, 0, 0]) == 2
        # with three distinct signs the window reaches back to run 1
        assert invariants._reach([[0, 1, 2, 3, 0, 0]], order, 3) == 1
        # at best = 2 the window is run 1
        assert invariants._reach([[0, 0, 1, 1, 2, 0]], order, 2) == 2
        # a vector that falls short settles nothing
        assert invariants._reach([[0, 1, 1, 2, 2, 0]], order, 3) == 0

    def test_maximal_vectors_match_their_definition(self):
        # the kept vector extends the found one, every class spans no edge,
        # and no unsigned vertex can join any class
        rng = random.Random(32)
        grown = 0
        for H in random_pool(60, max_n=7):
            n = H.n
            for m in (1, 2, 3):
                entries = [rng.randint(0, m) for _ in range(n)]
                for v in range(n):
                    if entries[v] and contains_edge_within(H, class_mask(entries, entries[v])):
                        entries[v] = 0
                classes = [class_mask(entries, s) for s in range(1, m + 1)]
                signs = invariants._maximal(classes, span_table(H), n)
                assert len(signs) == n + 1 and signs[0] == 0
                assert all(x == y for x, y in zip(entries, signs[1:]) if x), (H, entries, signs)
                grown += signs[1:] != entries
                for s in range(1, m + 1):
                    assert not contains_edge_within(H, class_mask(signs[1:], s)), (H, signs)
                for v in range(1, n + 1):
                    if not signs[v]:
                        for s in range(1, m + 1):
                            assert contains_edge_within(H, class_mask(signs[1:], s) | 1 << (v - 1))
        assert grown > 0

    def test_r_one(self):
        for H, value in ((Hypergraph(3, [(1, 2)]), 1), (Hypergraph(3, [(1,), (2,), (3,)]), 0)):
            res = alt_min(H, 1)
            assert (res.value, res.sigma.sigma) == alt_min_lex_naive(H, 1) == (value, (1, 2, 3))

    def test_all_vertices_in_singleton_edges(self):
        H = Hypergraph(4, [(1,), (2,), (3,), (4,), (1, 2)])
        res = alt_min(H, 3)
        assert (res.value, res.sigma.sigma) == (0, (1, 2, 3, 4))

    def test_fewer_free_vertices_than_signs(self):
        for H, r in (
            (Hypergraph(4, [(1,), (2,), (3,)]), 3),
            (Hypergraph(4, [(1,), (2, 3), (3, 4)]), 4),
        ):
            res = alt_min(H, r)
            assert (res.value, res.sigma.sigma) == alt_min_lex_naive(H, r)

    def test_floor_reached_after_the_first_ordering(self):
        # the identity ordering gives floor + 1; a later one meets the floor
        for H, r in (
            (Hypergraph(3, [(1, 2)]), 2),
            (Hypergraph(4, [(3,), (1, 3), (2, 3), (2, 4), (1, 3, 4)]), 2),
        ):
            res = alt_min(H, r)
            assert alt_sigma(H, r, Permutation(tuple(range(1, H.n + 1)))) == r + 1
            assert res.value == r
            assert (res.value, res.sigma.sigma) == alt_min_lex_naive(H, r)

    def test_complete_graph_stops_at_floor(self, monkeypatch):
        steps, searches = _spy_on_walk(monkeypatch)
        start = time.perf_counter()
        res = alt_min.__wrapped__(complete_uniform(9, 2), 3, "exact")
        assert time.perf_counter() - start < 1.0
        assert (res.value, res.sigma.sigma) == (3, tuple(range(1, 10)))
        assert (len(steps), searches[0]) == (0, 1)


class TestOrderings:
    @given(small_hypergraphs(), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_alt_side_dominates_cd(self, H, r):
        assert H.n - alt_min(H, r).value >= cd(H, r)
