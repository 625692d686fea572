import itertools
import random

import pytest

import oracles
from orispec import explore, polynomials
from orispec.errors import GuardLimit
from orispec.explore import (
    ConjectureReport,
    _radius,
    automorphisms,
    canonical_form,
    conjecture_report,
    explore_record,
    explore_records,
    generate_corpus,
    guo_mohar_sweep,
    min_rho_all_mixed,
    min_rho_complete,
    min_rho_partial,
)
from orispec.graphs import (
    Graph,
    MixedGraph,
    SignVector,
    bfs_spanning_tree,
    build_mixed,
    cotree_edges,
    encode_graph6,
    enumerate_spanning_trees,
    converse_halves,
    norm_edge,
    parse_graph6,
    sign_vectors,
    spanning_tree_masks,
)
from orispec.hermitian import GainTable, charpoly_of_mixed, hermitian_adjacency, spectral_radius, spectral_radius_of_charpoly
from orispec.polynomials import AlgebraicRoot, IntPoly, Order, compare_roots, isolate_largest_root


def brute_min_rho_complete(g):
    """Unreduced oracle: direct every edge independently, 2^|E| cases."""
    edges = g.edge_list
    best = None
    seen = set()
    for dirs in itertools.product((0, 1), repeat=len(edges)):
        states = {e: (e if b == 0 else (e[1], e[0])) for e, b in zip(edges, dirs)}
        d = MixedGraph.of(g, states)
        rho = spectral_radius(hermitian_adjacency(d))
        key = rho.poly.coeffs
        if key in seen:
            continue
        seen.add(key)
        if best is None or compare_roots(rho, best) is Order.LT:
            best = rho
    return best


def relabel(g, perm):
    return Graph.of(g.n, [(perm[u], perm[v]) for (u, v) in g.edges])


def complete_graph(n):
    return Graph.of(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def small_n6(corpus6):
    """The n = 6 corpus graphs whose unreduced partial search lists at most
    2,000 (tree, sign vector) charpolys."""
    small = [
        g for g in corpus6
        if g.n == 6 and len(enumerate_spanning_trees(g)) << (len(g.edges) - 5) <= 2000
    ]
    assert len(small) == 80
    return small


@pytest.fixture
def isolated(monkeypatch):
    """The charpoly of every spectral radius explore isolates, in call order."""
    calls = []
    original = explore.spectral_radius_of_charpoly

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(explore, "spectral_radius_of_charpoly", counting)
    return calls


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, corpus6):
        rng = random.Random(67)
        for g in corpus6:
            key, _canon = canonical_form(g)
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                key2, _ = canonical_form(relabel(g, perm))
                assert key2 == key

    def test_canonical_graph_has_the_key(self, corpus5):
        for g in corpus5:
            key, canon = canonical_form(g)
            assert canonical_form(canon) == (key, canon)

    def test_distinguishes_nonisomorphic(self):
        path = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph.of(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(path)[0] != canonical_form(star)[0]

    def test_matches_networkx_isomorphism(self, corpus5):
        nx = pytest.importorskip("networkx")
        rng = random.Random(71)
        for _ in range(30):
            g1, g2 = rng.choice(corpus5), rng.choice(corpus5)
            if g1.n != g2.n:
                continue
            h1 = nx.Graph(list(g1.edges))
            h1.add_nodes_from(range(g1.n))
            h2 = nx.Graph(list(g2.edges))
            h2.add_nodes_from(range(g2.n))
            same = canonical_form(g1)[0] == canonical_form(g2)[0]
            assert same == nx.is_isomorphic(h1, h2)


class TestAutomorphisms:
    def test_preserve_edges_identity_first(self, corpus5):
        for g in corpus5:
            auts = automorphisms(g)
            assert auts[0] == tuple(range(g.n))
            assert len(set(auts)) == len(auts)
            for p in auts:
                assert relabel(g, p) == g

    def test_count_matches_networkx(self, corpus5):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        for g in corpus5:
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.n))
            expected = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert len(automorphisms(g)) == expected


class TestCorpus:
    def test_counts(self, corpus7):
        by_n = {}
        for g in corpus7:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

    def test_all_connected_and_canonical(self, corpus5):
        for g in corpus5:
            g.require_connected()
            assert canonical_form(g)[1] == g

    def test_no_duplicates(self, corpus6):
        keys = [canonical_form(g)[0] for g in corpus6]
        assert len(keys) == len(set(keys))

    def test_deterministic_order(self):
        assert [encode_graph6(g) for g in generate_corpus(4)] == [
            encode_graph6(g) for g in generate_corpus(4)
        ]

    def test_guard(self):
        with pytest.raises(GuardLimit):
            generate_corpus(8)


class TestMinRhoComplete:
    def test_c4_is_sqrt2(self, c4):
        root, witness = min_rho_complete(c4)
        assert compare_roots(root, isolate_largest_root(IntPoly([-2, 0, 1]))) is Order.EQ
        assert len(witness.signs) == len(c4.edges)  # a complete orientation

    def test_example_graph_is_two(self, ex1):
        root, _ = min_rho_complete(ex1)
        assert root.compare_rational(2) is Order.EQ

    def test_reduction_matches_unreduced_brute_force(self, corpus5):
        # switching lets the tree arcs be pinned, shrinking 2^|E| to 2^m;
        # the unreduced sweep must agree on every small graph
        for g in corpus5:
            reduced, _ = min_rho_complete(g)
            assert compare_roots(reduced, brute_min_rho_complete(g)) is Order.EQ

    def test_witness_attains_minimum(self, corpus5):
        rng = random.Random(73)
        for g in rng.sample(corpus5, 8):
            root, witness = min_rho_complete(g)
            states = {
                e: (e if s == 1 else (e[1], e[0]))
                for e, s in zip(witness.edges, witness.signs)
            }
            d = MixedGraph.of(g, states)
            rho = spectral_radius(hermitian_adjacency(d))
            assert compare_roots(rho, root) is Order.EQ

    def test_guard(self):
        g = Graph.of(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        with pytest.raises(GuardLimit):
            min_rho_complete(g)


class TestMinRhoPartial:
    def test_c4(self, c4):
        root, tree, witness = min_rho_partial(c4)
        assert abs(float(root) - 1.8478) < 1e-3
        assert root.poly.coeffs == (2, 0, -4, 0, 1)
        assert len(witness.signs) == 1 and len(tree.tree_edges) == 3

    def test_example_graph_is_two(self, ex1):
        root, tree, _ = min_rho_partial(ex1)
        assert root.compare_rational(2) is Order.EQ
        # only the star-like trees contain the rho = 2 class
        assert sorted(tree.tree_edges) != [(0, 1), (1, 2), (2, 3)]

    def test_guard(self):
        g = Graph.of(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        with pytest.raises(GuardLimit):
            min_rho_partial(g)

    def test_one_sweep_per_coset(self, corpus5, gain_tables):
        # K4 minus an edge: 8 trees in 3 orbits, whose parities in the BFS
        # tree's basis take 2 values, so 2 * 2^1 charpolys; over corpus <= 5
        # the coset skip leaves 69 of the 105 orbit trees
        min_rho_partial(parse_graph6("C}"))
        assert gain_tables.sweeps == [(False, 2)] * 2
        gain_tables.sweeps.clear()
        for g in corpus5:
            min_rho_partial(g)
        assert len(gain_tables.sweeps) == 69

    @pytest.mark.parametrize(
        "g6, trees, cosets",
        [("C}", 8, 2), ("D~{", 125, 3), ("E~~w", 1296, 6)],
        ids=["k4-minus-edge", "k5", "k6"],
    )
    def test_one_tree_object_per_visited_coset(self, g6, trees, cosets, spanning_trees_built, gain_tables):
        # trees are listed as edge masks: a SpanningTree is built only for
        # the first tree of each coset, never for a tree of a visited orbit
        # or coset, and the witness is one of those objects
        g = parse_graph6(g6)
        search = explore._Search(g)
        spanning_trees_built.clear()
        root, tree, witness = search.partial()
        assert len(spanning_tree_masks(g)) == trees
        assert len(spanning_trees_built) == len(gain_tables.sweeps) == len(set(gain_tables.cosets)) == cosets
        assert any(t is tree for t in spanning_trees_built)

    @pytest.fixture
    def compared(self, monkeypatch):
        """The candidate lists min_rho_partial hands to `_radius_min`."""
        calls = []
        radius_min = explore._radius_min

        def recording(candidates, radii, gcds):
            calls.append(candidates)
            return radius_min(candidates, radii, gcds)

        monkeypatch.setattr(explore, "_radius_min", recording)
        return calls

    @staticmethod
    def assert_matches_unreduced(g, compared):
        # tree orbits and converse pairs are skipped, yet every charpoly's
        # first witness, the comparison order and so the printed interval
        # must come out as in the unreduced search
        compared.clear()
        root, tree, witness = min_rho_partial(g)
        ref_root, ref_tree, ref_witness, ref_candidates = oracles.min_rho_partial_unreduced(g)
        assert compared == [ref_candidates]
        assert root.poly == ref_root.poly
        assert root.to_json() == ref_root.to_json()
        assert tree == ref_tree
        assert witness == ref_witness

    def test_symmetry_reduction_matches_unreduced_search(self, corpus5, compared):
        for g in corpus5:
            self.assert_matches_unreduced(g, compared)

    def test_symmetry_reduction_matches_unreduced_search_n6(self, corpus6, compared):
        for g in small_n6(corpus6):
            self.assert_matches_unreduced(g, compared)

    def test_converse_pairs_share_a_charpoly(self, corpus5):
        for g in corpus5:
            t = enumerate_spanning_trees(g)[-1]
            co = cotree_edges(g, t)
            for signs in sign_vectors(len(co)):
                negated = tuple(-s for s in signs)
                d = build_mixed(g, t, SignVector(co, signs))
                d_neg = build_mixed(g, t, SignVector(co, negated))
                assert charpoly_of_mixed(d) == charpoly_of_mixed(d_neg)

    def test_one_charpoly_per_tree_orbit_and_converse_pair(self, kernel_calls, gain_tables):
        # K5: 125 trees in 3 orbits, whose cosets differ, m = 6, so one
        # table and 3 * 2^5 charpolys instead of 125 * 2^6
        min_rho_partial(complete_graph(5))
        assert gain_tables.built == [6]
        assert gain_tables.sweeps == [(False, 2**5)] * 3
        assert len(set(gain_tables.cosets)) == len(gain_tables.cosets) == 3
        assert kernel_calls == []


class TestMinRhoAllMixed:
    def test_c4(self, c4):
        root, witness = min_rho_all_mixed(c4)
        assert compare_roots(root, isolate_largest_root(IntPoly([-2, 0, 1]))) is Order.EQ
        assert witness.graph == c4

    @staticmethod
    def assert_matches_kernel_loop(g, guard=True):
        root, witness = min_rho_all_mixed(g, guard=guard)
        ref_root, ref_witness = oracles.min_rho_all_mixed_by_kernel(g)
        assert root.to_json() == ref_root.to_json(), encode_graph6(g)
        assert witness == ref_witness, encode_graph6(g)

    def test_matches_kernel_loop(self, corpus5, kernel_calls):
        for g in corpus5:
            if g.n <= 4:
                kernel_calls.clear()
                min_rho_all_mixed(g)
                assert kernel_calls == []
                self.assert_matches_kernel_loop(g)

    def test_matches_kernel_loop_n5_unguarded(self, corpus5):
        # the n = 5 graphs with at most 6 edges: 3^6 states at most
        sparse = [g for g in corpus5 if g.n == 5 and len(g.edges) <= 6]
        assert len(sparse) == 13
        for g in sparse:
            self.assert_matches_kernel_loop(g, guard=False)

    def test_guard(self, corpus5):
        big = next(g for g in corpus5 if g.n == 5)
        with pytest.raises(GuardLimit):
            min_rho_all_mixed(big)


class TestGainTable:
    """One table over the BFS tree serves every tier: against the per-tree
    tables it replaced and against the kernel."""

    @staticmethod
    def assert_cosets_match_per_tree_tables(g):
        # the partial search's loop, every tree checked: a visited tree's
        # converse half equals its own table's, and a skipped tree (orbit
        # or coset) brings no charpoly the visited trees have not shown
        table = explore._Search(g).table
        auts = automorphisms(g)
        covered, cosets, shown = set(), set(), set()
        for t in enumerate_spanning_trees(g):
            co = cotree_edges(g, t)
            want = list(oracles.sign_sweep_by_tree_table(g.n, t.tree_edges, co, converse_halves(len(co))))
            parity = table.gain(co)[0]
            if t.tree_edges in covered or parity in cosets:
                assert set(want) <= shown, (encode_graph6(g), sorted(t.tree_edges))
                continue
            covered.update(frozenset(norm_edge(p[u], p[v]) for (u, v) in t.tree_edges) for p in auts)
            cosets.add(parity)
            got = [table.unpack(p) for p in table.sweep((), co, half=True)]
            assert got == want, (encode_graph6(g), sorted(t.tree_edges))
            shown.update(got)

    def test_cosets_match_per_tree_tables(self, corpus5):
        for g in corpus5:
            self.assert_cosets_match_per_tree_tables(g)

    def test_cosets_match_per_tree_tables_n6(self, corpus6):
        for g in small_n6(corpus6):
            self.assert_cosets_match_per_tree_tables(g)

    def test_every_tree_sweep_matches_its_own_table(self, corpus5):
        # partial and complete sweeps over any tree T from the table over T0
        for g in corpus5:
            table = explore._Search(g).table
            for t in enumerate_spanning_trees(g):
                co = cotree_edges(g, t)
                arcs = sorted(t.tree_edges)
                for fixed, tree_arcs in (((), False), (arcs, True)):
                    got = [table.unpack(p) for p in table.sweep(fixed, co)]
                    want = oracles.sign_sweep_by_tree_table(g.n, t.tree_edges, co, sign_vectors(len(co)), tree_arcs)
                    assert got == list(want), (encode_graph6(g), sorted(t.tree_edges), tree_arcs)

    def test_random_mixed_graphs_match_the_kernel(self, corpus6, kernel_calls):
        # each edge undirected or either arc, over a random spanning tree T0
        rng = random.Random(97)
        graphs = [g for g in corpus6 if g.n >= 3]
        for _ in range(400):
            g = rng.choice(graphs)
            t = rng.choice(enumerate_spanning_trees(g))
            table = GainTable(g, t)
            directions = {e: rng.choice((None, e, (e[1], e[0]))) for e in g.edge_list}
            d = MixedGraph.of(g, directions)
            kernel_calls.clear()
            gain = table.gain(d.arcs())
            assert table.unpack(table.value(gain)) == table.unpack(table.coset(gain[0])[gain[1]])
            assert kernel_calls == []
            assert table.unpack(table.value(gain)) == charpoly_of_mixed(d).coeffs, (encode_graph6(g), d.arcs())


SQRT2 = IntPoly((-2, 0, 1))
# 665857/470832 is within 2^-38 of sqrt(2)
NEAR_SQRT2 = IntPoly((-665857, 470832))


class TestRadiusMinPruning:
    """`_radius_min` discards a candidate with a root of modulus at least
    best.hi + PRINT_WIDTH before isolating it, and must print what the
    unpruned search prints."""

    @staticmethod
    def run(candidates, isolated):
        """Pruned and unpruned minimum agree; returns the polys isolated by
        the pruned one."""
        isolated.clear()
        root, witness = explore._radius_min(candidates, {}, {})
        pruned_isolations = list(isolated)
        ref_root, ref_witness = oracles.radius_min_unpruned(candidates, {}, {})
        assert witness == ref_witness
        assert root.to_json() == ref_root.to_json()
        return pruned_isolations

    @staticmethod
    def h_after_sqrt2():
        """The prune point once sqrt(2), isolated in (0, 3), is the best."""
        h = spectral_radius_of_charpoly(SQRT2).hi + polynomials.PRINT_WIDTH
        assert h == 3 + polynomials.PRINT_WIDTH
        return h

    def test_root_at_h_is_pruned(self, isolated):
        h = self.h_after_sqrt2()
        at_h = IntPoly((-h.numerator, h.denominator))
        assert at_h.sign_at(h) == 0
        assert self.run([(SQRT2, "sqrt2"), (at_h, "at h")], isolated) == [SQRT2]

    def test_one_root_above_h_is_pruned(self, isolated):
        above = IntPoly((0, -5, 1))  # roots 0 and 5
        assert self.run([(SQRT2, "sqrt2"), (above, "above")], isolated) == [SQRT2]

    def test_two_roots_above_h_are_not_pruned(self, isolated):
        # an even count beyond h shows no sign change, so the certificate
        # does not apply and the candidate is isolated and compared
        two_above = IntPoly((30, -11, 1))  # roots 5 and 6
        h = self.h_after_sqrt2()
        assert not explore._root_beyond(two_above, h.numerator, h.denominator)
        assert self.run([(SQRT2, "sqrt2"), (two_above, "two above")], isolated) == [SQRT2, two_above]

    def test_root_below_minus_h_only_is_pruned(self, isolated):
        below = IntPoly((-5, 4, 1))  # roots -5 and 1
        h = self.h_after_sqrt2()
        assert below.sign_at(h) == 1
        assert self.run([(SQRT2, "sqrt2"), (below, "below")], isolated) == [SQRT2]

    def test_near_tie_is_not_pruned(self, isolated):
        # telling the pair apart refines both far below the printed width
        for pair in ([(SQRT2, "sqrt2"), (NEAR_SQRT2, "near")], [(NEAR_SQRT2, "near"), (SQRT2, "sqrt2")]):
            assert self.run(pair, isolated) == [poly for poly, _ in pair]

    def test_root_inside_the_margin_is_not_pruned(self, isolated, monkeypatch):
        # the near tie leaves sqrt(2) far below the printed width; c's
        # largest root lies just above best.hi, inside the margin, and its
        # interval overlaps best's and is narrower, so comparing c refines
        # the winner: the margin keeps c, and a zero margin changes the print
        best = spectral_radius_of_charpoly(SQRT2)
        spectral_radius_of_charpoly(NEAR_SQRT2).compare(best)
        r1, r2 = best.hi - best.width / 7, best.hi + best.width / 13
        c = IntPoly((-r1.numerator, r1.denominator)) * IntPoly((-r2.numerator, r2.denominator))
        c = c * IntPoly((3, 0, 1))  # moves c's bisection grid off best's, so they overlap
        candidates = [(SQRT2, "sqrt2"), (NEAR_SQRT2, "near"), (c, "c")]
        assert self.run(candidates, isolated) == [SQRT2, NEAR_SQRT2, c]
        unpruned = oracles.radius_min_unpruned(candidates, {}, {})[0].to_json()
        monkeypatch.setattr(explore, "PRINT_WIDTH", 0)
        assert explore._radius_min(candidates, {}, {})[0].to_json() != unpruned

    def test_prune_margin_is_the_printed_width(self):
        assert AlgebraicRoot.to_json.__defaults__ == (polynomials.PRINT_WIDTH,)
        assert explore.PRINT_WIDTH is AlgebraicRoot.to_json.__defaults__[0]

    @staticmethod
    def searches(g):
        """root.to_json() and witnesses of each minimum-rho search of g."""
        results = [min_rho_complete(g), min_rho_partial(g)]
        if g.n <= 4:
            results.append(min_rho_all_mixed(g))
        return [(root.to_json(), *witnesses) for root, *witnesses in results]

    def assert_pruning_changes_nothing(self, graphs, monkeypatch, records=False):
        pruned = [self.searches(g) for g in graphs]
        pruned_records = [explore_record(g) for g in graphs] if records else []
        monkeypatch.setattr(explore, "_radius_min", oracles.radius_min_unpruned)
        for g, result in zip(graphs, pruned):
            assert self.searches(g) == result, encode_graph6(g)
        for g, record in zip(graphs, pruned_records):
            assert explore_record(g) == record, encode_graph6(g)

    def test_pruned_searches_match_unpruned(self, corpus5, monkeypatch):
        self.assert_pruning_changes_nothing(corpus5, monkeypatch, records=True)

    def test_pruned_searches_match_unpruned_n6(self, corpus6, monkeypatch):
        self.assert_pruning_changes_nothing(small_n6(corpus6), monkeypatch)

    def test_explore_record_isolates_fewer_radii_than_candidates(self, isolated, monkeypatch):
        # K5: the complete and partial searches hand 2 + 22 distinct
        # charpolys to `_radius_min`; all but 4 are pruned, and the bound
        # sweep needs no other radius (23 isolations without pruning)
        candidates = []
        radius_min = explore._radius_min

        def recording(cands, radii, gcds):
            candidates.extend(poly for poly, _ in cands)
            return radius_min(cands, radii, gcds)

        monkeypatch.setattr(explore, "_radius_min", recording)
        explore_record(complete_graph(5))
        assert len(isolated) == len(set(isolated)) == 4
        assert len(set(candidates)) == 22


class TestGuoMoharSweep:
    def test_passes_on_corpus(self, corpus5):
        for g in corpus5:
            report = guo_mohar_sweep(g)
            assert report.passed
            assert report.checked > 0

    def test_converse_half_matches_unreduced_sweep(self, corpus5):
        for g in corpus5:
            report = guo_mohar_sweep(g)
            reference = oracles.guo_mohar_sweep_unreduced(g)
            assert report.checked == reference.checked
            assert report.violations == reference.violations


class TestConjectureReport:
    def test_c4_strictly_below_partial(self, c4):
        rep = conjecture_report(c4)
        assert rep.complete_vs_partial is Order.LT
        assert rep.all_vs_complete is Order.EQ
        assert rep.consistent

    def test_example_graph_tie(self, ex1):
        rep = conjecture_report(ex1)
        assert rep.complete_vs_partial is Order.EQ
        assert rep.complete_root.compare_rational(2) is Order.EQ
        assert rep.consistent

    def test_consistent_through_n4(self, corpus5):
        for g in corpus5:
            if g.n <= 4:
                assert conjecture_report(g).consistent

    def test_k5_refutes_the_conjecture(self):
        # partial orientations of K5 reach sqrt(5) while complete ones only
        # reach sqrt(7); the report must surface this rather than hide it
        k5 = Graph.of(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        rep = conjecture_report(k5)
        assert rep.complete_vs_partial is Order.GT
        assert not rep.consistent
        assert compare_roots(rep.complete_root, isolate_largest_root(IntPoly([-7, 0, 1]))) is Order.EQ
        assert compare_roots(rep.partial_root, isolate_largest_root(IntPoly([-5, 0, 1]))) is Order.EQ
        assert rep.to_json()["consistent"] is False

    def test_json_shape(self, c4):
        data = conjecture_report(c4).to_json()
        assert data["graph6"] == encode_graph6(c4)
        assert data["consistent"] is True
        assert set(data["min_complete"]) == {"rho", "edges", "signs"}
        assert set(data["min_partial"]) == {"rho", "tree", "signs", "cotree"}
        assert "min_all_mixed" in data and data["all_vs_complete"] == "EQ"


class TestExploreRecords:
    def test_record_shape(self, c4):
        rec = explore_record(c4)
        assert rec["guo_mohar"]["violations"] == []
        assert rec["guo_mohar"]["checked"] > 0
        assert rec["n"] == 4

    def test_corpus_records_in_order(self):
        recs = explore_records(generate_corpus(3))
        assert [r["n"] for r in recs] == [1, 2, 3, 3]

    def test_guards_checked_before_any_record(self, c4, monkeypatch):
        def unexpected(g, include_all_mixed=None):
            raise AssertionError("record computed before the guards were checked")

        monkeypatch.setattr(explore, "explore_record", unexpected)
        with pytest.raises(GuardLimit, match="pass guard=False to override"):
            explore_records([c4, complete_graph(7)])

    def test_record_refuses_before_any_work(self, gain_tables):
        # K7 passes both min-rho guards but its bound sweep has m = 15 > 12,
        # and K5 is above the all-mixed guard: each is refused before a gain
        # table is built, with the message of the search that refuses it
        with pytest.raises(GuardLimit) as refused:
            explore_record(complete_graph(7))
        assert str(refused.value) == (
            "bound sweep enumerates 2^m orientations; m=15 exceeds 12 (pass guard=False to override)"
        )
        with pytest.raises(GuardLimit) as refused:
            conjecture_report(complete_graph(5), include_all_mixed=True)
        assert str(refused.value) == (
            "all-mixed search enumerates 3^|E| states; n=5 exceeds 4 (pass guard=False to override)"
        )
        with pytest.raises(GuardLimit) as refused:
            explore_records([complete_graph(4), complete_graph(7)])
        assert str(refused.value).startswith("graph6=F~~~w: bound sweep enumerates 2^m orientations; m=15")
        assert gain_tables.built == []

    def test_any_iterable_is_read_once(self):
        graphs = generate_corpus(3)
        recs = list(explore_records(iter(graphs)))
        assert [r["n"] for r in recs] == [1, 2, 3, 3]
        assert recs == [explore_record(g) for g in graphs]

    def test_records_are_computed_as_they_are_asked_for(self, monkeypatch):
        graphs = generate_corpus(4)
        calls = []
        original = explore.explore_record

        def counting(g, include_all_mixed=None, guard=True):
            calls.append(g)
            return original(g, include_all_mixed, guard)

        monkeypatch.setattr(explore, "explore_record", counting)
        records = explore_records(graphs)
        assert calls == []
        first = next(records)
        assert calls == [graphs[0]]
        assert first == original(graphs[0])
        assert list(records) == [original(g) for g in graphs[1:]]
        assert calls == list(graphs)


def separate_record(g):
    """explore_record(g) assembled from the public searches, each with its
    own radius memo and its own sweeps, and the unreduced bound sweep.  The
    comparisons run in the record's order, since they refine in place."""
    c_root, c_witness = min_rho_complete(g)
    p_root, p_tree, p_witness = min_rho_partial(g)
    all_root = all_cmp = None
    if g.n <= 4:
        all_root, _ = min_rho_all_mixed(g)
        all_cmp = compare_roots(all_root, c_root)
    report = ConjectureReport(
        g, c_root, c_witness, p_root, p_tree, p_witness, compare_roots(c_root, p_root), all_root, all_cmp
    )
    gm = oracles.guo_mohar_sweep_unreduced(g)
    data = report.to_json()
    data["guo_mohar"] = {"checked": gm.checked, "violations": list(gm.violations)}
    return data


class TestRecordSharing:
    """One explore record shares one complete-orientation sweep and one
    radius memo among its searches."""

    def test_radius_memo_hands_out_fresh_copies(self, isolated):
        radii = {}
        p = IntPoly((2, 2, -5, 0, 1))
        first = _radius(p, radii)
        state = (first.poly, first.lo, first.hi)
        first.to_json()  # refines first in place
        second = _radius(p, radii)
        assert len(isolated) == 1 and list(radii) == [p]
        assert second is not first and radii[p] is not first and radii[p] is not second
        assert (second.poly, second.lo, second.hi) == state != (first.poly, first.lo, first.hi)
        assert (radii[p].lo, radii[p].hi) == state[1:]

    def test_shared_memo_does_not_leak_refinement(self):
        # 665857/470832 is within 2^-38 of sqrt(2): telling them apart
        # refines sqrt(2) far below the printed width, and a later search on
        # the same memo must still print the interval of a fresh isolation
        sqrt2, close = IntPoly((-2, 0, 1)), IntPoly((-665857, 470832))
        radii = {}
        explore._radius_min([(close, "close"), (sqrt2, "sqrt2")], radii, {})
        root, _ = explore._radius_min([(sqrt2, "sqrt2")], radii, {})
        assert root.to_json() == spectral_radius_of_charpoly(sqrt2).to_json()

    def test_gcd_memo_changes_no_winner(self, corpus5, monkeypatch):
        # every candidate list a record hands to `_radius_min` has the same
        # winner and printed interval with the record's gcd memo and without
        # one, and so does every record
        lists = []
        radius_min = explore._radius_min

        def recording(candidates, radii, gcds):
            lists.append(candidates)
            return radius_min(candidates, radii, gcds)

        monkeypatch.setattr(explore, "_radius_min", recording)
        records = [explore_record(g) for g in corpus5]
        assert len(lists) == 2 * len(corpus5) + sum(g.n <= 4 for g in corpus5)
        for candidates in lists:
            memo_root, memo_witness = radius_min(candidates, {}, {})
            root, witness = radius_min(candidates, {}, None)
            assert memo_witness == witness and memo_root.to_json() == root.to_json()
        compare = AlgebraicRoot.compare
        monkeypatch.setattr(AlgebraicRoot, "compare", lambda self, other, gcds=None: compare(self, other))
        assert [explore_record(g) for g in corpus5] == records

    def test_one_sign_vector_per_witness(self, monkeypatch):
        # only the winners of the complete and partial searches become
        # validated sign vectors, not every first occurrence of a charpoly
        built = []
        post_init = SignVector.__post_init__

        def counting(self):
            built.append(self.signs)
            post_init(self)

        monkeypatch.setattr(SignVector, "__post_init__", counting)
        record = explore_record(complete_graph(5))
        assert built == [tuple(record["min_complete"]["signs"]), tuple(record["min_partial"]["signs"])]

    def test_record_matches_separate_searches(self, corpus5):
        for g in corpus5:
            assert explore_record(g) == separate_record(g), encode_graph6(g)

    def test_all_odd_coset_transformed_once_per_record(self, corpus5, monkeypatch):
        # the partial orientations over the BFS tree, the bound sweep, the
        # all-mixed tier and, when every fundamental cycle is odd, the
        # complete orientations read the coset with parity 1...1
        folds = []
        fold = GainTable.fold

        def recording(self, parity):
            folds.append(parity == (1 << self.m) - 1)
            return fold(self, parity)

        monkeypatch.setattr(GainTable, "fold", recording)
        for g in corpus5:
            if len(g.edges) < g.n:
                continue  # a tree's only parity, 0, is also folded by `value`
            folds.clear()
            explore_record(g)
            assert folds.count(True) == 1, encode_graph6(g)
        table = explore._Search(complete_graph(5)).table
        top = (1 << table.m) - 1
        assert table.coset(top) is table.coset(top)
        assert table.coset(0) is not table.coset(0)

    def test_one_gain_table_per_record(self, corpus5, kernel_calls, gain_tables):
        # the public searches build a table each and sweep the complete
        # orientations twice; the record builds one table and sweeps them
        # once, and neither calls the kernel
        for g in corpus5[-6:]:
            m = len(cotree_edges(g, bfs_spanning_tree(g, 0)))
            gain_tables.built.clear()
            gain_tables.sweeps.clear()
            min_rho_complete(g)
            min_rho_partial(g)
            guo_mohar_sweep(g)
            assert gain_tables.built == [m] * 3
            assert gain_tables.sweeps.count((True, 2**m)) == 2
            assert kernel_calls == []
            gain_tables.built.clear()
            gain_tables.sweeps.clear()
            explore_record(g)
            assert gain_tables.built == [m]
            assert gain_tables.sweeps.count((True, 2**m)) == 1
            assert kernel_calls == []
