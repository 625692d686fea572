import itertools
import random
from fractions import Fraction

import pytest

import oracles
from orispec import hermitian, polynomials
from orispec.graphs import (
    Graph,
    MixedGraph,
    SignVector,
    bfs_spanning_tree,
    build_mixed,
    converse_halves,
    cotree_edges,
    encode_graph6,
    enumerate_spanning_trees,
    sign_vectors,
)
from orispec.hermitian import (
    G_I,
    G_ONE,
    G_ZERO,
    GainTable,
    GaussInt,
    HermitianMatrix,
    charpoly,
    charpoly_of_mixed,
    eigenvalues_numeric,
    hermitian_adjacency,
    lambda_max,
    lambda_min,
    rank_one_witness,
    spectral_radius,
    spectral_radius_of_charpoly,
    verify_rank_one_identity,
)
from orispec.polynomials import IntPoly, Order, cauchy_root_bound, compare_roots, squarefree_part
from orispec.switching import classify_partial_orientations


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.of(rows * cols, edges)


PETERSEN = Graph.of(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)

K7 = Graph.of(7, itertools.combinations(range(7), 2))


def random_mixed_k7(draw):
    """Draw number `draw` (from 0) of a seeded stream of mixed K7: each edge,
    in sorted order, undirected, u -> v or v -> u with equal odds."""
    rng = random.Random(0)
    for _ in range(draw + 1):
        states = {e: (None, e, (e[1], e[0]))[rng.randrange(3)] for e in sorted(K7.edges)}
    return MixedGraph.of(K7, states)


def mixed_of(n, undirected=(), arcs=()):
    g = Graph.of(n, list(undirected) + [tuple(sorted(a)) for a in arcs])
    directions = {tuple(sorted(a)): a for a in arcs}
    return MixedGraph.of(g, {e: directions.get(e) for e in g.edges})


class TestGaussInt:
    def test_arithmetic(self):
        a = GaussInt(1, 2)
        b = GaussInt(0, -1)
        assert a + b == GaussInt(1, 1)
        assert a - b == GaussInt(1, 3)
        assert a * b == GaussInt(2, -1)
        assert a.conjugate() == GaussInt(1, -2)
        assert -b == GaussInt(0, 1)

    def test_constants(self):
        assert G_ZERO.is_zero and not G_ONE.is_zero
        assert G_I * G_I == -G_ONE

    def test_str(self):
        assert str(GaussInt(0, 1)) == "i"
        assert str(GaussInt(0, -1)) == "-i"
        assert str(GaussInt(3, 0)) == "3"
        assert str(GaussInt(1, 1)) == "1+i"


class TestHermitianMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            HermitianMatrix(((G_ZERO, G_I), (G_I, G_ZERO)))  # not conjugate symmetric
        with pytest.raises(ValueError):
            HermitianMatrix(((G_I,),))  # imaginary diagonal

    def test_adjacency_single_edge(self):
        h = hermitian_adjacency(mixed_of(2, undirected=[(0, 1)]))
        assert h.entry(0, 1) == G_ONE and h.entry(1, 0) == G_ONE

    def test_adjacency_single_arc(self):
        h = hermitian_adjacency(mixed_of(2, arcs=[(0, 1)]))
        assert h.entry(0, 1) == G_I
        assert h.entry(1, 0) == GaussInt(0, -1)

    def test_adjacency_empty(self):
        h = hermitian_adjacency(MixedGraph.undirected(Graph.of(3, [])))
        assert all(h.entry(u, v) == G_ZERO for u in range(3) for v in range(3))


class TestCharpoly:
    def test_single_arc(self):
        assert charpoly_of_mixed(mixed_of(2, arcs=[(0, 1)])).coeffs == (-1, 0, 1)

    def test_h1_from_example(self, c4):
        d = mixed_of(4, undirected=[(0, 1), (1, 2), (2, 3)], arcs=[(0, 3)])
        assert d.graph == c4
        assert str(charpoly_of_mixed(d)) == "x^4-4x^2+2"

    def test_d1_class_from_example(self, ex1, ex1_path_tree):
        # opposite cotree signs give the charpoly with the +2x term
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        d = build_mixed(ex1, ex1_path_tree, sv)
        assert str(charpoly_of_mixed(d)) == "x^4-5x^2+2x+2"
        sv2 = SignVector.for_tree(ex1, ex1_path_tree, (1, 1))
        assert str(charpoly_of_mixed(build_mixed(ex1, ex1_path_tree, sv2))) == "x^4-5x^2-2x+2"

    def test_matches_interpolation_oracle_random(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            states = {}
            for e in edges:
                r = rng.random()
                states[e] = None if r < 1 / 3 else (e if r < 2 / 3 else (e[1], e[0]))
            d = MixedGraph.of(Graph.of(n, edges), states)
            assert charpoly_of_mixed(d).coeffs == tuple(
                oracles.charpoly_of_mixed_by_interpolation(d)
            )

    def test_bipartite_parity(self, corpus6):
        # bipartite graphs force a spectrum symmetric about zero, which
        # kills every coefficient with parity opposite to n
        rng = random.Random(29)
        for g in corpus6:
            if not g.is_bipartite():
                continue
            t = bfs_spanning_tree(g, 0)
            co = cotree_edges(g, t)
            for _ in range(5):
                signs = tuple(rng.choice((-1, 1)) for _ in co)
                phi = charpoly_of_mixed(build_mixed(g, t, SignVector.for_tree(g, t, signs)))
                for k, c in enumerate(phi.coeffs):
                    if (g.n - k) % 2 == 1:
                        assert c == 0


class TestExactSpectra:
    def test_single_edge_lambda_max(self):
        h = hermitian_adjacency(mixed_of(2, undirected=[(0, 1)]))
        r = lambda_max(h)
        assert r.compare_rational(1) is Order.EQ

    def test_d3_radius_exactly_two(self, ex1, ex1_star_tree):
        # the star-tree class containing x^4-5x^2+4 has spectral radius 2
        for signs in sign_vectors(2):
            sv = SignVector.for_tree(ex1, ex1_star_tree, signs)
            h = hermitian_adjacency(build_mixed(ex1, ex1_star_tree, sv))
            if charpoly(h).coeffs == (4, 0, -5, 0, 1):
                rho = spectral_radius(h)
                assert rho.compare_rational(2) is Order.EQ
                return
        raise AssertionError("no star-tree orientation produced x^4-5x^2+4")

    def test_d1_radius_is_abs_lambda_min(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        h = hermitian_adjacency(build_mixed(ex1, ex1_path_tree, sv))
        rho = spectral_radius(h)
        assert compare_roots(rho, lambda_max(h)) is Order.GT
        assert compare_roots(rho, lambda_min(h).negated()) is Order.EQ
        assert abs(float(rho) - 2.3429) < 1e-3

    def test_guo_mohar_on_small_corpus(self, corpus5):
        # exact rho(mixed) <= rho(underlying) across random mixed graphs
        rng = random.Random(31)
        for g in corpus5:
            g_rho = spectral_radius(hermitian_adjacency(MixedGraph.undirected(g)))
            for _ in range(6):
                states = {}
                for e in g.edges:
                    r = rng.random()
                    states[e] = None if r < 1 / 3 else (e if r < 2 / 3 else (e[1], e[0]))
                d = MixedGraph.of(g, states)
                rho = spectral_radius(hermitian_adjacency(d))
                assert compare_roots(rho, g_rho) is not Order.GT


def tree_sweep(g, t, tree_arcs=False, half=False):
    """Every charpoly the table of t's own tree sweeps over its cotree, in
    `sign_vectors` order, or over the converse halves."""
    co = cotree_edges(g, t)
    table = GainTable(g.n, t.tree_edges, co)
    arcs = sorted(t.tree_edges) if tree_arcs else ()
    return [table.unpack(p) for p in table.sweep(arcs, co, half=half)]


def sign_index(signs):
    """The index of a sign vector in `sign_vectors` order."""
    index = 0
    for s in signs:
        index = 2 * index + (s == 1)
    return index


def sweep_against_kernel(g, t, tree_arcs=False, half=False):
    """(the sweep, the kernel oracle) over every sign vector of (g, t), or
    over the converse halves."""
    co = cotree_edges(g, t)
    seq = (converse_halves if half else sign_vectors)(len(co))
    want = list(oracles.sign_sweep_charpolys_by_kernel(g.n, t.tree_edges, co, seq, tree_arcs=tree_arcs))
    return tree_sweep(g, t, tree_arcs, half), want


class TestSignSweepByCycleExpansion:
    """`GainTable.sweep` over the table of the swept tree itself, as classify
    and the audit read it, against one kernel charpoly per sign vector."""

    @pytest.mark.parametrize("tree_arcs", [False, True], ids=["partial", "complete"])
    def test_every_tree_of_corpus5(self, corpus5, tree_arcs):
        for g in corpus5:
            for t in enumerate_spanning_trees(g):
                got, want = sweep_against_kernel(g, t, tree_arcs)
                assert got == want, (encode_graph6(g), sorted(t.tree_edges))

    @pytest.mark.parametrize("tree_arcs", [False, True], ids=["partial", "complete"])
    def test_petersen_trees(self, tree_arcs):
        # every 100th of the 2,000 spanning trees, BFS order first
        trees = [bfs_spanning_tree(PETERSEN, 0)] + enumerate_spanning_trees(PETERSEN)[::100]
        for t in trees:
            got, want = sweep_against_kernel(PETERSEN, t, tree_arcs)
            assert len(got) == 64 and got == want, sorted(t.tree_edges)

    @pytest.mark.parametrize("tree_arcs", [False, True], ids=["partial", "complete"])
    def test_ladder_at_bfs0(self, tree_arcs):
        g = grid(2, 8)
        got, want = sweep_against_kernel(g, bfs_spanning_tree(g, 0), tree_arcs)
        assert len(got) == 128 and got == want

    @pytest.mark.parametrize("tree_arcs", [False, True], ids=["partial", "complete"])
    def test_first_tree_of_k7(self, tree_arcs):
        # m = 15: a seeded sample of the 32,768 sign vectors, read by index
        # from the full sweep
        t = enumerate_spanning_trees(K7)[0]
        co = cotree_edges(K7, t)
        assert len(co) == 15
        rng = random.Random(7)
        sample = [tuple(rng.choice((-1, 1)) for _ in range(15)) for _ in range(600)]
        polys = tree_sweep(K7, t, tree_arcs)
        got = [polys[sign_index(s)] for s in sample]
        want = list(oracles.sign_sweep_charpolys_by_kernel(7, t.tree_edges, co, sample, tree_arcs=tree_arcs))
        assert got == want

    def test_class_representatives(self, corpus5):
        # the converse halves are the first members of the switching
        # classes, in class order, as `classify` reads them
        cases = [(PETERSEN, bfs_spanning_tree(PETERSEN, 0))]
        cases += [(g, bfs_spanning_tree(g, 0)) for g in corpus5]
        for g, t in cases:
            reps = [members[0].signs for members in classify_partial_orientations(g, t)]
            assert reps == list(converse_halves(len(cotree_edges(g, t))))
            got, want = sweep_against_kernel(g, t, half=True)
            assert got == want, encode_graph6(g)

    def test_repeats_in_any_order(self, ex1, ex1_path_tree):
        seq = [(1, 1), (-1, 1), (1, 1), (1, -1), (-1, -1), (-1, 1), (1, 1)]
        co = cotree_edges(ex1, ex1_path_tree)
        for tree_arcs in (False, True):
            polys = tree_sweep(ex1, ex1_path_tree, tree_arcs)
            got = [polys[sign_index(s)] for s in seq]
            want = list(oracles.sign_sweep_charpolys_by_kernel(4, ex1_path_tree.tree_edges, co, seq, tree_arcs))
            assert got == want and len(got) == len(seq)

    def test_no_cotree_edges(self):
        g = Graph.of(4, [(0, 1), (1, 2), (1, 3)])
        t = bfs_spanning_tree(g, 0)
        for tree_arcs in (False, True):
            for half in (False, True):
                got, want = sweep_against_kernel(g, t, tree_arcs, half)
                assert got == want == [(0, 0, -3, 0, 1)]

    def test_one_and_no_vertex(self):
        for n, poly in ((1, (0, 1)), (0, (1,))):
            table = GainTable(n, (), ())
            for half in (False, True):
                assert [table.unpack(p) for p in table.sweep((), (), half=half)] == [poly]
            assert list(oracles.sign_sweep_charpolys_by_kernel(n, (), (), [()])) == [poly]

    def test_rejects_a_tree_that_does_not_span(self):
        with pytest.raises(ValueError):
            GainTable(4, [(0, 1), (2, 3)], [(1, 2)])
        with pytest.raises(ValueError):
            GainTable(3, [(0, 1), (1, 2)], [(0, 1)])

    def test_makes_no_kernel_call(self, kernel_calls):
        t = bfs_spanning_tree(PETERSEN, 0)
        for tree_arcs in (False, True):
            assert len(tree_sweep(PETERSEN, t, tree_arcs)) == 64
            assert len(tree_sweep(PETERSEN, t, tree_arcs, half=True)) == 32
        assert kernel_calls == []

    def test_constant_term_is_the_matching_polynomial(self, corpus5):
        # c_{} = mu(G): the charpolys of the 2^m partial orientations over
        # any tree average to the matching polynomial
        from orispec.matching import matching_polynomial

        for g in corpus5:
            t = bfs_spanning_tree(g, 0)
            m = len(cotree_edges(g, t))
            total = sum((IntPoly(p) for p in tree_sweep(g, t)), IntPoly.zero())
            assert total == matching_polynomial(g) * IntPoly([1 << m])


def midpoint_root_polys():
    """Cubics with a root at the first or second bisection midpoint of their
    Cauchy interval (-B, B): 0, B/2 or -B/2."""
    out = []
    for roots in ((0, 1, -3), (0, 2, 5), (0, -1, 4)):
        out.append(IntPoly.from_roots(roots))
    for a in range(-6, 7):
        for b in range(a + 1, 7):
            for c in range(b + 1, 7):
                p = IntPoly.from_roots((a, b, c))
                half = Fraction(cauchy_root_bound(p), 2)
                if half in (a, b, c) or -half in (a, b, c):
                    out.append(p)
    return out


class TestSpectralRadiusOneChain:
    """spectral_radius_of_charpoly isolates both ends of the spectrum on one
    square-free part and one Sturm chain; tests/oracles.py keeps the two
    independent isolations it replaced."""

    @staticmethod
    def assert_same_radius(p):
        try:
            ref = oracles.spectral_radius_two_isolations(p)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                spectral_radius_of_charpoly(p)
            return
        got = spectral_radius_of_charpoly(p)
        assert (got.poly, got.lo, got.hi) == (ref.poly, ref.lo, ref.hi)
        assert got.to_json() == ref.to_json()

    def test_sweep_charpolys_of_corpus5(self, corpus5_charpolys):
        assert len(corpus5_charpolys) > 200
        for p in corpus5_charpolys:
            self.assert_same_radius(p)

    def test_random_polys(self):
        rng = random.Random(20)
        for _ in range(150):
            # real-rooted with repeated and rational roots
            roots = [rng.randint(-7, 7) for _ in range(rng.randint(1, 6))]
            self.assert_same_radius(IntPoly.from_roots(roots) * IntPoly((rng.choice([-1, 1]), 2)))
            # mostly not real-rooted, some with no real root at all
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 8))] + [rng.randint(1, 3)]
            self.assert_same_radius(IntPoly(coeffs))
        self.assert_same_radius(IntPoly((1, 0, 1)))  # no real root

    def test_root_at_a_bisection_midpoint(self):
        polys = midpoint_root_polys()
        assert len(polys) > 3
        for p in polys:
            self.assert_same_radius(p)

    def test_symmetric_spectrum(self):
        # bipartite charpolys: both ends tie, and the largest root wins
        for p in (IntPoly((-2, 0, 1)), IntPoly((1, 0, -3, 0, 1)), IntPoly((0, -3, 0, 1))):
            self.assert_same_radius(p)
            got = spectral_radius_of_charpoly(p)
            assert got.poly == squarefree_part(p)

    def test_degree_one(self):
        for p in (IntPoly((-3, 1)), IntPoly((1, 2)), IntPoly((9, -6, 1)), IntPoly((0, 1))):
            self.assert_same_radius(p)
            assert spectral_radius_of_charpoly(p).is_exact

    def test_one_squarefree_part_and_one_chain_per_call(self, monkeypatch):
        counts = {"squarefree_part": 0, "sturm_chain": 0}
        for name in counts:
            original = getattr(polynomials, name)

            def counting(q, name=name, original=original):
                counts[name] += 1
                return original(q)

            monkeypatch.setattr(polynomials, name, counting)
        # path P4 (symmetric), the worked example's D1 (both ends refined)
        # and a cubic whose smallest root is the radius
        for p in (IntPoly((1, 0, -3, 0, 1)), IntPoly((2, 2, -5, 0, 1)), IntPoly.from_roots((-3, 1, 2))):
            for name in counts:
                counts[name] = 0
            spectral_radius_of_charpoly(p).to_json()
            assert counts == {"squarefree_part": 1, "sturm_chain": 1}


class TestNumericEigenvalues:
    def test_c4_spectrum(self, c4):
        vals = eigenvalues_numeric(hermitian_adjacency(MixedGraph.undirected(c4)))
        assert vals == pytest.approx([-2, 0, 0, 2], abs=1e-8)

    def test_d1_values(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        h = hermitian_adjacency(build_mixed(ex1, ex1_path_tree, sv))
        vals = eigenvalues_numeric(h)
        assert abs(vals[-1] - 1.814) < 1e-3
        assert abs(vals[0] + 2.343) < 1e-3

    def test_matches_numpy_oracle(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(1, 7)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            states = {}
            for e in edges:
                r = rng.random()
                states[e] = None if r < 1 / 3 else (e if r < 2 / 3 else (e[1], e[0]))
            d = MixedGraph.of(Graph.of(n, edges), states)
            ours = eigenvalues_numeric(hermitian_adjacency(d), eps=1e-10)
            ref = oracles.numpy_eigenvalues(d)
            assert ours == pytest.approx(ref, abs=1e-7)

    @pytest.mark.parametrize("draw", [142, 144])
    def test_eps_below_float_resolution(self, draw):
        # at eps = 1e-30 the off-diagonal norm of these falls only linearly,
        # by about 0.6 a sweep, and was still above eps / 14 after 80 sweeps
        d = random_mixed_k7(draw)
        vals = eigenvalues_numeric(hermitian_adjacency(d), eps=1e-30)
        assert vals == pytest.approx(oracles.numpy_eigenvalues(d), abs=1e-12)

    def test_jacobi_reports_a_target_it_cannot_meet(self):
        big = hermitian._real_embedding(hermitian_adjacency(random_mixed_k7(142)))
        with pytest.raises(ValueError, match="did not converge"):
            hermitian._jacobi_eigenvalues(big, 1e-30)

    def test_matches_exact_roots(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, 1))
        h = hermitian_adjacency(build_mixed(ex1, ex1_path_tree, sv))
        numeric = eigenvalues_numeric(h, eps=1e-11)
        phi = charpoly(h)
        from orispec.polynomials import roots_numeric

        assert numeric == pytest.approx(roots_numeric(phi), abs=1e-8)


class TestRankOneIdentity:
    def test_tree_case_reduces_to_laplacian(self):
        g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
        t = bfs_spanning_tree(g, 0)
        assert verify_rank_one_identity(g, t, SignVector.for_tree(g, t, ()))

    def test_c4_plus_sign(self, c4, c4_path_tree):
        sv = SignVector.for_tree(c4, c4_path_tree, (1,))
        assert verify_rank_one_identity(c4, c4_path_tree, sv)

    def test_ex1_all_sign_vectors(self, ex1, ex1_path_tree):
        for signs in sign_vectors(2):
            sv = SignVector.for_tree(ex1, ex1_path_tree, signs)
            assert verify_rank_one_identity(ex1, ex1_path_tree, sv)

    def test_witness_details(self, c4, c4_path_tree):
        sv = SignVector.for_tree(c4, c4_path_tree, (-1,))
        w = rank_one_witness(c4, c4_path_tree, sv)
        assert w.holds and w.psd_ok and w.ok
        assert w.first_mismatch is None
        assert w.max_degree == 2
        # Delta*I - D + J_T: the path's ends have degree 1 in the tree
        assert w.dominance_margins == (0, 0, 0, 0)

    def test_psd_certificate_rejects_a_negative_diagonal(self):
        # diag(0, -1) has nonnegative leading principal minors (0 and 0) but
        # the eigenvalue -1; weak diagonal dominance rejects it
        assert hermitian._dominance_margins([[0, 0], [0, -1]]) == (0, -1)
        assert hermitian._dominance_margins([[1, -2], [-2, 1]]) == (-1, -1)
        assert hermitian._dominance_margins([[2, -1], [-1, 1]]) == (1, 0)

    def test_psd_certificate_accepts_every_tree_of_corpus5(self, corpus5):
        for g in corpus5:
            for t in enumerate_spanning_trees(g):
                w = rank_one_witness(g, t, SignVector.for_tree(g, t, [1] * len(cotree_edges(g, t))))
                assert w.psd_ok and w.ok, (encode_graph6(g), sorted(t.tree_edges))

    def test_random_corpus_triples(self, corpus5):
        rng = random.Random(43)
        for _ in range(60):
            g = rng.choice(corpus5)
            t = bfs_spanning_tree(g, rng.randrange(g.n))
            co = cotree_edges(g, t)
            signs = tuple(rng.choice((-1, 1)) for _ in co)
            assert verify_rank_one_identity(g, t, SignVector.for_tree(g, t, signs))
