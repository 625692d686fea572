"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE k: PASS/FAIL`` line (run with -s or
read the captured output) and enforces the stated runtime budget where one
applies.  Every comparison that can be exact is exact; decimals appear only
where a tolerance is explicitly part of the criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager

import oracles
from orispec.explore import generate_corpus, min_rho_complete, min_rho_partial
from orispec.graphs import (
    Graph,
    MixedGraph,
    SignVector,
    bfs_spanning_tree,
    build_mixed,
    cotree_edges,
    enumerate_spanning_trees,
    sign_vectors,
    tree_from_edges,
)
from orispec.hermitian import (
    charpoly_of_mixed,
    eigenvalues_numeric,
    hermitian_adjacency,
    spectral_radius,
    verify_rank_one_identity,
)
from orispec.matching import matching_counts, matching_polynomial
from orispec.orientation import (
    audit_interlacing_family,
    conditional_sum_charpoly,
    conditional_sum_fast,
    expected_charpoly,
    greedy_orientation,
    verify_bound,
)
from orispec.polynomials import IntPoly, Order, compare_roots, isolate_largest_root
from orispec.switching import classify_partial_orientations, equiv_to_oriented, switching_equivalent

EX1 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
C4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PATH_TREE = [(0, 1), (1, 2), (2, 3)]


@contextmanager
def criterion(num: int, desc: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc} ({time.perf_counter() - start:.2f}s)")


def random_mixed(g, rng):
    states = {}
    for e in g.edges:
        r = rng.random()
        states[e] = None if r < 1 / 3 else (e if r < 2 / 3 else (e[1], e[0]))
    return MixedGraph.of(g, states)


def test_criterion_01_example_one():
    with criterion(1, "worked example 1: classes, eigenvalues, verdicts"):
        start = time.perf_counter()
        t = tree_from_edges(EX1, PATH_TREE)
        classes = classify_partial_orientations(EX1, t)
        assert [len(c) for c in classes] == [2, 2]
        class_polys = {}
        for members in classes:
            phis = {charpoly_of_mixed(build_mixed(EX1, t, sv)) for sv in members}
            assert len(phis) == 1
            class_polys[str(next(iter(phis)))] = members[0]
        assert set(class_polys) == {"x^4-5x^2+2x+2", "x^4-5x^2-2x+2"}

        d1 = build_mixed(EX1, t, class_polys["x^4-5x^2+2x+2"])
        vals = eigenvalues_numeric(hermitian_adjacency(d1))
        assert abs(vals[-1] - 1.814) < 1e-3
        assert abs(vals[0] - (-2.343)) < 1e-3

        assert verify_bound(EX1, t, class_polys["x^4-5x^2+2x+2"]) is Order.LT
        assert verify_bound(EX1, t, class_polys["x^4-5x^2-2x+2"]) is Order.GT
        assert time.perf_counter() - start < 1.0


def test_criterion_02_example_two():
    with criterion(2, "worked example 2: C4 classes, oriented classes, radii"):
        start = time.perf_counter()
        t = tree_from_edges(C4, PATH_TREE)
        mu = matching_polynomial(C4)
        classes = classify_partial_orientations(C4, t)
        assert len(classes) == 1
        phi = charpoly_of_mixed(build_mixed(C4, t, classes[0][0]))
        assert phi == mu and str(phi) == "x^4-4x^2+2"
        assert verify_bound(C4, t, classes[0][0]) is Order.EQ
        assert equiv_to_oriented(C4, t) is False

        # every complete orientation, partitioned by switching
        oriented = []
        for dirs in itertools.product((0, 1), repeat=4):
            states = {
                e: (e if b == 0 else (e[1], e[0])) for e, b in zip(C4.edge_list, dirs)
            }
            oriented.append(MixedGraph.of(C4, states))
        reps: list[MixedGraph] = []
        for d in oriented:
            if not any(switching_equivalent(rep, d) for rep in reps):
                reps.append(d)
        assert len(reps) == 2
        by_poly = {str(charpoly_of_mixed(d)): d for d in reps}
        assert set(by_poly) == {"x^4-4x^2+4", "x^4-4x^2"}
        rho_flat = spectral_radius(hermitian_adjacency(by_poly["x^4-4x^2+4"]))
        rho_full = spectral_radius(hermitian_adjacency(by_poly["x^4-4x^2"]))
        assert abs(float(rho_flat) - 1.414) < 1e-3
        assert abs(float(rho_full) - 2.0) < 1e-3
        assert time.perf_counter() - start < 1.0


def test_criterion_03_expectation_sweep():
    with criterion(3, "expected charpoly equals matching polynomial, n <= 6, all BFS roots"):
        start = time.perf_counter()
        for g in generate_corpus(6):
            mu = matching_polynomial(g)
            for root in range(g.n):
                assert expected_charpoly(g, bfs_spanning_tree(g, root)) == mu
            # the lemma by enumeration too, independent of the matching expansion
            t = bfs_spanning_tree(g, 0)
            m = len(cotree_edges(g, t))
            assert conditional_sum_charpoly(g, t) == mu * (1 << m)
        assert time.perf_counter() - start < 60.0


def test_criterion_04_greedy_sweep():
    with criterion(4, "greedy verdict is LT or EQ, n <= 6, m <= 8, all BFS trees"):
        start = time.perf_counter()
        for g in generate_corpus(6):
            if len(g.edges) - (g.n - 1) > 8:
                continue
            for root in range(g.n):
                cert = greedy_orientation(g, bfs_spanning_tree(g, root))
                assert cert.verdict in (Order.LT, Order.EQ)
        assert time.perf_counter() - start < 60.0


def test_criterion_05_interlacing_audit():
    with criterion(5, "interlacing audit passes on corpus instances with m <= 6"):
        for g in generate_corpus(6):
            if len(g.edges) - (g.n - 1) > 6:
                continue
            report = audit_interlacing_family(g, bfs_spanning_tree(g, 0))
            assert report.passed, report.violations


def test_criterion_06_rank_one_identity():
    with criterion(6, "rank-one identity on 200 random corpus triples"):
        rng = random.Random(2026)
        corpus = generate_corpus(6)
        for _ in range(200):
            g = rng.choice(corpus)
            t = bfs_spanning_tree(g, rng.randrange(g.n))
            signs = tuple(rng.choice((-1, 1)) for _ in cotree_edges(g, t))
            assert verify_rank_one_identity(g, t, SignVector.for_tree(g, t, signs))


def test_criterion_07_switching_algebra():
    with criterion(7, "switching vs brute force (n <= 5); parity vs even cycles (n <= 6)"):
        rng = random.Random(2027)
        for g in generate_corpus(5):
            t = bfs_spanning_tree(g, 0)
            co = cotree_edges(g, t)
            ds = [
                build_mixed(g, t, SignVector.for_tree(g, t, s))
                for s in sign_vectors(len(co))
            ]
            if len(ds) > 8:
                pairs = [(rng.randrange(len(ds)), rng.randrange(len(ds))) for _ in range(40)]
            else:
                pairs = [(i, j) for i in range(len(ds)) for j in range(i, len(ds))]
            for i, j in pairs:
                cert = switching_equivalent(ds[i], ds[j])
                assert (cert is not None) == oracles.brute_switching_equivalent(ds[i], ds[j])
                if cert is not None:
                    assert cert.verify(ds[i], ds[j])
            # general mixed pairs, not tied to any tree
            for _ in range(3):
                d1, d2 = random_mixed(g, rng), random_mixed(g, rng)
                cert = switching_equivalent(d1, d2)
                assert (cert is not None) == oracles.brute_switching_equivalent(d1, d2)

        for g in generate_corpus(6):
            for t in enumerate_spanning_trees(g):
                expected = oracles.even_cycle_tree_condition(g, set(t.tree_edges))
                assert equiv_to_oriented(g, t) == expected


def test_criterion_08_bipartite_symmetry():
    with criterion(8, "bipartite coefficient vanishing, 100 random orientations each"):
        rng = random.Random(2028)
        for g in generate_corpus(7):
            if not g.is_bipartite() or g.n < 2:
                continue
            for _ in range(100):
                t = bfs_spanning_tree(g, rng.randrange(g.n))
                signs = tuple(rng.choice((-1, 1)) for _ in cotree_edges(g, t))
                phi = charpoly_of_mixed(build_mixed(g, t, SignVector.for_tree(g, t, signs)))
                for k, c in enumerate(phi.coeffs):
                    if (g.n - k) % 2 == 1:
                        assert c == 0


def test_criterion_09_oracle_equivalences():
    with criterion(9, "dual routes agree: charpoly, conditional sums, matching counts"):
        rng = random.Random(2029)
        corpus7 = generate_corpus(7)

        for _ in range(100):
            g = rng.choice(corpus7)
            d = random_mixed(g, rng)
            assert charpoly_of_mixed(d).coeffs == tuple(
                oracles.charpoly_of_mixed_by_interpolation(d)
            )

        for g in generate_corpus(6):
            t = bfs_spanning_tree(g, 0)
            m = len(cotree_edges(g, t))
            if m > 8:
                continue
            prefixes = [()] + [
                tuple(rng.choice((-1, 1)) for _ in range(rng.randint(1, m)))
                for _ in range(5)
                if m > 0
            ]
            for prefix in prefixes:
                assert conditional_sum_fast(g, t, prefix) == conditional_sum_charpoly(
                    g, t, prefix
                )

        for g in corpus7:
            assert matching_counts(g).counts == tuple(
                oracles.matching_counts_by_combinations(g)
            )


def test_criterion_10_conjecture_tiers():
    with criterion(10, "minimum-rho tiers for C4 and the example graph, exact"):
        c_root, _ = min_rho_complete(C4)
        p_root, _, _ = min_rho_partial(C4)
        sqrt2 = isolate_largest_root(IntPoly([-2, 0, 1]))
        assert compare_roots(c_root, sqrt2) is Order.EQ
        assert compare_roots(p_root, isolate_largest_root(IntPoly([2, 0, -4, 0, 1]))) is Order.EQ
        assert compare_roots(c_root, p_root) is Order.LT

        c_root, _ = min_rho_complete(EX1)
        p_root, _, _ = min_rho_partial(EX1)
        assert c_root.compare_rational(2) is Order.EQ
        assert p_root.compare_rational(2) is Order.EQ
        assert compare_roots(c_root, p_root) is Order.EQ
