import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orispec.graphs import Graph
from orispec.matching import (
    MatchingProfile,
    induced_matching_polynomials,
    matching_counts,
    matching_polynomial,
    matching_radius,
)
from orispec.polynomials import IntPoly, Order


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


def polynomial_from_counts(n, counts):
    coeffs = [0] * (n + 1)
    for k, m_k in enumerate(counts):
        coeffs[n - 2 * k] = (-1) ** k * m_k
    return IntPoly(coeffs)


class TestMatchingProfile:
    def test_rejects_bad_head(self):
        with pytest.raises(ValueError):
            MatchingProfile(())
        with pytest.raises(ValueError):
            MatchingProfile((2, 1))

    def test_max_size(self):
        assert MatchingProfile((1, 4, 2)).max_size == 2


class TestMatchingCounts:
    def test_empty_graph(self):
        assert matching_counts(Graph.of(3, [])).counts == (1,)

    def test_single_edge(self):
        assert matching_counts(Graph.of(2, [(0, 1)])).counts == (1, 1)

    def test_example_graph(self, ex1):
        # 5 edges, 4 disjoint pairs
        assert matching_counts(ex1).counts == (1, 5, 2)

    def test_c4(self, c4):
        assert matching_counts(c4).counts == (1, 4, 2)

    def test_matches_enumeration_on_full_corpus(self, corpus7):
        for g in corpus7:
            assert matching_counts(g).counts == tuple(oracles.matching_counts_by_combinations(g))

    @pytest.mark.parametrize("rows, cols", [(3, 5), (4, 4), (2, 8)])
    def test_matches_enumeration_on_grids(self, rows, cols):
        g = grid(rows, cols)
        assert matching_counts(g).counts == tuple(oracles.matching_counts_by_combinations(g))


class TestInducedMatchingPolynomials:
    def test_every_induced_subgraph_of_corpus6(self, corpus6):
        # the vertex-deleted subgraphs G - V(D) that the sign sweep expands over
        for g in corpus6:
            mu = induced_matching_polynomials(g)
            for mask in range(1 << g.n):
                keep = [v for v in range(g.n) if mask >> v & 1]
                index = {v: i for i, v in enumerate(keep)}
                inside = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
                sub = Graph.of(len(keep), inside)
                counts = oracles.matching_counts_by_combinations(sub)
                coeffs = mu(mask)
                assert len(coeffs) == len(keep) + 1
                assert IntPoly(coeffs) == polynomial_from_counts(len(keep), counts)

    def test_empty_mask(self):
        assert induced_matching_polynomials(Graph.of(3, [(0, 1)]))(0) == (1,)


class TestMatchingPolynomial:
    def test_example_graph(self, ex1):
        assert str(matching_polynomial(ex1)) == "x^4-5x^2+2"

    def test_c4(self, c4):
        assert str(matching_polynomial(c4)) == "x^4-4x^2+2"

    def test_parity_symmetry(self, corpus6):
        # mu(-x) = (-1)^n mu(x) for every graph
        for g in corpus6:
            mu = matching_polynomial(g)
            assert mu.reflected() == (mu if g.n % 2 == 0 else -mu)

    def test_isolated_vertices_factor_out(self):
        g = Graph.of(4, [(0, 1)])
        assert matching_polynomial(g).coeffs == (0, 0, -1, 0, 1)


class TestMatchingRadius:
    def test_worked_example_values(self, ex1, c4):
        assert abs(float(matching_radius(ex1)) - 2.1358) < 1e-3
        assert abs(float(matching_radius(c4)) - 1.8478) < 1e-3

    def test_single_vertex(self):
        assert matching_radius(Graph.of(1, [])).compare_rational(0) is Order.EQ

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            matching_radius(Graph.of(0, []))

    def test_tree_radius_equals_spectral_radius(self):
        # on a tree the matching polynomial is the characteristic polynomial
        from orispec.graphs import MixedGraph
        from orispec.hermitian import charpoly_of_mixed

        g = Graph.of(4, [(0, 1), (1, 2), (1, 3)])
        assert matching_polynomial(g) == charpoly_of_mixed(MixedGraph.undirected(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_counts_match_enumeration_random(n, data):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    g = Graph.of(n, edges)
    assert matching_counts(g).counts == tuple(oracles.matching_counts_by_combinations(g))
