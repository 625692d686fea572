from types import SimpleNamespace

import pytest

from orispec import (
    Graph,
    IntPoly,
    bfs_spanning_tree,
    cotree_edges,
    enumerate_spanning_trees,
    generate_corpus,
    graphs,
    hermitian,
    kernel,
    tree_from_edges,
)

# Worked example 1: K4 minus one edge plus nothing -- the 4-vertex graph
# with edges {01, 12, 23, 03, 13}; its two named spanning trees.
EX1_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
EX1_PATH_TREE = [(0, 1), (1, 2), (2, 3)]
EX1_STAR_TREE = [(0, 1), (1, 2), (1, 3)]

# Worked example 2: the 4-cycle with its path tree.
C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]
C4_PATH_TREE = [(0, 1), (1, 2), (2, 3)]


@pytest.fixture
def ex1():
    return Graph.of(4, EX1_EDGES)


@pytest.fixture
def ex1_path_tree(ex1):
    return tree_from_edges(ex1, EX1_PATH_TREE)


@pytest.fixture
def ex1_star_tree(ex1):
    return tree_from_edges(ex1, EX1_STAR_TREE)


@pytest.fixture
def c4():
    return Graph.of(4, C4_EDGES)


@pytest.fixture
def c4_path_tree(c4):
    return tree_from_edges(c4, C4_PATH_TREE)


@pytest.fixture(scope="session")
def corpus5():
    return generate_corpus(5)


@pytest.fixture(scope="session")
def corpus6():
    return generate_corpus(6)


@pytest.fixture(scope="session")
def corpus7():
    return generate_corpus(7)


@pytest.fixture(scope="session")
def corpus5_charpolys(corpus5):
    """Every distinct charpoly the explore searches meet on corpus5, sorted:
    partial orientations over every spanning tree (the converse halves) and
    complete ones over the BFS tree, each from the table of its own tree."""
    polys = set()
    for g in corpus5:
        bfs = bfs_spanning_tree(g, 0)
        sweeps = [(t, ()) for t in enumerate_spanning_trees(g)] + [(bfs, sorted(bfs.tree_edges))]
        for t, arcs in sweeps:
            co = cotree_edges(g, t)
            table = hermitian.GainTable(g.n, t.tree_edges, co)
            polys.update(map(table.unpack, table.sweep(arcs, co, half=not arcs)))
    return [IntPoly(p) for p in sorted(polys)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The order n of every `kernel.charpoly_flat` call, in call order."""
    calls = []
    charpoly_flat = kernel.charpoly_flat

    def counting(re, im, n):
        calls.append(n)
        return charpoly_flat(re, im, n)

    monkeypatch.setattr(kernel, "charpoly_flat", counting)
    return calls


@pytest.fixture
def gain_tables(monkeypatch):
    """Every `hermitian.GainTable` built (its cotree size m), every coset it
    transforms (its parity) and every sweep read from it (whether it has
    fixed arcs, and its length), in call order."""
    record = SimpleNamespace(built=[], cosets=[], sweeps=[])
    table = hermitian.GainTable
    init, coset, sweep = table.__init__, table.coset, table.sweep

    def counting_init(self, n, tree_edges, cotree):
        init(self, n, tree_edges, cotree)
        record.built.append(self.m)

    def counting_coset(self, parity):
        record.cosets.append(parity)
        return coset(self, parity)

    def counting_sweep(self, arcs, signed, half=False):
        out = sweep(self, arcs, signed, half)
        record.sweeps.append((bool(arcs), len(out)))
        return out

    monkeypatch.setattr(table, "__init__", counting_init)
    monkeypatch.setattr(table, "coset", counting_coset)
    monkeypatch.setattr(table, "sweep", counting_sweep)
    return record


@pytest.fixture
def spanning_trees_built(monkeypatch):
    """Every `graphs.SpanningTree` constructed, in construction order."""
    built = []
    post_init = graphs.SpanningTree.__post_init__

    def counting(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(graphs.SpanningTree, "__post_init__", counting)
    return built
