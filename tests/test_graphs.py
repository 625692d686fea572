import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orispec import graphs
from orispec.errors import DisconnectedError, GuardLimit, ParseError
from orispec.graphs import (
    Graph,
    MixedGraph,
    SignVector,
    SpanningTree,
    bfs_spanning_tree,
    build_mixed,
    encode_graph6,
    enumerate_spanning_trees,
    format_mixed,
    parse_edge_list,
    parse_graph6,
    parse_mixed,
    sign_vectors,
    spanning_tree_masks,
    tree_from_edges,
    tree_from_mask,
    tree_parity_bipartition,
)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    # random spanning tree plus random extra edges: connected by construction
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return Graph.of(n, edges)


class TestGraph:
    def test_of_normalizes(self):
        g = Graph.of(3, [(2, 1), (0, 1)])
        assert g.edge_list == ((0, 1), (1, 2))

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph.of(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.of(3, [(0, 3)])

    def test_adjacency_and_degree(self, ex1):
        assert ex1.degree(1) == 3
        assert ex1.degree(0) == 2
        assert ex1.max_degree() == 3
        assert sorted(ex1.adjacency[3]) == [0, 1, 2]

    def test_connectivity(self):
        g = Graph.of(4, [(0, 1), (2, 3)])
        assert not g.is_connected()
        with pytest.raises(DisconnectedError):
            g.require_connected()
        assert Graph.of(1, []).is_connected()

    def test_bipartite(self, c4, ex1):
        assert c4.is_bipartite()
        assert not ex1.is_bipartite()

    def test_bipartite_matches_networkx(self, corpus6):
        nx = pytest.importorskip("networkx")
        # the corpus, and disconnected graphs with a bipartite first component
        c4_and_triangle = Graph.of(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
        two_paths = Graph.of(5, [(0, 1), (2, 3), (3, 4)])
        for g in [*corpus6, c4_and_triangle, two_paths, Graph.of(3, [])]:
            h = nx.Graph(g.edge_list)
            h.add_nodes_from(range(g.n))
            assert g.is_bipartite() == nx.is_bipartite(h), g.edge_list

    def test_bipartite_visits_each_vertex_once(self, monkeypatch):
        # one walk per component, over one shared parent list
        visited = []
        bfs = graphs._bfs

        def recording(*args):
            parent, order = bfs(*args)
            visited.extend(order)
            return parent, order

        monkeypatch.setattr(graphs, "_bfs", recording)
        g = Graph.of(9, [(1, 2), (2, 3), (5, 6), (6, 7), (5, 7)])
        assert not g.is_bipartite()
        assert sorted(visited) == list(range(9))

    def test_neighbour_masks_match_adjacency(self, corpus6):
        for g in [*corpus6, Graph.of(4, [(0, 1), (2, 3)]), Graph.of(0, [])]:
            assert g.neighbour_masks == tuple(sum(1 << w for w in a) for a in g.adjacency)


class TestParsing:
    def test_edge_list_basic(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3 and g.edge_list == ((0, 1), (1, 2))

    def test_edge_list_example_graph(self, ex1):
        g = parse_edge_list("0 1\n1 2\n2 3\n0 3\n1 3")
        assert g == ex1

    def test_edge_list_header_and_comments(self):
        g = parse_edge_list("n=5\n# a comment\n0 1\n\n1 2")
        assert g.n == 5
        assert g.edge_list == ((0, 1), (1, 2))

    def test_edge_list_errors_name_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("0 0")
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n2")
        with pytest.raises(ParseError):
            parse_edge_list("n=2\n0 5")

    @pytest.mark.parametrize(
        "text, edge_list, mixed",
        [
            ("0 1\n2", "line 2: expected 'u v', got '2'", "line 2: expected 'u v' or 'u > v', got '2'"),
            ("0 < 1", "line 1: expected 'u v', got '0 < 1'", "line 1: expected 'u v' or 'u > v', got '0 < 1'"),
            ("0 > 1 > 2", "line 1: expected 'u v', got '0 > 1 > 2'", "line 1: expected 'u v' or 'u > v', got '0 > 1 > 2'"),
            ("0 > x", "line 1: expected 'u v', got '0 > x'", "line 1: non-integer vertex in '0 > x'"),
            ("a b", "line 1: non-integer vertex in 'a b'", "line 1: non-integer vertex in 'a b'"),
            ("3 -2", "line 1: negative vertex label", "line 1: negative vertex label"),
            ("2 > 2", "line 1: expected 'u v', got '2 > 2'", "line 1: loop at vertex 2"),
            ("0 0", "line 1: loop at vertex 0", "line 1: loop at vertex 0"),
            ("0 0\nn=3", "line 2: vertex-count header must come first", "line 2: vertex-count header must come first"),
            ("n=x", "line 1: bad vertex count 'x'", "line 1: bad vertex count 'x'"),
            ("n=-1", "line 1: negative vertex count", "line 1: negative vertex count"),
            ("# c", "edge list: no edges and no n=<count> header", "mixed graph: no edges and no n=<count> header"),
            ("n=3\n2 > 5", "line 2: expected 'u v', got '2 > 5'", "mixed graph: vertex 5 outside declared range n=3"),
            ("n=2\n0 5", "edge list: vertex 5 outside declared range n=2", "mixed graph: vertex 5 outside declared range n=2"),
            ("0 1\n1 0", "edge list: duplicate edge (0, 1)", "mixed graph: duplicate edge (0, 1)"),
            ("1 > 0\n0 1", "line 1: expected 'u v', got '1 > 0'", "mixed graph: duplicate edge (0, 1)"),
        ],
    )
    def test_error_messages(self, text, edge_list, mixed):
        for parse, message in ((parse_edge_list, edge_list), (parse_mixed, mixed)):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == message

    def test_mixed_roundtrip(self):
        d = parse_mixed("n=4\n0 1\n1 > 2\n3 > 2")
        assert d.direction(0, 1) is None
        assert d.direction(1, 2) == (1, 2)
        assert d.direction(2, 3) == (3, 2)
        assert parse_mixed(format_mixed(d)) == d

    def test_graph6_k4(self):
        g = parse_graph6("C~")
        assert g.n == 4 and len(g.edges) == 6

    def test_graph6_rejects_bad_input(self):
        with pytest.raises(ParseError):
            parse_graph6("")
        with pytest.raises(ParseError):
            parse_graph6("C")  # truncated bit block

    def test_graph6_roundtrip_small(self, c4, ex1):
        for g in (c4, ex1, Graph.of(1, []), Graph.of(2, [(0, 1)])):
            assert parse_graph6(encode_graph6(g)) == g

    @pytest.mark.parametrize("n", [1, 62, 63, 64, 100, 300])
    def test_graph6_long_form_matches_networkx(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        h = nx.gnp_random_graph(n, 0.1, seed=rng.randrange(2**32))
        g = Graph.of(n, h.edges())
        ours = encode_graph6(g)
        assert ours == nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours.startswith("~") == (n > 62)
        assert parse_graph6(ours) == g
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges)

    def test_graph6_size_limits(self):
        with pytest.raises(ParseError, match="more than 258047 vertices"):
            parse_graph6("~~??????")
        with pytest.raises(ParseError, match="three more characters"):
            parse_graph6("~?@")
        with pytest.raises(ValueError, match="at most 258047 vertices"):
            encode_graph6(Graph(258048, frozenset()))

    def test_graph6_matches_networkx(self, corpus6):
        nx = pytest.importorskip("networkx")
        for g in corpus6:
            ours = encode_graph6(g)
            h = nx.from_graph6_bytes(ours.encode())
            assert h.number_of_nodes() == g.n
            assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges)
            back = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert back == ours


class TestSpanningTrees:
    def test_bfs_tree_c4(self, c4):
        t = bfs_spanning_tree(c4, 0)
        assert t.tree_edges == frozenset({(0, 1), (0, 3), (1, 2)})
        assert t.depth == (0, 1, 2, 1)

    def test_bfs_single_vertex(self):
        t = bfs_spanning_tree(Graph.of(1, []), 0)
        assert t.tree_edges == frozenset()
        assert t.parent == (0,)

    def test_parent_map_with_a_cycle(self):
        # n - 1 distinct edges, yet the cycle 1 - 2 - 3 never reaches the root
        with pytest.raises(ValueError, match="edges do not form a spanning tree"):
            SpanningTree(0, frozenset({(1, 2), (2, 3), (1, 3)}))

    @pytest.mark.parametrize(
        "root, edges, message",
        [
            (3, {(0, 1), (1, 2)}, r"root 3 outside vertex range"),
            (-1, {(0, 1), (1, 2)}, r"root -1 outside vertex range"),
            (0, {(1, 0), (1, 2)}, r"edge \(1, 0\) is not normalized inside 0..2"),
            (0, {(0, 1), (1, 3)}, r"edge \(1, 3\) is not normalized inside 0..2"),
            (0, {(0, 1), (2, 3), (3, 4), (2, 4)}, r"edges do not form a spanning tree"),
        ],
        ids=["root-past-n", "negative-root", "reversed-edge", "edge-past-n", "cycle-missing-root"],
    )
    def test_constructor_refusals(self, root, edges, message):
        with pytest.raises(ValueError, match=message):
            SpanningTree(root, frozenset(edges))

    def test_equality_is_root_and_edges(self):
        a = SpanningTree(1, frozenset({(0, 1), (1, 2)}))
        assert a == SpanningTree(1, frozenset({(1, 2), (0, 1)}))
        assert a != SpanningTree(0, frozenset({(0, 1), (1, 2)}))
        assert (a.parent, a.order, a.depth) == ((1, 1, 1), (1, 0, 2), (1, 0, 1))

    def test_bfs_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            bfs_spanning_tree(Graph.of(3, [(0, 1)]), 0)

    def test_tree_from_edges_validates(self, ex1):
        with pytest.raises(ValueError):
            tree_from_edges(ex1, [(0, 1), (1, 2)])  # too few
        with pytest.raises(ValueError):
            tree_from_edges(ex1, [(0, 1), (1, 2), (0, 2)])  # not host edges

    def test_tree_from_edges_names_a_repeated_edge(self):
        # 1-0 is 0-1 again: counted once it left one edge short of n-1, or
        # with a third edge passed silently
        triangle = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="tree edge 1-0 is given twice"):
            tree_from_edges(triangle, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="tree edge 1-0 is given twice"):
            tree_from_edges(triangle, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(ValueError, match="tree edge 0-1 is given twice"):
            tree_from_edges(triangle, [(0, 1), (1, 2), (0, 1)])

    def test_tree_from_edges_rejects_a_root_outside_the_graph(self, ex1):
        with pytest.raises(ValueError, match="root 4 outside vertex range"):
            tree_from_edges(ex1, [(0, 1), (1, 2), (2, 3)], root=4)

    def test_enumerate_counts(self, c4, ex1):
        assert len(enumerate_spanning_trees(Graph.of(3, [(0, 1), (1, 2)]))) == 1
        assert len(enumerate_spanning_trees(c4)) == 4
        assert len(enumerate_spanning_trees(ex1)) == 8

    def test_enumerate_guard(self):
        big = Graph.of(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
        with pytest.raises(GuardLimit):
            enumerate_spanning_trees(big)

    def test_enumerate_matches_kirchhoff_corpus6(self, corpus6):
        for g in corpus6:
            trees = enumerate_spanning_trees(g)
            assert len(trees) == oracles.kirchhoff_tree_count(g)
            assert len({t.tree_edges for t in trees}) == len(trees)

    def test_enumerate_matches_kirchhoff_corpus7_sample(self, corpus7):
        rng = random.Random(41)
        seven = [g for g in corpus7 if g.n == 7]
        for g in rng.sample(seven, 40):
            trees = enumerate_spanning_trees(g)
            assert len(trees) == oracles.kirchhoff_tree_count(g)
            assert len({t.tree_edges for t in trees}) == len(trees)

    def test_bfs_tree_invariants_random(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            for root in range(g.n):
                t = bfs_spanning_tree(g, root)
                assert t.root == root and t.parent[root] == root
                assert len(t.tree_edges) == g.n - 1
                assert t.tree_edges <= g.edges
                for v in range(g.n):
                    # walk to the root; depth decreases by one each step
                    u, steps = v, 0
                    while u != root:
                        u = t.parent[u]
                        steps += 1
                        assert steps <= g.n
                    assert steps == t.depth[v]


    def test_bfs_parents_match_networkx(self, corpus6):
        nx = pytest.importorskip("networkx")
        for g in corpus6:
            h = nx.Graph(g.edge_list)
            h.add_nodes_from(range(g.n))
            for root in range(g.n):
                parent = dict(enumerate(bfs_spanning_tree(g, root).parent))
                del parent[root]
                assert parent == dict(nx.bfs_predecessors(h, root, sort_neighbors=sorted))

    @staticmethod
    def assert_parents_first(t: SpanningTree) -> None:
        assert sorted(t.order) == list(range(t.n)) and t.order[0] == t.root
        place = {v: k for k, v in enumerate(t.order)}
        assert all(place[t.parent[v]] < place[v] for v in t.order[1:])

    def test_order_lists_parents_first(self, corpus6):
        for g in corpus6:
            for root in range(g.n):
                self.assert_parents_first(bfs_spanning_tree(g, root))
            for mask in spanning_tree_masks(g):
                self.assert_parents_first(tree_from_mask(g, mask))

    def test_mask_trees_are_the_constructor_on_their_edges(self, corpus6):
        # parent and order are networkx's walk of the tree alone, neighbours
        # ascending: parents first, each vertex's children ascending
        nx = pytest.importorskip("networkx")
        for g in corpus6:
            for mask in spanning_tree_masks(g):
                t = tree_from_mask(g, mask)
                assert t == SpanningTree(0, t.tree_edges)
                h = nx.Graph(sorted(t.tree_edges))
                h.add_nodes_from(range(g.n))
                parent = dict(enumerate(t.parent))
                del parent[0]
                assert parent == dict(nx.bfs_predecessors(h, 0, sort_neighbors=sorted))
                walk = nx.bfs_edges(h, 0, sort_neighbors=sorted)
                assert t.order == (0, *(v for _, v in walk))

    def test_each_tree_is_walked_once(self, ex1, monkeypatch):
        walks = []
        bfs = graphs._bfs

        def counting(*args):
            walks.append(args[1])
            return bfs(*args)

        monkeypatch.setattr(graphs, "_bfs", counting)
        masks = list(spanning_tree_masks(ex1))  # checks connectivity with one walk
        walks.clear()
        for mask in masks:
            tree_from_mask(ex1, mask)
        tree_from_edges(ex1, [(0, 1), (1, 2), (2, 3)], root=2)
        assert walks == [0] * len(masks) + [2]


def grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if v % cols < cols - 1]
    return Graph.of(rows * cols, edges + [(v, v + cols) for v in range((rows - 1) * cols)])


PETERSEN = Graph.of(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
K7 = Graph.of(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])


def mask_of(g: Graph, edges) -> int:
    top = len(g.edge_list) - 1
    return sum(1 << (top - g.edge_list.index(e)) for e in edges)


class TestSpanningTreeMasks:
    """`spanning_tree_masks` against the include/exclude recursion it
    replaced (tests/oracles.py), tree for tree and in order."""

    @staticmethod
    def assert_matches_reference(g: Graph, count: int | None = None, trees: bool = True) -> None:
        reference = oracles.spanning_tree_edges_by_recursion(g)
        masks = list(spanning_tree_masks(g))
        assert masks == [mask_of(g, edges) for edges in reference]
        assert masks == sorted(set(masks), reverse=True)
        if count is not None:
            assert len(masks) == count
        if trees:
            listed = enumerate_spanning_trees(g, guard=False)
            assert listed == [tree_from_edges(g, edges) for edges in reference]
            assert listed == [tree_from_mask(g, mask) for mask in masks]

    def test_corpus6(self, corpus6):
        for g in corpus6:
            self.assert_matches_reference(g)

    @pytest.mark.parametrize(
        "g, count",
        [(Graph.of(1, []), 1), (PETERSEN, 2000), (grid(3, 4), 2415), (K7, 16807)],
        ids=["n1", "petersen", "grid3x4", "k7"],
    )
    def test_named_graphs(self, g, count):
        self.assert_matches_reference(g, count)

    def test_grid4x4(self):
        # masks only: `enumerate_spanning_trees` maps them, as checked above
        self.assert_matches_reference(grid(4, 4), 100352, trees=False)

    def test_n1_is_the_empty_tree(self):
        assert list(spanning_tree_masks(Graph.of(1, []))) == [0]
        assert enumerate_spanning_trees(Graph.of(1, [])) == [SpanningTree(0, frozenset())]

    def test_disconnected_and_empty_graphs_are_rejected(self):
        with pytest.raises(DisconnectedError):
            spanning_tree_masks(Graph.of(3, [(0, 1)]))
        with pytest.raises(DisconnectedError):
            spanning_tree_masks(Graph.of(0, []))

    def test_tree_from_mask_rejects_non_trees(self, ex1):
        # ex1's edges ascending: 01 03 12 13 23; 01, 03, 13 close a triangle
        assert ex1.edge_list == ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3))
        with pytest.raises(ValueError):
            tree_from_mask(ex1, 0b11010)
        with pytest.raises(ValueError):
            tree_from_mask(ex1, 0b11000)


class TestParityAndCycles:
    def test_parity_path(self):
        g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
        t = bfs_spanning_tree(g, 0)
        evens, odds = tree_parity_bipartition(t)
        assert evens == frozenset({0, 2}) and odds == frozenset({1, 3})

    def test_parity_star(self):
        g = Graph.of(4, [(0, 1), (0, 2), (0, 3)])
        t = bfs_spanning_tree(g, 0)
        evens, odds = tree_parity_bipartition(t)
        assert evens == frozenset({0}) and odds == frozenset({1, 2, 3})

    def test_parity_single_vertex(self):
        t = bfs_spanning_tree(Graph.of(1, []), 0)
        assert tree_parity_bipartition(t) == (frozenset({0}), frozenset())


class TestMixedGraphs:
    def test_build_mixed_tree_only(self):
        g = Graph.of(3, [(0, 1), (1, 2)])
        t = bfs_spanning_tree(g, 0)
        d = build_mixed(g, t, SignVector.for_tree(g, t, ()))
        assert d.is_fully_oriented() is False
        assert d.arcs() == ()
        assert d == MixedGraph.undirected(g)

    def test_build_mixed_c4(self, c4, c4_path_tree):
        sv = SignVector.for_tree(c4, c4_path_tree, (1,))
        d = build_mixed(c4, c4_path_tree, sv)
        assert d.arcs() == ((0, 3),)
        assert len(d.undirected_edges()) == 3

    def test_build_mixed_both_signs(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        d = build_mixed(ex1, ex1_path_tree, sv)
        assert d.direction(0, 3) == (0, 3)
        assert d.direction(1, 3) == (3, 1)

    def test_phase_convention(self, ex1, ex1_path_tree):
        sv = SignVector.for_tree(ex1, ex1_path_tree, (1, -1))
        d = build_mixed(ex1, ex1_path_tree, sv)
        assert d.phase(0, 3) == 1 and d.phase(3, 0) == 3
        assert d.phase(1, 3) == 3 and d.phase(3, 1) == 1
        assert d.phase(0, 1) == 0

    def test_sign_vector_validation(self, ex1, ex1_path_tree):
        with pytest.raises(ValueError):
            SignVector.for_tree(ex1, ex1_path_tree, (1,))
        with pytest.raises(ValueError):
            SignVector.for_tree(ex1, ex1_path_tree, (1, 2))
        # checked before int(): 1.5 must not pass as +1
        with pytest.raises(ValueError):
            SignVector.for_tree(ex1, ex1_path_tree, (1, 1.5))
        assert SignVector.for_tree(ex1, ex1_path_tree, (1.0, -1.0)).signs == (1, -1)

    def test_sign_vectors_order(self):
        assert list(sign_vectors(2)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_graph6_roundtrip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = Graph.of(n, edges)
    assert parse_graph6(encode_graph6(g)) == g
