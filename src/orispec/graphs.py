"""Graphs, spanning trees, and partial orientations.

Vertices are 0-based integers.  Undirected edges are normalized tuples
(u, v) with u < v.  A mixed graph keeps, for every edge of its underlying
simple graph, either no direction or an arc (tail, head); a partial
orientation is the special case where the undirected part is a spanning
tree and every cotree edge carries a direction.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DisconnectedError, ParseError, check_guard

Edge = tuple[int, int]

SPANNING_TREE_GUARD_N = 10


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not normalized inside 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(norm_edge(u, v) for u, v in edges))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = self._reach(0)
        return len(seen) == self.n

    def _reach(self, start: int) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def require_connected(self) -> None:
        if self.n == 0:
            raise DisconnectedError("graph has no vertices")
        seen = self._reach(0)
        if len(seen) != self.n:
            missing = min(set(range(self.n)) - seen)
            raise DisconnectedError(f"vertex {missing} is not reachable from vertex 0")

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adjacency[u]:
                    if color[w] < 0:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False
        return True


@dataclass(frozen=True)
class SpanningTree:
    """Rooted spanning tree of a host graph.

    parent[root] == root; every other vertex points one step toward the
    root along a tree edge.
    """

    root: int
    parent: tuple[int, ...]
    tree_edges: frozenset[Edge]
    # the number of tree edges between each vertex and the root
    depth: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.parent)
        if not (0 <= self.root < n) or n == 0:
            raise ValueError("root outside vertex range")
        if self.parent[self.root] != self.root:
            raise ValueError("root must be its own parent")
        if len(self.tree_edges) != n - 1:
            raise ValueError("a spanning tree on n vertices has n-1 edges")
        derived = set()
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v == self.root:
                continue
            p = self.parent[v]
            if not (0 <= p < n):
                raise ValueError(f"parent of {v} out of range")
            derived.add(norm_edge(v, p))
            children[p].append(v)
        if derived != set(self.tree_edges):
            raise ValueError("parent map and tree edge set disagree")
        # depths from the root down; a vertex never reached is on a cycle
        depth = [0] * n
        order = [self.root]
        for u in order:
            for v in children[u]:
                depth[v] = depth[u] + 1
                order.append(v)
        if len(order) < n:
            raise ValueError("parent map contains a cycle")
        object.__setattr__(self, "depth", tuple(depth))

    @property
    def n(self) -> int:
        return len(self.parent)


@dataclass(frozen=True)
class SignVector:
    """Signs attached to an ordered list of vertex pairs.

    For a partial orientation relative to a spanning tree the pairs are
    exactly the cotree edges in ascending order; sign +1 orients the edge
    from its smaller endpoint to its larger one, -1 the reverse.
    """

    edges: tuple[Edge, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.signs):
            raise ValueError("one sign per edge required")
        # compare before converting: int(1.5) would pass as +1
        for s in self.signs:
            if s not in (-1, 1):
                raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        for u, v in self.edges:
            if not u < v:
                raise ValueError("sign-vector edges must be normalized (u < v)")

    @classmethod
    def for_tree(cls, g: Graph, t: SpanningTree, signs: Sequence[int]) -> "SignVector":
        co = cotree_edges(g, t)
        if len(signs) != len(co):
            raise ValueError(f"expected {len(co)} signs for {len(co)} cotree edges, got {len(signs)}")
        return cls(co, signs)

    def __len__(self) -> int:
        return len(self.signs)

    def arc(self, j: int) -> tuple[int, int]:
        u, v = self.edges[j]
        return (u, v) if self.signs[j] == 1 else (v, u)


@dataclass(frozen=True)
class MixedGraph:
    """A simple graph with an orientation state per edge.

    ``states`` holds one (edge, direction) pair per underlying edge in
    ascending edge order; direction is None for an undirected edge or the
    (tail, head) pair of an arc.
    """

    graph: Graph
    states: tuple[tuple[Edge, tuple[int, int] | None], ...]

    def __post_init__(self) -> None:
        listed = [e for e, _ in self.states]
        if listed != sorted(self.graph.edges):
            raise ValueError("states must list every underlying edge once, in order")
        for e, d in self.states:
            if d is not None and set(d) != set(e):
                raise ValueError(f"arc {d} does not match edge {e}")

    @classmethod
    def of(cls, graph: Graph, directions: Mapping[Edge, tuple[int, int] | None]) -> "MixedGraph":
        states = []
        for e in sorted(graph.edges):
            d = directions.get(e)
            states.append((e, None if d is None else (int(d[0]), int(d[1]))))
        extra = set(directions) - set(graph.edges)
        if extra:
            raise ValueError(f"directions given for non-edges: {sorted(extra)}")
        return cls(graph, tuple(states))

    @classmethod
    def undirected(cls, graph: Graph) -> "MixedGraph":
        return cls(graph, tuple((e, None) for e in sorted(graph.edges)))

    @cached_property
    def _state_map(self) -> dict[Edge, tuple[int, int] | None]:
        return dict(self.states)

    def direction(self, u: int, v: int) -> tuple[int, int] | None:
        e = norm_edge(u, v)
        if e not in self._state_map:
            raise KeyError(f"no edge {e}")
        return self._state_map[e]

    def phase(self, u: int, v: int) -> int:
        """Exponent e with H[u][v] = i**e for the ordered pair (u, v).

        0 for an undirected edge, 1 for an arc u -> v, 3 for an arc v -> u.
        """
        d = self.direction(u, v)
        if d is None:
            return 0
        return 1 if d == (u, v) else 3

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(d for _, d in self.states if d is not None)

    def undirected_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, d in self.states if d is None)

    def is_fully_oriented(self) -> bool:
        return all(d is not None for _, d in self.states)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def _parse_header_and_lines(text: str) -> tuple[int | None, list[tuple[int, str]]]:
    declared = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if declared is not None or body:
                raise ParseError(f"line {lineno}: vertex-count header must come first")
            try:
                declared = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {line[2:]!r}") from None
            if declared < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            continue
        body.append((lineno, line))
    return declared, body


def _close_graph(declared: int | None, edges: list[Edge], where: str) -> Graph:
    if declared is None:
        if not edges:
            raise ParseError(f"{where}: no edges and no n=<count> header")
        n = max(max(e) for e in edges) + 1
    else:
        n = declared
        for u, v in edges:
            if v >= n:
                raise ParseError(f"{where}: vertex {v} outside declared range n={n}")
    seen = set()
    for e in edges:
        if e in seen:
            raise ParseError(f"{where}: duplicate edge {e}")
        seen.add(e)
    return Graph(n, frozenset(edges))


def _parse_pairs(text: str, arcs: bool) -> tuple[int | None, list[tuple[int, int, bool]]]:
    """The vertex-count header and one (u, v, is_arc) per line.  Lines are
    ``u v``, or also ``u > v`` when `arcs` is set."""
    declared, body = _parse_header_and_lines(text)
    pairs = []
    for lineno, line in body:
        parts = line.split()
        arc = arcs and len(parts) == 3 and parts[1] == ">"
        if len(parts) != 2 and not arc:
            shape = "'u v' or 'u > v'" if arcs else "'u v'"
            raise ParseError(f"line {lineno}: expected {shape}, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex label")
        if u == v:
            raise ParseError(f"line {lineno}: loop at vertex {u}")
        pairs.append((u, v, arc))
    return declared, pairs


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated vertex pairs, one edge per line.

    An optional first line ``n=<count>`` fixes the vertex count; otherwise
    it is the largest label plus one.  '#' starts a comment.
    """
    declared, pairs = _parse_pairs(text, arcs=False)
    return _close_graph(declared, [norm_edge(u, v) for u, v, _ in pairs], "edge list")


def parse_mixed(text: str) -> MixedGraph:
    """Parse mixed-graph text: lines ``u v`` (undirected) or ``u > v`` (arc)."""
    declared, pairs = _parse_pairs(text, arcs=True)
    g = _close_graph(declared, [norm_edge(u, v) for u, v, _ in pairs], "mixed graph")
    return MixedGraph.of(g, {norm_edge(u, v): (u, v) if arc else None for u, v, arc in pairs})


def format_mixed(d: MixedGraph) -> str:
    """Inverse of parse_mixed, one state per line in ascending edge order."""
    lines = [f"n={d.graph.n}"]
    for e, direction in d.states:
        if direction is None:
            lines.append(f"{e[0]} {e[1]}")
        else:
            lines.append(f"{direction[0]} > {direction[1]}")
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Decode a short-form graph6 string (n <= 62)."""
    s = text.strip()
    if not s:
        raise ParseError("empty graph6 string")
    if any(ord(ch) < 63 or ord(ch) > 126 for ch in s):
        raise ParseError("graph6 characters must be in the range 63..126")
    n = ord(s[0]) - 63
    if n > 62:
        raise ParseError("only short-form graph6 (n <= 62) is supported")
    need = (n * (n - 1) // 2 + 5) // 6
    data = s[1:]
    if len(data) != need:
        raise ParseError(f"graph6 body for n={n} needs {need} characters, got {len(data)}")
    bits: list[int] = []
    for ch in data:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    if any(bits[idx:]):
        raise ParseError("nonzero padding bits in graph6 string")
    return Graph(n, frozenset(edges))


def encode_graph6(g: Graph) -> str:
    """Encode as short-form graph6 (n <= 62)."""
    if g.n > 62:
        raise ValueError("only short-form graph6 (n <= 62) is supported")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------


def bfs_spanning_tree(g: Graph, root: int = 0) -> SpanningTree:
    """Breadth-first spanning tree, neighbors visited in ascending order."""
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} outside vertex range")
    parent = [-1] * g.n
    parent[root] = root
    order = deque([root])
    edges = set()
    while order:
        u = order.popleft()
        for w in g.adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
                edges.add(norm_edge(u, w))
                order.append(w)
    for v in range(g.n):
        if parent[v] < 0:
            raise DisconnectedError(f"vertex {v} is not reachable from vertex {root}")
    return SpanningTree(root, tuple(parent), frozenset(edges))


def _rooted_tree(n: int, edges: frozenset[Edge], root: int) -> SpanningTree:
    """The SpanningTree rooted at root of an edge set on n vertices.  The
    parent map of a tree toward its root is unique, so the order of the
    breadth-first walk does not show."""
    if not (0 <= root < n):
        raise ValueError(f"root {root} outside vertex range")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [-1] * n
    parent[root] = root
    order = [root]
    for u in order:
        for w in nbrs[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    if len(order) < n:
        raise ValueError("edges do not form a spanning tree")
    return SpanningTree(root, tuple(parent), edges)


def tree_from_edges(g: Graph, edges: Iterable[tuple[int, int]], root: int = 0) -> SpanningTree:
    """Build a SpanningTree from an explicit edge set of the host graph."""
    es = frozenset(norm_edge(u, v) for u, v in edges)
    if not es <= g.edges:
        raise ValueError(f"tree edges {sorted(es - g.edges)} are not host edges")
    if len(es) != g.n - 1:
        raise ValueError("a spanning tree on n vertices has n-1 edges")
    return _rooted_tree(g.n, es, root)


def cotree_edges(g: Graph, t: SpanningTree) -> tuple[Edge, ...]:
    """Edges outside the tree, ascending, after the one check, made for
    every (G, T) routine, that t spans g: a SpanningTree has n-1 edges that
    all reach its root, so it spans g when it has g's n and g's edges."""
    if t.n != g.n:
        raise ValueError(f"tree on {t.n} vertices does not span a graph on {g.n}")
    if not t.tree_edges <= g.edges:
        raise ValueError("tree is not a subgraph of the host graph")
    return tuple(sorted(g.edges - t.tree_edges))


def tree_from_mask(g: Graph, mask: int) -> SpanningTree:
    """The SpanningTree rooted at 0 of an edge mask of g, edge k of
    `g.edge_list` at bit m-1-k, as `spanning_tree_masks` lists them."""
    edges = g.edge_list
    top = len(edges) - 1
    return _rooted_tree(g.n, frozenset(e for k, e in enumerate(edges) if mask >> (top - k) & 1), 0)


def spanning_tree_masks(g: Graph) -> list[int]:
    """Every spanning tree of g as an integer mask over `g.edge_list`, edge
    k at bit m-1-k, in descending order.

    Include-first recursion over the sorted edges: an edge is included when
    it joins two components of the edges chosen so far, and excluded when
    its ends stay connected without it.  The edges not excluded always span
    g, so that one reachability test is the whole connectivity prune.
    Components and neighbourhoods are vertex masks.
    """
    g.require_connected()
    n, edges = g.n, g.edge_list
    m = len(edges)
    near = [0] * n  # the neighbours of each vertex over the edges not excluded
    for u, v in edges:
        near[u] |= 1 << v
        near[v] |= 1 << u
    part = [1 << v for v in range(n)]  # the component of each vertex over the chosen edges
    out: list[int] = []

    def reaches(u: int, v: int) -> bool:
        seen = frontier = 1 << u
        while not seen >> v & 1:
            if not frontier:
                return False
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        return True

    def rec(k: int, tree: int, left: int) -> None:
        # k < m while edges are left to choose: the edges not excluded span
        if not left:
            out.append(tree)
            return
        u, v = edges[k]
        together = part[u] >> v & 1
        if not together:
            saved = part[:]
            merged = rest = part[u] | part[v]
            while rest:
                low = rest & -rest
                part[low.bit_length() - 1] = merged
                rest ^= low
            rec(k + 1, tree | 1 << (m - 1 - k), left - 1)
            part[:] = saved
        near[u] ^= 1 << v
        near[v] ^= 1 << u
        if together or reaches(u, v):
            rec(k + 1, tree, left)
        near[u] ^= 1 << v
        near[v] ^= 1 << u

    rec(0, 0, n - 1)
    return out


def enumerate_spanning_trees(g: Graph, guard: bool = True) -> list[SpanningTree]:
    """All spanning trees, in the order of `spanning_tree_masks`.

    Exhaustive, so guarded to n <= 10 by default.
    """
    g.require_connected()
    check_guard("spanning-tree enumeration is exhaustive", "n", g.n, SPANNING_TREE_GUARD_N, guard)
    return [tree_from_mask(g, mask) for mask in spanning_tree_masks(g)]


def tree_parity_bipartition(t: SpanningTree) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices at even and odd tree depth; the root sits in the first set."""
    evens = frozenset(v for v in range(t.n) if t.depth[v] % 2 == 0)
    odds = frozenset(v for v in range(t.n) if t.depth[v] % 2 == 1)
    return evens, odds


def build_mixed(g: Graph, t: SpanningTree, s: SignVector) -> MixedGraph:
    """Partial orientation: tree edges undirected, cotree edges by sign."""
    co = cotree_edges(g, t)
    if s.edges != co:
        raise ValueError("sign vector does not match the cotree edges of (g, t)")
    directions: dict[Edge, tuple[int, int] | None] = {e: None for e in t.tree_edges}
    for j, e in enumerate(co):
        directions[e] = s.arc(j)
    return MixedGraph.of(g, directions)


def sign_vectors(count: int) -> Iterator[tuple[int, ...]]:
    """All sign tuples of the given length in ascending order (-1 < +1)."""
    return itertools.product((-1, 1), repeat=count)


def converse_halves(m: int) -> Iterator[tuple[int, ...]]:
    """The first half of `sign_vectors(m)`: those with s[0] = -1, or the
    empty vector when m = 0.  For partial orientations s and -s are
    converse, so they give complex-conjugate Hermitian matrices; these
    reach every charpoly, each first at the same sign vector as the full
    list does."""
    return itertools.islice(sign_vectors(m), (1 << m) >> 1 or 1)
