"""Four-way switching equivalence of mixed graphs.

A switching is conjugation of the Hermitian adjacency matrix by a diagonal
matrix S with entries in {1, i, -1, -i}, recorded here as exponents of i.
It must map admissibly: every resulting entry has to be one of 0, 1, i, -i
again (an entry -1 has no mixed-graph reading).  Taking the converse
(reversing every arc) is also allowed and tracked separately.

Over a fixed spanning tree the classification is in closed form: the tree
edges stay undirected on both sides, so a switching between two partial
orientations is a global unit, and the classes are the converse pairs {s, -s}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_guard
from .graphs import (
    Graph,
    MixedGraph,
    SignVector,
    SpanningTree,
    bfs_spanning_tree,
    converse_halves,
    cotree_edges,
    tree_parity_bipartition,
)

CLASSIFY_GUARD_M = 12


@dataclass(frozen=True)
class SwitchingMap:
    """Diagonal switching matrix, S_vv = i**phases[v]."""

    phases: tuple[int, ...]

    def __post_init__(self) -> None:
        for p in self.phases:
            if p not in (0, 1, 2, 3):
                raise ValueError("phases are exponents of i, so 0..3")

    @property
    def n(self) -> int:
        return len(self.phases)

    def to_json(self) -> dict:
        return {"phases": list(self.phases)}


def converse(d: MixedGraph) -> MixedGraph:
    """Reverse every arc, keeping undirected edges as they are."""
    return MixedGraph(
        d.graph,
        tuple(
            (e, None if direction is None else (direction[1], direction[0]))
            for e, direction in d.states
        ),
    )


def apply_switching(d: MixedGraph, s: SwitchingMap) -> MixedGraph:
    """Conjugate by S; raises ValueError naming the first inadmissible edge."""
    if s.n != d.graph.n:
        raise ValueError("switching map size does not match the graph")
    states = []
    for (u, v), _ in d.states:
        phase = (d.phase(u, v) + s.phases[v] - s.phases[u]) % 4
        if phase == 2:
            raise ValueError(
                f"switching is inadmissible: edge ({u}, {v}) would get entry -1"
            )
        if phase == 0:
            states.append(((u, v), None))
        elif phase == 1:
            states.append(((u, v), (u, v)))
        else:
            states.append(((u, v), (v, u)))
    return MixedGraph(d.graph, tuple(states))


@dataclass(frozen=True)
class SwitchingCertificate:
    """Witness that two mixed graphs are switching-equivalent.

    Apply the converse first when flagged, then conjugate by the map; the
    result is the second graph.  Maps produced by the equivalence test are
    normalized to phase 0 at vertex 0.
    """

    map: SwitchingMap
    used_converse: bool

    def verify(self, d1: MixedGraph, d2: MixedGraph) -> bool:
        start = converse(d1) if self.used_converse else d1
        try:
            return apply_switching(start, self.map) == d2
        except ValueError:
            return False

    def to_json(self) -> dict:
        return {"phases": list(self.map.phases), "used_converse": self.used_converse}


def switching_equivalent(d1: MixedGraph, d2: MixedGraph) -> SwitchingCertificate | None:
    """Certificate if d1 and d2 are equivalent up to switching and converse.

    The underlying graphs must be identical (not merely isomorphic) and
    connected.  Phases propagate uniquely along a spanning tree once the
    root phase is pinned to 0, so each converse choice needs one candidate
    check; multiplying S by a global unit never changes the conjugation.
    """
    if d1.graph != d2.graph:
        raise ValueError("mixed graphs must share the same underlying graph")
    g = d1.graph
    g.require_connected()
    t = bfs_spanning_tree(g, 0)
    for used_converse in (False, True):
        a = converse(d1) if used_converse else d1
        phases = [0] * g.n
        for v in t.order[1:]:
            u = t.parent[v]
            # need: phase_a(u, v) - phases[u] + phases[v] == phase_2(u, v)
            phases[v] = (phases[u] + d2.phase(u, v) - a.phase(u, v)) % 4
        ok = all(
            (a.phase(u, v) - phases[u] + phases[v]) % 4 == d2.phase(u, v)
            for (u, v) in g.edge_list
        )
        if ok:
            return SwitchingCertificate(SwitchingMap(tuple(phases)), used_converse)
    return None


def classify_partial_orientations(
    g: Graph, t: SpanningTree, guard: bool = True
) -> list[list[SignVector]]:
    """Partition all 2^m sign vectors into switching-equivalence classes.

    Every class is a converse pair {s, -s}, or the single class {()} when
    m = 0.  A switching S = diag(i^p) maps an undirected entry 1 to
    i^(p_v - p_u), and tree edges are undirected on both sides, so each
    forces p_u = p_v: along T, S is a global unit and fixes every matrix,
    which leaves only the converse.

    Classes are ordered by their lexicographically smallest member (with
    -1 < +1), and each class lists its members in that same order.
    """
    co = cotree_edges(g, t)
    m = len(co)
    check_guard("classification enumerates 2^m orientations", "m", m, CLASSIFY_GUARD_M, guard)
    return [
        [SignVector(co, v) for v in sorted({s, tuple(-x for x in s)})] for s in converse_halves(m)
    ]


def equiv_to_unoriented(g: Graph, t: SpanningTree) -> bool:
    """True iff partial orientations over t are equivalent to the undirected
    graph, which happens exactly when there are no cotree edges."""
    return len(cotree_edges(g, t)) == 0


def equiv_to_oriented(g: Graph, t: SpanningTree) -> bool:
    """True iff partial orientations over t are switching-equivalent to a
    fully oriented graph: every cotree edge must join two vertices of the
    same tree-depth parity."""
    evens, _odds = tree_parity_bipartition(t)
    return all(((u in evens) == (v in evens)) for (u, v) in cotree_edges(g, t))
