"""Exhaustive exploration over small connected graphs.

The corpus holds one representative per isomorphism class, produced by
extending each smaller graph with one new vertex (every connected graph has
a non-cut vertex, so this reaches everything) and deduplicating on a
canonical form: the lexicographically smallest placement bitstring over all
vertex orderings, found by branch and bound.

On each graph, `_Search` runs the minimum-rho searches over complete,
partial and all mixed orientations and the rho(mixed) <= rho(G) bound sweep
from one gain table over the BFS tree at 0.  Every public entry checks its
guards (`_check_guards`) before it builds that object, so a refused input
costs no search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GuardLimit, check_guard
from .graphs import (
    Graph,
    MixedGraph,
    SignVector,
    SpanningTree,
    bfs_spanning_tree,
    converse_halves,
    cotree_edges,
    encode_graph6,
    norm_edge,
    sign_vectors,
    spanning_tree_masks,
    tree_from_mask,
)
from .hermitian import GainTable, spectral_radius_of_charpoly
from .polynomials import PRINT_WIDTH, AlgebraicRoot, Gcds, IntPoly, Order, compare_roots

CORPUS_GUARD_N = 7
MIN_COMPLETE_GUARD_M = 20
MIN_PARTIAL_GUARD_N = 7
ALL_MIXED_GUARD_N = 4
GUO_MOHAR_GUARD_M = 12


# ---------------------------------------------------------------------------
# canonical forms and the corpus
# ---------------------------------------------------------------------------


def canonical_form(g: Graph) -> tuple[tuple[int, ...], Graph]:
    """Canonical key and canonically relabeled copy of g.

    The key is the maximum, over all vertex orderings, of the sequence of
    row masks: entry k packs the adjacency of the k-th placed vertex to the
    previously placed ones (earliest neighbor in the highest bit).  Maximum
    rather than minimum so adjacency concentrates in the leading entries,
    which lets branch and bound cut almost every ordering after a few
    levels even on sparse graphs.
    """
    n = g.n
    adjbits = [0] * n
    for (u, v) in g.edges:
        adjbits[u] |= 1 << v
        adjbits[v] |= 1 << u
    best_bits: list[int] | None = None
    best_perm: list[int] | None = None

    def rec(placed: list[int], bits: list[int]) -> None:
        nonlocal best_bits, best_perm
        k = len(placed)
        if best_bits is not None and bits < best_bits[:k]:
            return
        if k == n:
            if best_bits is None or bits > best_bits:
                best_bits = list(bits)
                best_perm = list(placed)
            return
        ranked = []
        for v in range(n):
            if v in placed:
                continue
            av = adjbits[v]
            seg = 0
            for u in placed:
                seg = (seg << 1) | ((av >> u) & 1)
            ranked.append((seg, v))
        ranked.sort(reverse=True)
        for seg, v in ranked:
            placed.append(v)
            bits.append(seg)
            rec(placed, bits)
            placed.pop()
            bits.pop()

    rec([], [])
    assert best_bits is not None and best_perm is not None
    position = {orig: idx for idx, orig in enumerate(best_perm)}
    edges = frozenset(
        (min(position[u], position[v]), max(position[u], position[v])) for (u, v) in g.edges
    )
    return tuple(best_bits), Graph(n, edges)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every adjacency-preserving vertex permutation of g, as image tuples in
    lexicographic order (identity first).

    Backtracking: vertex v may go to an unused w of the same degree whose
    adjacency to the images of 0..v-1 matches that of v.
    """
    n = g.n
    adjbits = [0] * n
    for (u, v) in g.edges:
        adjbits[u] |= 1 << v
        adjbits[v] |= 1 << u
    degree = [bin(a).count("1") for a in adjbits]
    image: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec(v: int, used: int) -> None:
        if v == n:
            out.append(tuple(image))
            return
        av = adjbits[v]
        for w in range(n):
            if (used >> w) & 1 or degree[w] != degree[v]:
                continue
            aw = adjbits[w]
            if all((av >> u) & 1 == (aw >> image[u]) & 1 for u in range(v)):
                image.append(w)
                rec(v + 1, used | (1 << w))
                image.pop()

    rec(0, 0)
    return out


@functools.lru_cache(maxsize=None)
def _corpus_level(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one per isomorphism class,
    canonically labeled, in canonical-key order."""
    if n < 1:
        return ()
    if n == 1:
        return (Graph(1, frozenset()),)
    found: dict[tuple[int, ...], Graph] = {}
    new = n - 1
    for smaller in _corpus_level(n - 1):
        for bits in range(1, 1 << new):
            extra = [(v, new) for v in range(new) if (bits >> v) & 1]
            candidate = Graph(n, smaller.edges | frozenset(extra))
            key, canon = canonical_form(candidate)
            if key not in found:
                found[key] = canon
    return tuple(found[k] for k in sorted(found))


def generate_corpus(max_n: int, guard: bool = True) -> list[Graph]:
    """All connected graphs with 1 <= n <= max_n, up to isomorphism."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    check_guard("corpus generation is exhaustive", "max_n", max_n, CORPUS_GUARD_N, guard)
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(_corpus_level(n))
    return out


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def _check_guards(
    g: Graph, guard: bool, *, complete=False, partial=False, all_mixed: bool | None = False, sweep=False
) -> None:
    """Check that g is connected and then, unless guard is False, the guard
    of each named search, in the order a record runs them: complete, partial,
    all-mixed, bound sweep.

    Every search on g has cotree size m = |E| - n + 1, so the first refusal
    comes before any work.  all_mixed=None means the all-mixed tier runs
    only where its guard admits it, so it checks nothing.
    """
    g.require_connected()
    if not guard:
        return
    m = len(g.edges) - g.n + 1
    if complete:
        check_guard("complete-orientation search enumerates 2^m cases", "m", m, MIN_COMPLETE_GUARD_M)
    if partial:
        check_guard("partial-orientation search is exhaustive over trees", "n", g.n, MIN_PARTIAL_GUARD_N)
    if all_mixed:
        check_guard("all-mixed search enumerates 3^|E| states", "n", g.n, ALL_MIXED_GUARD_N)
    if sweep:
        check_guard("bound sweep enumerates 2^m orientations", "m", m, GUO_MOHAR_GUARD_M)


# ---------------------------------------------------------------------------
# exact minima over candidate charpolys
# ---------------------------------------------------------------------------


def _radius(poly: IntPoly, radii: dict[IntPoly, AlgebraicRoot]) -> AlgebraicRoot:
    """Spectral radius of a charpoly through radii, the memo of one
    `_Search`.

    The memo keeps the root as `spectral_radius_of_charpoly` returns it and
    hands out a fresh copy per lookup: comparisons refine roots in place, and
    each search must print the intervals of its own refinement history.
    """
    root = radii.get(poly)
    if root is None:
        root = radii[poly] = spectral_radius_of_charpoly(poly)
    return root.copy()


def _root_beyond(p: IntPoly, num: int, den: int) -> bool:
    """True when p, of degree >= 1, has a real root r with |r| >= h > 0,
    h = num / den with den > 0, certified by one sign at h and one at -h.

    A sign at h that differs from p's sign at +inf means an odd number of
    roots above h, and a zero sign is a root at h; likewise at -h against
    -inf.  An even number of roots beyond h shows no sign change and is not
    certified.
    """
    top = 1 if p.leading > 0 else -1
    if p.sign_at_ratio(num, den) != top:
        return True
    return p.sign_at_ratio(-num, den) != (top if p.degree % 2 == 0 else -top)


def _radius_min(
    candidates: "list[tuple[IntPoly, object]]", radii: dict[IntPoly, AlgebraicRoot], gcds: Gcds | None
) -> tuple[AlgebraicRoot, object]:
    """Exact minimum of spectral radii over (charpoly, witness) pairs.

    Candidates must already be deduplicated by polynomial and listed in
    witness-preference order: on exact ties the earliest witness wins.
    radii and gcds are the memos of one `_Search`; gcds=None compares
    without a gcd memo, to the same result.

    A candidate p is discarded before isolation when `_root_beyond` holds
    for p at h = best.hi + eps, eps = `PRINT_WIDTH`, the width `to_json`
    refines to; h is kept as an integer ratio.  Then rho(p) >= h >
    rho(best): p is not LT, so the winner and its witness do not change,
    and p never enters the radius memo.  The margin eps keeps every printed
    interval byte-identical:

    - comparing p with best would refine best only while best is the wider
      of two overlapping intervals; p's interval then reaches below best.hi
      and contains rho(p) >= best.hi + eps, so both are wider than eps;
    - so a skipped comparison leaves best no narrower than the first interval
      of its bisection below eps, which `to_json` prints anyway;
    - bisection follows one fixed sequence of intervals per root, and a
      comparison refines past the printed interval only after both roots
      reach theirs, so every later comparison ends in the same printed state
      with or without the skipped ones.
    """
    best_root: AlgebraicRoot | None = None
    best_witness: object = None
    eps_num, eps_den = PRINT_WIDTH.numerator, PRINT_WIDTH.denominator
    h_num = h_den = 0
    for poly, witness in candidates:
        if best_root is not None and _root_beyond(poly, h_num, h_den):
            continue
        root = _radius(poly, radii)
        if best_root is None or compare_roots(root, best_root, gcds=gcds) is Order.LT:
            best_root, best_witness = root, witness
        # the comparison may have narrowed best, so h is formed again
        b, d = best_root.hi_ratio()
        h_num, h_den = b * eps_den + d * eps_num, d * eps_den
    assert best_root is not None
    return best_root, best_witness


# ---------------------------------------------------------------------------
# the searches on one graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuoMoharReport:
    """Exact check of rho(mixed) <= rho(underlying graph) over a family."""

    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ConjectureReport:
    """Comparison of the minimum spectral radius over complete orientations
    against partial orientations (and optionally all mixed graphs).

    The working conjecture is that complete orientations attain the global
    minimum; ``consistent`` is False exactly when this sweep refutes it,
    which would be a finding worth reporting loudly, not an error.
    """

    graph: Graph
    complete_root: AlgebraicRoot
    complete_witness: SignVector
    partial_root: AlgebraicRoot
    partial_tree: SpanningTree
    partial_witness: SignVector
    complete_vs_partial: Order
    all_root: AlgebraicRoot | None
    all_vs_complete: Order | None

    @property
    def consistent(self) -> bool:
        if self.complete_vs_partial is Order.GT:
            return False
        if self.all_vs_complete is not None and self.all_vs_complete is not Order.EQ:
            return False
        return True

    def to_json(self) -> dict:
        data = {
            "graph6": encode_graph6(self.graph),
            "n": self.graph.n,
            "edges": [list(e) for e in self.graph.edge_list],
            "min_complete": {
                "rho": self.complete_root.to_json(),
                "edges": [list(e) for e in self.complete_witness.edges],
                "signs": list(self.complete_witness.signs),
            },
            "min_partial": {
                "rho": self.partial_root.to_json(),
                "tree": sorted(list(e) for e in self.partial_tree.tree_edges),
                "signs": list(self.partial_witness.signs),
                "cotree": [list(e) for e in self.partial_witness.edges],
            },
            "complete_vs_partial": str(self.complete_vs_partial),
            "consistent": self.consistent,
        }
        if self.all_root is not None:
            data["min_all_mixed"] = self.all_root.to_json()
            data["all_vs_complete"] = str(self.all_vs_complete)
        return data


class _Search:
    """Every minimum-rho search and the bound sweep on one graph, read from
    one gain table over the BFS tree at 0.

    The searches share the table, its complete-orientation sweep (made on
    first use), one radius memo and one gcd memo, so each distinct charpoly
    is isolated once and the gcd of each distinct pair is computed once per
    object.  Guards are checked by the caller (`_check_guards`) before the
    object is built.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.tree = bfs_spanning_tree(g, 0)
        self.table = GainTable(g, self.tree)
        self.radii: dict[IntPoly, AlgebraicRoot] = {}
        self.gcds: Gcds = {}

    @functools.cached_property
    def sweep(self) -> list[int]:
        """Packed charpolys of every reduced complete orientation: tree arcs
        from smaller to larger endpoint, cotree signs ascending."""
        return self.table.sweep(sorted(self.tree.tree_edges), self.table.cotree)

    def _min(self, seen: dict[int, object]) -> tuple[AlgebraicRoot, object]:
        """`_radius_min` over packed charpolys and their first witnesses."""
        candidates = [(IntPoly(self.table.unpack(p)), witness) for p, witness in seen.items()]
        return _radius_min(candidates, self.radii, self.gcds)

    def complete(self) -> tuple[AlgebraicRoot, SignVector]:
        seen: dict[int, object] = {}  # the cotree signs of each first occurrence
        for signs, packed in zip(sign_vectors(len(self.table.cotree)), self.sweep):
            seen.setdefault(packed, signs)
        root, signs = self._min(seen)
        edge_order = self.g.edge_list
        full = [1] * len(edge_order)
        for e, s in zip(self.table.cotree, signs):  # type: ignore[call-overload]
            full[edge_order.index(e)] = s
        return root, SignVector(edge_order, tuple(full))

    def partial(self) -> tuple[AlgebraicRoot, SpanningTree, SignVector]:
        g, table = self.g, self.table
        edges = g.edge_list
        m = len(edges)
        place = {e: m - 1 - k for k, e in enumerate(edges)}  # the bit of each edge
        # each automorphism as the image of every edge bit, indexed by bit
        images: list[list[int]] = []
        for p in automorphisms(g):
            image = [0] * m
            for (u, v), bit in place.items():
                image[bit] = 1 << place[norm_edge(p[u], p[v])]
            images.append(image)
        # the parity of each edge's column, indexed by bit: a tree's coset parity
        # is the XOR over its cotree, that is the XOR over every edge and then
        # over the tree, so the XOR over the tree alone tells cosets apart
        columns = [0] * m
        for e, bit in place.items():
            columns[bit] = table.gain((e,))[0]
        covered: set[int] = set()  # trees of the orbits visited so far
        cosets: set[int] = set()  # tree parities of the cosets visited so far
        seen: dict[int, object] = {}  # first (tree, signs)
        for mask in spanning_tree_masks(g):
            if mask in covered:
                continue
            bits = [bit for bit in range(m) if mask >> bit & 1]
            covered.update(sum([image[bit] for bit in bits]) for image in images)
            parity = 0
            for bit in bits:
                parity ^= columns[bit]
            if parity in cosets:
                continue
            cosets.add(parity)
            t = tree_from_mask(g, mask)
            co = cotree_edges(g, t)
            for signs, packed in zip(converse_halves(len(co)), table.sweep((), co, half=True)):
                if packed not in seen:
                    seen[packed] = (t, signs)
        root, witness = self._min(seen)
        t, signs = witness  # type: ignore[misc]
        return root, t, SignVector(cotree_edges(g, t), signs)

    def all_mixed(self) -> tuple[AlgebraicRoot, MixedGraph]:
        table = self.table
        edges = self.g.edge_list
        cosets: dict[int, list[int]] = {}
        seen: dict[int, object] = {}  # the arcs of each first occurrence
        for states in itertools.product((0, 1, 2), repeat=len(edges)):
            arcs = tuple(e if st == 1 else (e[1], e[0]) for e, st in zip(edges, states) if st)
            parity, carry = table.gain(arcs)
            coset = cosets.get(parity)
            if coset is None:
                coset = cosets[parity] = table.coset(parity)
            seen.setdefault(coset[carry], arcs)
        root, arcs = self._min(seen)
        return root, MixedGraph.of(self.g, {norm_edge(*a): a for a in arcs})  # type: ignore[union-attr]

    def bound_sweep(self) -> GuoMoharReport:
        # rho(G) has every gain 1 (g = 0); then the partial orientations over the
        # table's tree (its coset with parity 1...1) and the reduced complete
        # orientations
        table = self.table
        rho_g = _radius(IntPoly(table.unpack(table.value((0, 0)))), self.radii)
        packed = set(table.coset((1 << table.m) - 1))
        packed.update(self.sweep)
        violations = []
        for poly in sorted(map(table.unpack, packed)):
            if compare_roots(_radius(IntPoly(poly), self.radii), rho_g, gcds=self.gcds) is Order.GT:
                violations.append(f"charpoly {IntPoly(poly)} has rho above rho(G)")
        return GuoMoharReport(checked=len(packed), violations=tuple(violations))

    def report(self, include_all_mixed: bool | None) -> ConjectureReport:
        c_root, c_witness = self.complete()
        p_root, p_tree, p_witness = self.partial()
        if include_all_mixed is None:
            include_all_mixed = self.g.n <= ALL_MIXED_GUARD_N
        all_root = all_cmp = None
        if include_all_mixed:
            all_root, _ = self.all_mixed()
            all_cmp = compare_roots(all_root, c_root, gcds=self.gcds)
        return ConjectureReport(
            graph=self.g,
            complete_root=c_root,
            complete_witness=c_witness,
            partial_root=p_root,
            partial_tree=p_tree,
            partial_witness=p_witness,
            complete_vs_partial=compare_roots(c_root, p_root, gcds=self.gcds),
            all_root=all_root,
            all_vs_complete=all_cmp,
        )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def min_rho_complete(g: Graph, guard: bool = True) -> tuple[AlgebraicRoot, SignVector]:
    """Minimum spectral radius over all complete orientations of g.

    Diagonal switching with entries +-1 can force every tree arc to point
    from its smaller endpoint to its larger one without changing the
    spectrum, so only the 2^m cotree sign choices are enumerated (this
    reduction is validated against the unreduced search in the tests).
    Returns the radius and a full-edge sign vector witness (+1 on every
    tree edge); ties resolve to the lexicographically smallest witness.
    """
    _check_guards(g, guard, complete=True)
    return _Search(g).complete()


def min_rho_partial(g: Graph, guard: bool = True) -> tuple[AlgebraicRoot, SpanningTree, SignVector]:
    """Minimum spectral radius over every spanning tree and every partial
    orientation; exact, with a deterministic first-found witness on ties
    (trees in enumeration order, then signs ascending).

    Three exact reductions skip pairs that cannot hold a first witness.  An
    automorphism p of g carries (T, s) to (p(T), s') with a
    permutation-similar Hermitian matrix (s' permutes s and negates the
    edges whose endpoints p swaps), so a tree has the charpolys of the first
    tree of its Aut(g) orbit, which comes earlier: only that one is visited.
    The partial orientations over T are the coset of the gain table (over
    the BFS tree T0) with parity |F_j - T| mod 2 on fundamental cycle F_j,
    each element once, because the fundamental bases of T and T0 differ by
    a unimodular matrix; so a tree whose coset an earlier tree visited
    brings no new charpoly and is skipped.  And s, -s give complex-conjugate
    matrices, so a charpoly first shows at a sign vector with s[0] = -1:
    only those are visited.  The candidates thus reach `_radius_min`
    exactly as the unreduced search lists them (tests/oracles.py keeps that
    search as the reference).
    """
    _check_guards(g, guard, partial=True)
    return _Search(g).partial()


def min_rho_all_mixed(g: Graph, guard: bool = True) -> tuple[AlgebraicRoot, MixedGraph]:
    """Minimum spectral radius over every mixed graph on g (3^|E| states),
    each read from the gain table by its gain; ties resolve to the first
    state in `itertools.product` order (undirected, forwards, backwards
    per edge, edges ascending)."""
    _check_guards(g, guard, all_mixed=True)
    return _Search(g).all_mixed()


def guo_mohar_sweep(g: Graph, guard: bool = True) -> GuoMoharReport:
    """Compare rho of every sweep-visited mixed graph on g against rho(G).

    Visits all partial orientations of the BFS tree at 0 and all reduced
    complete orientations, deduplicated by charpoly; every comparison is
    exact.  Any violation would contradict a published bound, so callers
    treat a non-empty violation list as a defect.
    """
    _check_guards(g, guard, sweep=True)
    return _Search(g).bound_sweep()


def conjecture_report(g: Graph, include_all_mixed: bool | None = None, guard: bool = True) -> ConjectureReport:
    """Assemble the three-tier minimum-rho comparison for one graph.

    include_all_mixed defaults to running the 3^|E| sweep only when the
    guard allows it (n <= 4).  Every guard of the report is checked before
    any search, and the tiers share one `_Search`.
    """
    _check_guards(g, guard, complete=True, partial=True, all_mixed=include_all_mixed)
    return _Search(g).report(include_all_mixed)


def explore_record(g: Graph, include_all_mixed: bool | None = None, guard: bool = True) -> dict:
    """One JSON-ready record per graph: conjecture tiers plus the exact
    rho(mixed) <= rho(G) sweep.

    Every guard of the record is checked before any search, in the order
    the searches run.  Then one `_Search` serves them all: one gain table
    over the BFS tree at 0, one complete-orientation sweep that
    `min_rho_complete` and the bound sweep share, one radius memo and one
    gcd memo, so each distinct charpoly is isolated once per record and the
    gcd of each distinct pair is computed once.
    """
    _check_guards(g, guard, complete=True, partial=True, all_mixed=include_all_mixed, sweep=True)
    search = _Search(g)
    report = search.report(include_all_mixed)
    gm = search.bound_sweep()
    data = report.to_json()
    data["guo_mohar"] = {
        "checked": gm.checked,
        "violations": list(gm.violations),
    }
    return data


def explore_records(graphs: Iterable[Graph], guard: bool = True) -> Iterator[dict]:
    """Records for the given graphs, in input order, computed one at a time
    as the returned iterator is advanced.

    graphs is read once.  Every guard of every graph is checked before this
    call returns, by the check `explore_record` makes, so an inadmissible
    input fails at once, before any record; guard=False lifts the guards of
    every search.
    """
    graphs = tuple(graphs)
    for k, g in enumerate(graphs, start=1):
        try:
            _check_guards(g, guard, complete=True, partial=True, sweep=True)
        except GuardLimit as exc:
            # graph6 has a short form only up to 62 vertices
            name = f"graph6={encode_graph6(g)}" if g.n <= 62 else f"graph {k} (n={g.n})"
            exc.args = (f"{name}: {exc}",)
            raise
    return (explore_record(g, guard=guard) for g in graphs)
