"""Exhaustive exploration over small connected graphs.

The corpus holds one representative per isomorphism class, produced by
extending each smaller graph with one new vertex (every connected graph has
a non-cut vertex, so this reaches everything) and deduplicating on a
canonical form: the lexicographically smallest placement bitstring over all
vertex orderings, found by branch and bound.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import GuardLimit
from .graphs import (
    Edge,
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


def worker_count() -> int:
    """Parallel workers for corpus sweeps, capped by ORISPEC_THREADS.

    Defaults to 1 (serial, fully deterministic); results are emitted in
    input order either way.
    """
    raw = os.environ.get("ORISPEC_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        return 1
    return max(1, k)


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


@lru_cache(maxsize=None)
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
    if guard and max_n > CORPUS_GUARD_N:
        raise GuardLimit(
            f"corpus generation is exhaustive; max_n={max_n} exceeds "
            f"{CORPUS_GUARD_N} (pass guard=False to override)"
        )
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(_corpus_level(n))
    return out


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def _complete_guard(m: int) -> None:
    if m > MIN_COMPLETE_GUARD_M:
        raise GuardLimit(
            f"complete-orientation search enumerates 2^m cases; m={m} exceeds "
            f"{MIN_COMPLETE_GUARD_M} (pass guard=False to override)"
        )


def _partial_guard(n: int) -> None:
    if n > MIN_PARTIAL_GUARD_N:
        raise GuardLimit(
            f"partial-orientation search is exhaustive over trees; n={n} "
            f"exceeds {MIN_PARTIAL_GUARD_N} (pass guard=False to override)"
        )


def _sweep_guard(m: int) -> None:
    if m > GUO_MOHAR_GUARD_M:
        raise GuardLimit(
            f"bound sweep enumerates 2^m orientations; m={m} exceeds "
            f"{GUO_MOHAR_GUARD_M} (pass guard=False to override)"
        )


def _check_record_guards(g: Graph, guard: bool) -> None:
    """Raise the first guard `explore_record(g, guard=guard)` would hit,
    without its work; with guard=False only connectivity is checked.

    Every search of a record uses the same cotree size m = |E| - n + 1.
    """
    g.require_connected()
    if not guard:
        return
    m = len(g.edges) - g.n + 1
    _complete_guard(m)
    _partial_guard(g.n)
    _sweep_guard(m)


# ---------------------------------------------------------------------------
# minimum spectral radius searches
# ---------------------------------------------------------------------------


def _radius(poly: IntPoly, radii: dict[IntPoly, AlgebraicRoot]) -> AlgebraicRoot:
    """Spectral radius of a charpoly through radii, a memo that lives for one
    record (or one public search).

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
    radii and gcds are the memos of the record (or the public search);
    gcds=None compares without a gcd memo, to the same result.

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


def _bfs_table(g: Graph) -> tuple[SpanningTree, tuple[Edge, ...], GainTable]:
    """The BFS tree at 0, its cotree and the gain table over it: every
    search of a record reads its charpolys from this one table."""
    t = bfs_spanning_tree(g, 0)
    co = cotree_edges(g, t)
    return t, co, GainTable(g.n, t.tree_edges, co)


def _complete_sweep(t: SpanningTree, co: tuple[Edge, ...], table: GainTable) -> list[int]:
    """Packed charpolys of every reduced complete orientation over t, the
    table's tree: tree arcs from smaller to larger endpoint, signs
    ascending."""
    return table.sweep(sorted(t.tree_edges), co)


def _min_rho_complete(
    g: Graph,
    co: tuple[Edge, ...],
    sweep: list[int],
    table: GainTable,
    radii: dict[IntPoly, AlgebraicRoot],
    gcds: Gcds,
) -> tuple[AlgebraicRoot, SignVector]:
    seen: dict[int, tuple[int, ...]] = {}  # the cotree signs of each first occurrence
    for signs, packed in zip(sign_vectors(len(co)), sweep):
        seen.setdefault(packed, signs)
    candidates = [(IntPoly(table.unpack(p)), signs) for p, signs in seen.items()]
    root, signs = _radius_min(candidates, radii, gcds)
    edge_order = g.edge_list
    full = [1] * len(edge_order)
    for e, s in zip(co, signs):  # type: ignore[call-overload]
        full[edge_order.index(e)] = s
    return root, SignVector(edge_order, tuple(full))


def min_rho_complete(g: Graph, guard: bool = True) -> tuple[AlgebraicRoot, SignVector]:
    """Minimum spectral radius over all complete orientations of g.

    Diagonal switching with entries +-1 can force every tree arc to point
    from its smaller endpoint to its larger one without changing the
    spectrum, so only the 2^m cotree sign choices are enumerated (this
    reduction is validated against the unreduced search in the tests).
    Returns the radius and a full-edge sign vector witness (+1 on every
    tree edge); ties resolve to the lexicographically smallest witness.
    """
    return _complete_tier(g, guard)[2]


def _min_rho_partial(
    g: Graph, table: GainTable, radii: dict[IntPoly, AlgebraicRoot], gcds: Gcds
) -> tuple[AlgebraicRoot, SpanningTree, SignVector]:
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
    seen: dict[int, tuple[SpanningTree, tuple[int, ...]]] = {}  # first (tree, signs)
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
    candidates = [(IntPoly(table.unpack(p)), ts) for p, ts in seen.items()]
    root, witness = _radius_min(candidates, radii, gcds)
    t, signs = witness  # type: ignore[misc]
    return root, t, SignVector(cotree_edges(g, t), signs)


def min_rho_partial(
    g: Graph, guard: bool = True
) -> tuple[AlgebraicRoot, SpanningTree, SignVector]:
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
    g.require_connected()
    if guard:
        _partial_guard(g.n)
    return _min_rho_partial(g, _bfs_table(g)[2], {}, {})


def _all_mixed_guard(n: int) -> None:
    if n > ALL_MIXED_GUARD_N:
        raise GuardLimit(
            f"all-mixed search enumerates 3^|E| states; n={n} exceeds "
            f"{ALL_MIXED_GUARD_N} (pass guard=False to override)"
        )


def _min_rho_all_mixed(
    g: Graph, table: GainTable, radii: dict[IntPoly, AlgebraicRoot], gcds: Gcds
) -> tuple[AlgebraicRoot, MixedGraph]:
    edges = g.edge_list
    cosets: dict[int, list[int]] = {}
    seen: dict[int, tuple[Edge, ...]] = {}  # the arcs of each first occurrence
    for states in itertools.product((0, 1, 2), repeat=len(edges)):
        arcs = tuple(e if st == 1 else (e[1], e[0]) for e, st in zip(edges, states) if st)
        parity, carry = table.gain(arcs)
        coset = cosets.get(parity)
        if coset is None:
            coset = cosets[parity] = table.coset(parity)
        seen.setdefault(coset[carry], arcs)
    candidates = [(IntPoly(table.unpack(p)), arcs) for p, arcs in seen.items()]
    root, arcs = _radius_min(candidates, radii, gcds)
    return root, MixedGraph.of(g, {norm_edge(*a): a for a in arcs})  # type: ignore[union-attr]


def min_rho_all_mixed(g: Graph, guard: bool = True) -> tuple[AlgebraicRoot, MixedGraph]:
    """Minimum spectral radius over every mixed graph on g (3^|E| states),
    each read from the gain table by its gain; ties resolve to the first
    state in `itertools.product` order (undirected, forwards, backwards
    per edge, edges ascending)."""
    g.require_connected()
    if guard:
        _all_mixed_guard(g.n)
    return _min_rho_all_mixed(g, _bfs_table(g)[2], {}, {})


# ---------------------------------------------------------------------------
# sweeps and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuoMoharReport:
    """Exact check of rho(mixed) <= rho(underlying graph) over a family."""

    checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _guo_mohar(
    complete: list[int], table: GainTable, radii: dict[IntPoly, AlgebraicRoot], gcds: Gcds
) -> GuoMoharReport:
    # rho(G) has every gain 1 (g = 0); then the partial orientations over the
    # table's tree (its coset with parity 1...1) and the reduced complete
    # orientations of the given sweep
    rho_g = _radius(IntPoly(table.unpack(table.value((0, 0)))), radii)
    packed = set(table.coset((1 << table.m) - 1))
    packed.update(complete)
    violations = []
    for poly in sorted(map(table.unpack, packed)):
        if compare_roots(_radius(IntPoly(poly), radii), rho_g, gcds=gcds) is Order.GT:
            violations.append(f"charpoly {IntPoly(poly)} has rho above rho(G)")
    return GuoMoharReport(checked=len(packed), violations=tuple(violations))


def guo_mohar_sweep(g: Graph, guard: bool = True) -> GuoMoharReport:
    """Compare rho of every sweep-visited mixed graph on g against rho(G).

    Visits all partial orientations of the BFS tree at 0 and all reduced
    complete orientations, deduplicated by charpoly; every comparison is
    exact.  Any violation would contradict a published bound, so callers
    treat a non-empty violation list as a defect.
    """
    g.require_connected()
    if guard:
        _sweep_guard(len(g.edges) - g.n + 1)
    t, co, table = _bfs_table(g)
    return _guo_mohar(_complete_sweep(t, co, table), table, {}, {})


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


def _conjecture_report(
    g: Graph,
    complete: tuple[AlgebraicRoot, SignVector],
    include_all_mixed: bool | None,
    guard: bool,
    table: GainTable,
    radii: dict[IntPoly, AlgebraicRoot],
    gcds: Gcds,
) -> ConjectureReport:
    c_root, c_witness = complete
    if guard:
        _partial_guard(g.n)
    p_root, p_tree, p_witness = _min_rho_partial(g, table, radii, gcds)
    if include_all_mixed is None:
        include_all_mixed = g.n <= ALL_MIXED_GUARD_N
    all_root = None
    all_cmp = None
    if include_all_mixed:
        if guard:
            _all_mixed_guard(g.n)
        all_root, _ = _min_rho_all_mixed(g, table, radii, gcds)
        all_cmp = compare_roots(all_root, c_root, gcds=gcds)
    return ConjectureReport(
        graph=g,
        complete_root=c_root,
        complete_witness=c_witness,
        partial_root=p_root,
        partial_tree=p_tree,
        partial_witness=p_witness,
        complete_vs_partial=compare_roots(c_root, p_root, gcds=gcds),
        all_root=all_root,
        all_vs_complete=all_cmp,
    )


def _complete_tier(
    g: Graph, guard: bool
) -> tuple[GainTable, list[int], tuple[AlgebraicRoot, SignVector], dict[IntPoly, AlgebraicRoot], Gcds]:
    """The gain table of g, its complete-orientation sweep, the minimum
    over that sweep and the radius and gcd memos it started."""
    g.require_connected()
    if guard:
        _complete_guard(len(g.edges) - g.n + 1)
    t, co, table = _bfs_table(g)
    sweep = _complete_sweep(t, co, table)
    radii: dict[IntPoly, AlgebraicRoot] = {}
    gcds: Gcds = {}
    return table, sweep, _min_rho_complete(g, co, sweep, table, radii, gcds), radii, gcds


def conjecture_report(g: Graph, include_all_mixed: bool | None = None, guard: bool = True) -> ConjectureReport:
    """Assemble the three-tier minimum-rho comparison for one graph.

    include_all_mixed defaults to running the 3^|E| sweep only when the
    guard allows it (n <= 4).
    """
    table, _, complete, radii, gcds = _complete_tier(g, guard)
    return _conjecture_report(g, complete, include_all_mixed, guard, table, radii, gcds)


def explore_record(g: Graph, include_all_mixed: bool | None = None, guard: bool = True) -> dict:
    """One JSON-ready record per graph: conjecture tiers plus the exact
    rho(mixed) <= rho(G) sweep.

    Every search of the record reads its charpolys from one gain table over
    the BFS tree at 0: `min_rho_complete` and `guo_mohar_sweep` share its
    complete-orientation sweep, and every search shares one radius memo and
    one gcd memo, so each distinct charpoly is isolated once per record and
    the gcd of each distinct pair is computed once.  Guards are checked in
    the order the public searches check them.
    """
    table, sweep, complete, radii, gcds = _complete_tier(g, guard)
    report = _conjecture_report(g, complete, include_all_mixed, guard, table, radii, gcds)
    if guard:
        _sweep_guard(table.m)
    gm = _guo_mohar(sweep, table, radii, gcds)
    data = report.to_json()
    data["guo_mohar"] = {
        "checked": gm.checked,
        "violations": list(gm.violations),
    }
    return data


def explore_records(graphs: list[Graph], guard: bool = True) -> list[dict]:
    """Records for the given graphs, in input order.

    Every guard of every graph is checked before the first record is
    computed, so an inadmissible input fails at once, not after the rest;
    guard=False lifts the guards of every search.  Honors ORISPEC_THREADS
    for process-level parallelism; output order and content are independent
    of the worker count.
    """
    for g in graphs:
        try:
            _check_record_guards(g, guard)
        except GuardLimit as exc:
            raise GuardLimit(f"graph6={encode_graph6(g)}: {exc}") from None
    record = partial(explore_record, guard=guard)
    workers = worker_count()
    if workers > 1 and len(graphs) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return list(pool.map(record, graphs))
    return [record(g) for g in graphs]


def explore_corpus(max_n: int, guard: bool = True) -> list[dict]:
    """Records for every corpus graph, in corpus order."""
    return explore_records(generate_corpus(max_n, guard=guard), guard=guard)
