"""Orientation search guided by exact interlacing.

Fixing a spanning tree T of G, every assignment of signs to the cotree
edges yields a partial orientation.  For a sign prefix (the first k cotree
edges resolved) we work with the *sum* of charpolys over all completions,
which keeps every quantity an integer polynomial: the full sum equals
2^m * mu_G, each node of the assignment tree is the sum of its two
children, and the leaves are honest characteristic polynomials.

Production computes conditional sums through two routes over the gain
table (`hermitian.GainTable`), and no matrix is formed.  The greedy descent
and `conditional_sum_fast` take prefix sums of the table's fold
(`_prefix_sum`), one node at a time.  The audit needs every node, so it
sweeps the leaf charpolys over the converse halves and adds them in pairs
up the levels (`_family_levels`).  The brute enumeration of completions,
`conditional_sum_charpoly`, is kept as the reference the tests compare the
prefix sums against; the audit is compared with an unreduced audit over
all 2^m leaves.  The expectation is checked by an independent expansion
over matchings (`expected_charpoly`).

The greedy descent walks from the root to a leaf, at each level keeping the
child whose largest root is (weakly) smaller, and certifies at the end that
the chosen orientation satisfies lambda_max <= largest root of mu_G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import kernel
from .errors import ComputationDefect, check_guard
from .graphs import Edge, Graph, SignVector, SpanningTree, build_mixed, cotree_edges
from .hermitian import GainTable, charpoly_of_mixed, converse_half_charpolys
from .matching import induced_matching_polynomials, matching_radius
from .polynomials import (
    AlgebraicRoot,
    IntPoly,
    Order,
    compare_roots,
    interlacer_start,
    isolate_largest_root,
    isolate_real_roots,
    roots_admit_common_interlacer,
    roots_from_sign_changes,
)

CONDITIONAL_SUM_GUARD_M = 20
AUDIT_GUARD_M = 10
_TABLE_WALK = "conditional sums walk the 2^m cotree-edge sets of the cycle-expansion table"


def _check_prefix(prefix: Sequence[int], m: int) -> tuple[int, ...]:
    raw = tuple(prefix)
    if len(raw) > m:
        raise ValueError(f"prefix of length {len(raw)} exceeds the {m} cotree edges")
    # compare before converting: int(1.5) would pass as +1
    for s in raw:
        if s not in (-1, 1):
            raise ValueError("prefix entries must be +1 or -1")
    return tuple(int(s) for s in raw)


def _base_flat(
    g: Graph, t: SpanningTree, co: tuple[Edge, ...], prefix: tuple[int, ...]
) -> tuple[list[int], list[int], tuple[Edge, ...]]:
    """Flat Hermitian parts with the prefix applied; free edges stay zero."""
    n = g.n
    re = [0] * (n * n)
    im = [0] * (n * n)
    for (u, v) in t.tree_edges:
        re[u * n + v] = 1
        re[v * n + u] = 1
    for j, s in enumerate(prefix):
        u, v = co[j]
        im[u * n + v] = s
        im[v * n + u] = -s
    return re, im, co[len(prefix) :]


def conditional_sum_charpoly(
    g: Graph, t: SpanningTree, prefix: Sequence[int] = (), guard: bool = True
) -> IntPoly:
    """Sum of det(xI - H) over all completions of the sign prefix.

    With k of the m cotree edges resolved this sums 2^(m-k) charpolys; the
    result for k = 0 is 2^m times the matching polynomial of G.
    """
    co = cotree_edges(g, t)
    m = len(co)
    check_guard("conditional sums enumerate 2^(m-k) completions", "m", m, CONDITIONAL_SUM_GUARD_M, guard)
    p = _check_prefix(prefix, m)
    re, im, free = _base_flat(g, t, co, p)
    tails = [e[0] for e in free]
    heads = [e[1] for e in free]
    return IntPoly(kernel.sum_orientations_flat(re, im, g.n, tails, heads))


def _matchings(edges: tuple[Edge, ...]) -> Iterator[tuple[Edge, ...]]:
    """All matchings (sets of pairwise disjoint edges) of the given list."""
    if not edges:
        yield ()
        return
    head, rest = edges[0], edges[1:]
    yield from _matchings(rest)
    u, v = head
    compatible = tuple(f for f in rest if u not in f and v not in f)
    for m in _matchings(compatible):
        yield (head,) + m


def _partial_terms(table: GainTable) -> dict[int, int]:
    """The packed c_S of the partial orientations over the table's own tree:
    every cotree edge directed forwards gives every fundamental cycle gain i,
    so their coset has parity 1...1."""
    return table.fold((1 << table.m) - 1)


def _prefix_sum(table: GainTable, terms: dict[int, int], prefix: tuple[int, ...]) -> IntPoly:
    """The conditional sum at a sign prefix, from the packed c_S of
    `_partial_terms` (keys: bit m-1-j for cotree edge j).

    phi(H_s) = sum_S c_S prod_{j in S} s_j, and summing over the free signs
    cancels every S that holds a free edge, so with k edges resolved

        sum = 2^(m-k) * sum_{S within the first k edges} c_S (-1)^|S & minus|

    where minus is the set of resolved edges signed -1.
    """
    m, k = table.m, len(prefix)
    free = (1 << (m - k)) - 1
    minus = 0
    for s in prefix:
        minus = 2 * minus + (s == -1)
    minus <<= m - k
    total = 0
    for mask, c in terms.items():
        if mask & free:
            continue
        if (mask & minus).bit_count() & 1:
            total -= c
        else:
            total += c
    return IntPoly(table.unpack(total)) * (1 << (m - k))


def conditional_sum_fast(
    g: Graph, t: SpanningTree, prefix: Sequence[int] = (), guard: bool = True
) -> IntPoly:
    """Same value as conditional_sum_charpoly without enumerating completions.

    The charpoly is multilinear in the cotree signs (`hermitian` module
    docstring), so the sum over completions keeps the table entries c_S
    whose set S lies inside the resolved edges (`_prefix_sum`).  The greedy
    descent calls `_prefix_sum` itself on the one table it builds; the
    brute-force sum is the reference the tests compare with.
    """
    m = len(cotree_edges(g, t))
    check_guard(_TABLE_WALK, "m", m, CONDITIONAL_SUM_GUARD_M, guard)
    p = _check_prefix(prefix, m)
    table = GainTable(g, t)
    return _prefix_sum(table, _partial_terms(table), p)


def expected_charpoly(g: Graph, t: SpanningTree, guard: bool = True) -> IntPoly:
    """Average of det(xI - H) over all 2^m partial orientations of (g, t).

    Expanding the determinant over the cotree entries, the terms that
    survive the average are indexed by the matchings M of the cotree edges:
    sum_M (-1)^|M| det(xI - A(T - V(M))), where T - V(M) is a forest, whose
    charpoly is its matching polynomial.  The expectation lemma says the
    result equals the matching polynomial of g.  The terms here are matching
    polynomials of subforests of T, not of g, so comparing the two (as
    `verify-expectation` does) does not check the recursion on g against
    itself; the tests also enumerate orientations.  Guarded like the
    conditional sums (m <= CONDITIONAL_SUM_GUARD_M).
    """
    co = cotree_edges(g, t)
    check_guard(
        "the expectation walks the matchings of the m cotree edges", "m", len(co), CONDITIONAL_SUM_GUARD_M, guard
    )
    forest_mu = induced_matching_polynomials(Graph.of(g.n, t.tree_edges))
    everyone = (1 << g.n) - 1
    total = IntPoly.zero()
    for matched in _matchings(co):
        covered = sum(1 << u | 1 << v for (u, v) in matched)
        term = IntPoly(forest_mu(everyone ^ covered))
        total = total - term if len(matched) % 2 else total + term
    return total


@dataclass(frozen=True)
class LevelChoice:
    """One level of the greedy descent: both children and the pick."""

    edge: Edge
    sign: int
    plus_largest: AlgebraicRoot
    minus_largest: AlgebraicRoot

    def to_json(self) -> dict:
        return {
            "edge": list(self.edge),
            "sign": self.sign,
            "plus_largest": self.plus_largest.to_json(),
            "minus_largest": self.minus_largest.to_json(),
        }


@dataclass(frozen=True)
class OrientationCertificate:
    """A partial orientation with lambda_max certified against the matching
    bound; the verdict is LT or EQ by construction (GT raises instead)."""

    signs: SignVector
    levels: tuple[LevelChoice, ...]
    final_charpoly: IntPoly
    largest_eigenvalue: AlgebraicRoot
    matching_bound: AlgebraicRoot
    verdict: Order

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.signs.edges],
            "signs": list(self.signs.signs),
            "levels": [lv.to_json() for lv in self.levels],
            "charpoly": self.final_charpoly.to_json(),
            "lambda_max": self.largest_eigenvalue.to_json(),
            "matching_bound": self.matching_bound.to_json(),
            "verdict": str(self.verdict),
        }


def greedy_orientation(g: Graph, t: SpanningTree, guard: bool = True) -> OrientationCertificate:
    """Descend the sign-assignment tree, always toward the child whose
    largest root is smaller (ties resolved to +1), and certify the result.

    Conditional sums are prefix sums of one gain table built for
    this call (`_prefix_sum`).  Under guards m <= CONDITIONAL_SUM_GUARD_M.
    """
    g.require_connected()
    m = len(cotree_edges(g, t))
    check_guard(_TABLE_WALK, "m", m, CONDITIONAL_SUM_GUARD_M, guard)

    table = GainTable(g, t)
    terms = _partial_terms(table)
    prefix: list[int] = []
    current = _prefix_sum(table, terms, ())
    levels: list[LevelChoice] = []
    for k in range(m):
        plus = _prefix_sum(table, terms, (*prefix, 1))
        minus = current - plus  # each node is the sum of its two children
        root_plus = isolate_largest_root(plus)
        root_minus = isolate_largest_root(minus)
        if compare_roots(root_plus, root_minus) is Order.GT:
            sign, current = -1, minus
        else:
            sign, current = 1, plus
        prefix.append(sign)
        levels.append(LevelChoice(table.cotree[k], sign, root_plus, root_minus))

    final = current  # with every edge resolved the sum is one charpoly
    lam = isolate_largest_root(final)
    bound = matching_radius(g)
    verdict = compare_roots(lam, bound)
    if verdict is Order.GT:
        raise ComputationDefect(
            "greedy descent ended above the matching bound; this contradicts "
            "the interlacing argument and indicates a bug"
        )
    return OrientationCertificate(
        signs=SignVector(table.cotree, tuple(prefix)),
        levels=tuple(levels),
        final_charpoly=final,
        largest_eigenvalue=lam,
        matching_bound=bound,
        verdict=verdict,
    )


@dataclass(frozen=True)
class AuditReport:
    """Exhaustive structural audit of the full sign-assignment tree."""

    nodes_checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "nodes_checked": self.nodes_checked,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def _family_levels(g: Graph, t: SpanningTree, co: tuple[Edge, ...]) -> list[list[IntPoly]]:
    """Node polynomials of the sign-assignment tree, level by level.

    Level m holds the leaf charpolys in `sign_vectors` order, level k the
    sums of the pairs below.  Only the converse halves are swept: leaf -s
    sits at index 2^m - 1 - i when s sits at i, and has the same charpoly
    (the matrices are complex conjugates), so the second half of the leaves
    is the first half reversed.
    """
    m = len(co)
    half = converse_half_charpolys(g, t)
    levels: list[list[IntPoly]] = [[] for _ in range(m + 1)]
    levels[m] = half + half[::-1] if m else half
    for k in range(m - 1, -1, -1):
        prev = levels[k + 1]
        levels[k] = [prev[2 * i] + prev[2 * i + 1] for i in range(len(prev) // 2)]
    return levels


def _separators(left: list[AlgebraicRoot], right: list[AlgebraicRoot], start: int) -> list[tuple[int, int]]:
    """Points at which `roots_from_sign_changes` may certify the roots of
    the sum of two children, from their root lists once the lists pass the
    common-interlacer check from start on: the lower of the lower ends of
    the first pair of roots, then the higher of the upper ends of each pair.
    Two symmetric lists (start > 0) give the points of their tail, mirrored
    through 0: above each pair of the tail, and below its first pair too
    when the degree is odd and 0 is a root; 0 itself when it is even."""
    n = len(left)
    points = []
    for b, c in zip(left[start:], right[start:]):
        (x, d), (y, e) = b.hi_ratio(), c.hi_ratio()
        points.append((x, d) if x * e >= y * d else (y, e))
    if start == 0 or n % 2:
        (x, d), (y, e) = left[start].lo_ratio(), right[start].lo_ratio()
        points.insert(0, (x, d) if x * e <= y * d else (y, e))
    if start == 0:
        return points
    return [(-x, d) for x, d in reversed(points)] + ([] if n % 2 else [(0, 1)]) + points


def _node_defect(
    pair: tuple[IntPoly, IntPoly], parent: IntPoly, roots: dict[IntPoly, list[AlgebraicRoot]]
) -> str | None:
    """What is wrong at an internal node with two real-rooted children,
    given the sorted roots of every node polynomial below it, or None.  Two
    symmetric children are checked from `interlacer_start` on.  When they
    admit a common interlacer, the parent's roots go into roots: P's own
    list for two equal children P, whose sum 2P has P's roots, else
    certified by sign changes at the children's separators or, when the
    signs certify nothing, walked."""
    start = interlacer_start(*pair)
    left, right = roots[pair[0]], roots[pair[1]]
    if not roots_admit_common_interlacer(left[start:], right[start:]):
        return "children admit no common interlacer"
    if parent not in roots and pair[0] == pair[1]:
        roots[parent] = left
    elif parent not in roots:
        certified = roots_from_sign_changes(parent, _separators(left, right, start))
        roots[parent] = isolate_real_roots(parent) if certified is None else certified
    top_order = compare_roots(left[-1], right[-1])
    child_min_top = left[-1] if top_order is not Order.GT else right[-1]
    if compare_roots(child_min_top, roots[parent][-1]) is Order.GT:
        return "both children exceed the parent's largest root"
    return None


def audit_interlacing_family(g: Graph, t: SpanningTree, guard: bool = True) -> AuditReport:
    """Check, for every sign prefix: the conditional sum is real-rooted, the
    two children of every internal node admit a common interlacer, and the
    smaller child largest-root does not exceed the parent largest-root.

    Every node is reported on, in (level, index) order, real-rootedness
    first: any node that is not real-rooted suppresses every pair check.
    The work is done once per distinct polynomial, from the leaves up: the
    leaves come from one sweep over the converse halves (`_family_levels`)
    and each distinct leaf polynomial is isolated by a walk.  Each distinct
    pair of real-rooted children is then checked once (`_node_defect`; the
    parent is their sum).  When they admit a common interlacer, the i-th
    root of the parent lies between the children's i-th roots (Marcus,
    Spielman and Srivastava, Interlacing families I), and the checks have
    refined those roots apart: so the parent's roots are certified, with no
    Sturm chain, by sign changes at points between them
    (`roots_from_sign_changes`, at `_separators`); two equal children P hand
    their roots to 2P.  A parent whose children fail, are not real-rooted,
    or whose signs certify nothing is walked as a leaf is.  On a bipartite
    host every node polynomial is symmetric: its negative roots are mirrored
    from its nonnegative ones, and a pair of children is checked on the
    upper halves of their root lists (`interlacer_start`).  Exact answers
    do not depend on how far a shared root was refined or which route
    isolated it, and the report prints no interval.
    """
    g.require_connected()
    co = cotree_edges(g, t)
    m = len(co)
    check_guard("the audit walks 2^(m+1)-1 prefixes", "m", m, AUDIT_GUARD_M, guard)
    levels = _family_levels(g, t, co)

    # sign_vectors yields (-1, ...) before (+1, ...): children of node i at
    # level k are prev[2i] (sign -1) and prev[2i+1] (sign +1)
    def name(k: int, i: int) -> str:
        signs = []
        for bit in range(k - 1, -1, -1):
            signs.append("+" if (i >> bit) & 1 else "-")
        return "(" + "".join(signs) + ")" if signs else "(root)"

    def real_rooted(poly: IntPoly) -> bool:
        return len(roots[poly]) == poly.degree

    roots: dict[IntPoly, list[AlgebraicRoot]] = {}
    for poly in levels[m]:
        if poly not in roots:
            roots[poly] = isolate_real_roots(poly)
    defects: dict[tuple[IntPoly, IntPoly], str | None] = {}
    for k in range(m - 1, -1, -1):
        below = levels[k + 1]
        for i, poly in enumerate(levels[k]):
            pair = (below[2 * i], below[2 * i + 1])
            if pair in defects:
                continue
            checked = real_rooted(pair[0]) and real_rooted(pair[1])
            defects[pair] = _node_defect(pair, poly, roots) if checked else None
            if poly not in roots:
                roots[poly] = isolate_real_roots(poly)
    violations = [
        f"level {k} node {name(k, i)}: sum is not real-rooted"
        for k in range(m + 1)
        for i, poly in enumerate(levels[k])
        if not real_rooted(poly)
    ]
    if not violations:
        for k in range(m):
            below = levels[k + 1]
            for i in range(len(levels[k])):
                defect = defects[below[2 * i], below[2 * i + 1]]
                if defect is not None:
                    violations.append(f"level {k} node {name(k, i)}: {defect}")
    return AuditReport(nodes_checked=2 ** (m + 1) - 1, violations=tuple(violations))


def verify_bound(g: Graph, t: SpanningTree, s: SignVector) -> Order:
    """Exact comparison of lambda_max(H(G_T^s)) against the matching bound."""
    d = build_mixed(g, t, s)
    lam = isolate_largest_root(charpoly_of_mixed(d))
    return compare_roots(lam, matching_radius(g))
