"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity through a different algorithm (and
usually different arithmetic) than the package, so agreement between the
two is evidence of correctness rather than a tautology.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from fractions import Fraction

from orispec import kernel
from orispec.explore import GuoMoharReport, _radius
from orispec.graphs import (
    Graph,
    MixedGraph,
    SignVector,
    SpanningTree,
    bfs_spanning_tree,
    build_mixed,
    cotree_edges,
    sign_vectors,
    tree_from_edges,
)
from orispec.hermitian import charpoly_of_mixed
from orispec.matching import induced_matching_polynomials
from orispec.orientation import AuditReport, conditional_sum_charpoly
from orispec.polynomials import (
    AlgebraicRoot,
    IntPoly,
    Order,
    _divexact_poly,
    _pseudo_rem,
    cauchy_root_bound,
    compare_roots,
    isolate_largest_root,
    poly_gcd,
    roots_admit_common_interlacer,
    squarefree_part,
    sturm_chain,
    variations_at,
    variations_at_ratio,
    variations_neg_inf,
    variations_pos_inf,
)
from orispec.switching import switching_equivalent

# ---------------------------------------------------------------------------
# exact complex-integer determinants (Bareiss) and charpoly by interpolation
# ---------------------------------------------------------------------------

CZERO = (0, 0)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cdivexact(a, b):
    # (a / b) over the Gaussian integers; Bareiss guarantees exactness
    num_re = a[0] * b[0] + a[1] * b[1]
    num_im = a[1] * b[0] - a[0] * b[1]
    den = b[0] * b[0] + b[1] * b[1]
    assert den != 0, "division by zero in Bareiss elimination"
    q_re, r_re = divmod(num_re, den)
    q_im, r_im = divmod(num_im, den)
    assert r_re == 0 and r_im == 0, "inexact division in Bareiss elimination"
    return (q_re, q_im)


def bareiss_det(rows) -> tuple[int, int]:
    """Exact determinant of a square matrix of Gaussian integers.

    Entries are (re, im) pairs.  Fraction-free Bareiss elimination with row
    swaps for zero pivots.
    """
    n = len(rows)
    if n == 0:
        return (1, 0)
    m = [list(row) for row in rows]
    sign = 1
    prev = (1, 0)
    for k in range(n - 1):
        if m[k][k] == CZERO:
            for r in range(k + 1, n):
                if m[r][k] != CZERO:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return CZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _csub(_cmul(m[i][j], m[k][k]), _cmul(m[i][k], m[k][j]))
                m[i][j] = _cdivexact(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return (sign * det[0], sign * det[1])


def charpoly_by_interpolation(re, im, n: int) -> list[int]:
    """det(xI - H) via Bareiss determinants at n+1 integer points plus
    exact Lagrange interpolation.  Flat row-major (re, im) input like the
    package kernels take."""
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        rows = [
            [((x if u == v else 0) - re[u * n + v], -im[u * n + v]) for v in range(n)]
            for u in range(n)
        ]
        d = bareiss_det(rows)
        assert d[1] == 0, "charpoly of a Hermitian matrix must be real-valued"
        ys.append(d[0])
    coeffs = [Fraction(0)] * (n + 1)
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if j == k:
                continue
            # basis *= (x - xj)
            basis = [Fraction(0)] + basis
            for i in range(len(basis) - 1):
                basis[i] -= xj * basis[i + 1]
            denom *= xk - xj
        scale = Fraction(yk, denom)
        for i, c in enumerate(basis):
            coeffs[i] += c * scale
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def charpoly_of_mixed_by_interpolation(d) -> list[int]:
    """Interpolation charpoly straight from a MixedGraph's states."""
    n = d.graph.n
    re = [0] * (n * n)
    im = [0] * (n * n)
    for e, direction in d.states:
        u, v = e
        if direction is None:
            re[u * n + v] = re[v * n + u] = 1
        else:
            t, h = direction
            im[t * n + h] = 1
            im[h * n + t] = -1
    return charpoly_by_interpolation(re, im, n)


# ---------------------------------------------------------------------------
# spanning trees and matchings by brute force
# ---------------------------------------------------------------------------


def kirchhoff_tree_count(g) -> int:
    """Number of spanning trees via a Laplacian cofactor determinant."""
    n = g.n
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for (u, v) in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [[(lap[u][v], 0) for v in range(1, n)] for u in range(1, n)]
    det = bareiss_det(minor)
    assert det[1] == 0
    return det[0]


def spanning_tree_edges_by_recursion(g) -> list[tuple]:
    """The edges of every spanning tree, ascending, by include/exclude
    recursion over the sorted edge list, pruned by a union-find test for
    inclusion and a whole-graph BFS for exclusion: the order reference of
    `graphs.spanning_tree_masks`."""
    g.require_connected()
    edges = list(g.edge_list)
    m = len(edges)
    n = g.n
    out: list[tuple] = []
    if n == 1:
        return [()]

    def connected_using(allowed: list[bool], chosen: list) -> bool:
        adj: list[list[int]] = [[] for _ in range(n)]
        for (u, v) in chosen:
            adj[u].append(v)
            adj[v].append(u)
        for k, ok in enumerate(allowed):
            if ok:
                u, v = edges[k]
                adj[u].append(v)
                adj[v].append(u)
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == n

    comp = list(range(n))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    def rec(idx: int, chosen: list, allowed: list[bool]) -> None:
        if len(chosen) == n - 1:
            out.append(tuple(chosen))
            return
        if idx == m:
            return
        u, v = edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            # include edges[idx]
            comp[ru] = rv
            chosen.append(edges[idx])
            rec(idx + 1, chosen, allowed)
            chosen.pop()
            # undo union by rebuilding
            comp[:] = _rebuild_components(n, chosen)
        # exclude edges[idx] if the rest can still span
        allowed[idx] = False
        if connected_using(allowed, chosen):
            rec(idx + 1, chosen, allowed)
        allowed[idx] = True

    def _rebuild_components(n: int, chosen: list) -> list[int]:
        c = list(range(n))

        def f(x: int) -> int:
            while c[x] != x:
                c[x] = c[c[x]]
                x = c[x]
            return x

        for (a, b) in chosen:
            ra, rb = f(a), f(b)
            if ra != rb:
                c[ra] = rb
        return c

    rec(0, [], [True] * m)
    return out


def spanning_trees_by_recursion(g) -> list[SpanningTree]:
    """`spanning_tree_edges_by_recursion` as SpanningTrees rooted at 0."""
    return [tree_from_edges(g, edges) for edges in spanning_tree_edges_by_recursion(g)]


def matching_counts_by_combinations(g) -> list[int]:
    """counts[k] = number of k-edge matchings, checked subset by subset."""
    edges = sorted(g.edges)
    counts = [1]
    k = 1
    while 2 * k <= g.n:
        total = 0
        for combo in itertools.combinations(edges, k):
            seen = set()
            ok = True
            for (u, v) in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                total += 1
        counts.append(total)
        k += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


# ---------------------------------------------------------------------------
# switching equivalence by exhausting all diagonal phase maps
# ---------------------------------------------------------------------------


def _phase_from_states(states, u: int, v: int) -> int:
    e = (u, v) if u < v else (v, u)
    direction = dict(states)[e]
    if direction is None:
        return 0
    return 1 if direction == (u, v) else 3


def brute_switching_equivalent(d1, d2) -> bool:
    """Try every diagonal of fourth roots of unity (vertex 0 pinned to
    phase 0) with and without converse: 4^(n-1) * 2 candidate maps."""
    if d1.graph != d2.graph:
        return False
    g = d1.graph
    edges = sorted(g.edges)
    p2 = {e: _phase_from_states(d2.states, *e) for e in edges}
    for conv in (False, True):
        p1 = {}
        for e in edges:
            p = _phase_from_states(d1.states, *e)
            p1[e] = (4 - p) % 4 if (conv and p) else p
        for tail in itertools.product(range(4), repeat=g.n - 1):
            ph = (0,) + tail
            if all((p1[e] + ph[e[1]] - ph[e[0]]) % 4 == p2[e] for e in edges):
                return True
    return False


def classify_by_switching_search(g, t) -> list[list[SignVector]]:
    """Switching classes of the 2^m partial orientations over t, found by
    testing each sign vector (ascending) against the first member of every
    class so far with `switching_equivalent`; no closed form is assumed."""
    co = cotree_edges(g, t)
    classes = []
    reps = []
    for signs in sign_vectors(len(co)):
        sv = SignVector(co, signs)
        d = build_mixed(g, t, sv)
        for idx, rep in enumerate(reps):
            if switching_equivalent(rep, d) is not None:
                classes[idx].append(sv)
                break
        else:
            classes.append([sv])
            reps.append(d)
    return classes


# ---------------------------------------------------------------------------
# cycles and the even-cycle tree condition
# ---------------------------------------------------------------------------


def all_cycles(g) -> list[list[int]]:
    """Every simple cycle of g, each listed once as a vertex sequence.

    A cycle is rooted at its smallest vertex; the orientation with the
    smaller second vertex is kept.
    """
    adj = [sorted(a) for a in g.adjacency]
    cycles: list[list[int]] = []

    def extend(path: list[int]) -> None:
        start, u = path[0], path[-1]
        for w in adj[u]:
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(list(path))
            elif w > start and w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for s in range(g.n):
        extend([s])
    return cycles


def even_cycle_tree_condition(g, tree_edges) -> bool:
    """True iff every even cycle of g uses at most |C| - 2 tree edges."""
    tset = set(tree_edges)
    for cycle in all_cycles(g):
        if len(cycle) % 2 != 0:
            continue
        count = 0
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            e = (u, v) if u < v else (v, u)
            if e in tset:
                count += 1
        if count > len(cycle) - 2:
            return False
    return True


# ---------------------------------------------------------------------------
# greedy descent over brute-force conditional sums
# ---------------------------------------------------------------------------


def greedy_by_brute_sums(g, t):
    """The greedy descent with every child computed by enumerating its
    completions (the package's brute-force conditional sum) instead of the
    cycle-expansion table.  Same tie rule: +1 unless the +1 child's largest
    root is greater.  Returns (signs, final charpoly)."""
    signs = []
    for _ in cotree_edges(g, t):
        plus = conditional_sum_charpoly(g, t, (*signs, 1))
        minus = conditional_sum_charpoly(g, t, (*signs, -1))
        larger = compare_roots(isolate_largest_root(plus), isolate_largest_root(minus))
        signs.append(-1 if larger is Order.GT else 1)
    return tuple(signs), conditional_sum_charpoly(g, t, signs)


# ---------------------------------------------------------------------------
# root isolation without shared work
# ---------------------------------------------------------------------------


def spectral_radius_two_isolations(p):
    """max(|root|) of p from two independent isolations: the largest root of
    p, and the largest root of p(-x) with its own square-free part and its
    own Sturm chain (negated twice, as the smallest root of p negated)."""
    top = isolate_largest_root(p)
    bottom_abs = isolate_largest_root(p.reflected()).negated().negated()
    return top if top.compare(bottom_abs) is not Order.LT else bottom_abs


# ---------------------------------------------------------------------------
# root isolation at full degree: the Sturm chain of q itself
# ---------------------------------------------------------------------------


def _full_root_window(q, chain, a: int, b: int, d: int):
    """`polynomials._root_window` with a sign of q and variations of q's
    own chain in place of the half-degree counts."""
    w = b - a
    m = (a + b) << 1
    s = 2
    while True:
        e = d << s
        left, right = m - w, m + w
        if q.sign_at_ratio(left, e) and q.sign_at_ratio(right, e):
            vl, vr = variations_at_ratio(chain, left, e), variations_at_ratio(chain, right, e)
            if vl - vr == 1:
                return left, vl, right, vr, s
        m <<= 1
        s += 1


def _full_isolate_squarefree(q, chain) -> list[AlgebraicRoot]:
    if q.degree == 1:
        c0, c1 = q.coeffs
        return [AlgebraicRoot.exact(q, Fraction(-c0, c1))]
    bound = cauchy_root_bound(q)
    radius = q.root_radius()
    out: list[AlgebraicRoot] = []

    def walk(a, va, b, vb, d):
        count = va - vb
        if count == 0:
            return
        if count == 1:
            out.append(AlgebraicRoot._isolated(q, a, b, d))
            return
        mid, d2 = a + b, d << 1
        limit = radius * d2
        if mid > limit:
            vm = vb
        elif mid < -limit:
            vm = va
        elif q.sign_at_ratio(mid, d2) == 0:
            left, vl, right, vr, s = _full_root_window(q, chain, a, b, d)
            walk(a << s, va, left, vl, d << s)
            out.append(AlgebraicRoot._isolated(q, mid, mid, d2))
            walk(right, vr, b << s, vb, d << s)
            return
        else:
            vm = variations_at_ratio(chain, mid, d2)
        walk(a << 1, va, mid, vm, d2)
        walk(mid, vm, b << 1, vb, d2)

    walk(-bound, variations_neg_inf(chain), bound, variations_pos_inf(chain), 1)
    return out


def _full_largest_root(q) -> AlgebraicRoot:
    if q.degree == 1:
        c0, c1 = q.coeffs
        return AlgebraicRoot.exact(q, Fraction(-c0, c1))
    chain = sturm_chain(q)
    bound = cauchy_root_bound(q)
    radius = q.root_radius()
    lo, hi, d = -bound, bound, 1
    va, vb = variations_neg_inf(chain), variations_pos_inf(chain)
    count = va - vb
    if count == 0:
        raise ValueError("polynomial has no real roots")
    while count > 1:
        mid, d2 = lo + hi, d << 1
        limit = radius * d2
        if mid > limit:
            vm = vb
        elif mid < -limit:
            vm = va
        elif q.sign_at_ratio(mid, d2) == 0:
            _, _, right, vr, s = _full_root_window(q, chain, lo, hi, d)
            above = vr - vb
            if above == 0:
                return AlgebraicRoot._isolated(q, mid, mid, d2)
            lo, hi, d, va, count = right, hi << s, d << s, vr, above
            continue
        else:
            vm = variations_at_ratio(chain, mid, d2)
        above = vm - vb
        if above >= 1:
            lo, hi, d, va, count = mid, hi << 1, d2, vm, above
        else:
            lo, hi, d, vb, count = lo << 1, mid, d2, vm, va - vm
    return AlgebraicRoot._isolated(q, lo, hi, d)


def _full_squarefree(p):
    if p.is_zero:
        raise ValueError("zero polynomial")
    q = squarefree_part(p)
    if q.degree < 1:
        raise ValueError("polynomial has no roots")
    return q


def largest_root_full_degree(p) -> AlgebraicRoot:
    """`isolate_largest_root` by bisection on the Sturm chain of the
    square-free part q itself, whatever its symmetry."""
    return _full_largest_root(_full_squarefree(p))


def smallest_root_full_degree(p) -> AlgebraicRoot:
    """`isolate_smallest_root` as minus the full-degree largest root of
    q(-x) made primitive, on a Sturm chain built for q(-x) itself."""
    return _full_largest_root(_full_squarefree(p).reflected().primitive()).negated()


def extreme_roots_full_degree(p) -> tuple[AlgebraicRoot, AlgebraicRoot]:
    """`isolate_extreme_roots` at full degree: the second bisection always
    runs, on the Sturm chain built for q(-x), symmetric q included."""
    q = _full_squarefree(p)
    return _full_largest_root(q), _full_largest_root(q.reflected().primitive())


def squarefree_decomposition_full_degree(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """`squarefree_decomposition` by Musser's repeated-gcd loop on p itself,
    whatever its symmetry."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = p.primitive()
    if f.degree == 0:
        return []
    w = poly_gcd(f, f.derivative())
    if w.degree == 0:
        return [(f, 1)]
    c = _divexact_poly(f, w).primitive()  # product of the distinct factors
    out: list[tuple[IntPoly, int]] = []
    k = 1
    while c.degree > 0:
        y = poly_gcd(w, c)  # distinct factors of multiplicity > k
        factor = _divexact_poly(c, y).primitive()
        if factor.degree > 0:
            out.append((factor, k))
        c = y
        if w.degree > 0:
            w = _divexact_poly(w, y).primitive()
        k += 1
    return out


def real_roots_full_degree(p) -> list[AlgebraicRoot]:
    """`isolate_real_roots` with Musser's loop on p itself and each
    square-free factor isolated on its own Sturm chain, every root walked
    (none mirrored), merged by the same sort whatever the number of
    factors."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    groups = []
    for factor, mult in squarefree_decomposition_full_degree(p):
        if factor.degree >= 1:
            groups += [(root, mult) for root in _full_isolate_squarefree(factor, sturm_chain(factor))]
    groups.sort(key=functools.cmp_to_key(lambda x, y: -1 if x[0].compare(y[0]) is Order.LT else 1))
    return [root for root, mult in groups for _ in range(mult)]


# ---------------------------------------------------------------------------
# root decisions by Sturm counts and the plain pseudo-remainder gcd
# ---------------------------------------------------------------------------


def count_roots_open(chain, a: Fraction, b: Fraction) -> int:
    """Distinct roots in the open interval (a, b); endpoints must not be roots."""
    if chain[0].sign_at(a) == 0 or chain[0].sign_at(b) == 0:
        raise ValueError("interval endpoint is a root")
    return variations_at(chain, a) - variations_at(chain, b)


def poly_gcd_by_prs(a: IntPoly, b: IntPoly) -> IntPoly:
    """`poly_gcd` by the primitive pseudo-remainder sequence alone, with no
    certificate modulo a prime."""
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    f, g = a.primitive(), b.primitive()
    if f.degree < g.degree:
        f, g = g, f
    while not g.is_zero:
        rem, _ = _pseudo_rem(f, g)
        f, g = g, rem.primitive()
    return f


class FractionRoot:
    """Bisection with `Fraction` endpoints: the reference for the interval
    states of `AlgebraicRoot`, which keeps its endpoints as integers over one
    denominator.

    The same rules, in rational arithmetic: a step keeps the half whose ends
    differ in sign, a rational value is compared by bisecting while it lies
    inside, and overlapping intervals are equal when the gcd (by the plain
    pseudo-remainder sequence) changes sign across their intersection.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction) -> None:
        self.poly, self.lo, self.hi = poly, Fraction(lo), Fraction(hi)

    @classmethod
    def of(cls, root: AlgebraicRoot) -> "FractionRoot":
        return cls(root.poly, root.lo, root.hi)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def _refine_step(self) -> None:
        if self.is_exact:
            return
        mid = (self.lo + self.hi) / 2
        sign = self.poly.sign_at(mid)
        if sign == 0:
            self.lo = self.hi = mid
        elif sign == self.poly.sign_at(self.lo):
            self.lo = mid
        else:
            self.hi = mid

    def refine(self, eps) -> tuple[Fraction, Fraction]:
        while not self.is_exact and self.hi - self.lo >= eps:
            self._refine_step()
        return (self.lo, self.hi)

    def compare_rational(self, value) -> Order:
        value = Fraction(value)
        if self.is_exact:
            return Order.EQ if self.lo == value else (Order.LT if self.lo < value else Order.GT)
        if self.lo < value < self.hi and self.poly.evaluate(value) == 0:
            return Order.EQ
        while self.lo < value < self.hi:
            self._refine_step()
        return Order.LT if self.hi <= value else Order.GT

    def compare(self, other: "FractionRoot") -> Order:
        if self is other:
            return Order.EQ
        if other.is_exact:
            return self.compare_rational(other.lo)
        if self.is_exact:
            return {Order.LT: Order.GT, Order.EQ: Order.EQ, Order.GT: Order.LT}[other.compare_rational(self.lo)]
        if self.poly == other.poly and (self.lo, self.hi) == (other.lo, other.hi):
            return Order.EQ
        if self.hi <= other.lo:
            return Order.LT
        if other.hi <= self.lo:
            return Order.GT
        g = poly_gcd_by_prs(self.poly, other.poly)
        a, b = max(self.lo, other.lo), min(self.hi, other.hi)
        if g.degree >= 1 and a < b and g.sign_at(a) != g.sign_at(b):
            return Order.EQ
        while True:
            wider = self if self.hi - self.lo >= other.hi - other.lo else other
            wider._refine_step()
            if self.is_exact or other.is_exact:
                return self.compare(other)
            if self.hi <= other.lo:
                return Order.LT
            if other.hi <= self.lo:
                return Order.GT


class SturmRoot(AlgebraicRoot):
    """An algebraic root that decides every step by Sturm counts.

    A bisection step keeps the half whose ends differ in the number of sign
    variations of the chain, and overlapping intervals are equal when the
    gcd's chain counts a root between them.  Everything else is inherited,
    so a `SturmRoot` and an `AlgebraicRoot` in one interval state must stay
    in one state through any sequence of `compare` and `refine` calls.
    """

    __slots__ = ("_chain", "_vlo")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction) -> None:
        super().__init__(poly, lo, hi)
        self._chain = None
        self._vlo = None

    @classmethod
    def of(cls, root: AlgebraicRoot) -> "SturmRoot":
        return cls(root.poly, root.lo, root.hi)

    def _keep(self, lo: Fraction, hi: Fraction) -> None:
        """Write the half (lo, hi) of a bisection step as integers over
        twice the denominator."""
        d = 2 * self._d
        self._a, self._b, self._d = int(lo * d), int(hi * d), d

    def _refine_step(self) -> None:
        if self.is_exact:
            return
        mid = (self.lo + self.hi) / 2
        if self.poly.sign_at(mid) == 0:
            self._keep(mid, mid)
            return
        if self._chain is None:
            self._chain = sturm_chain(self.poly)
        if self._vlo is None:
            self._vlo = variations_at(self._chain, self.lo)
        vm = variations_at(self._chain, mid)
        if self._vlo - vm == 1:
            self._keep(self.lo, mid)
        else:
            self._keep(mid, self.hi)
            self._vlo = vm

    def compare(self, other: "SturmRoot") -> Order:
        if self is other:
            return Order.EQ
        if other.is_exact:
            return self.compare_rational(other.lo)
        if self.is_exact:
            flipped = other.compare_rational(self.lo)
            if flipped is Order.EQ:
                return Order.EQ
            return Order.LT if flipped is Order.GT else Order.GT
        if self.poly == other.poly and self.lo == other.lo and self.hi == other.hi:
            return Order.EQ
        if self.hi <= other.lo:
            return Order.LT
        if other.hi <= self.lo:
            return Order.GT
        g = poly_gcd_by_prs(self.poly, other.poly)
        if g.degree >= 1:
            a = max(self.lo, other.lo)
            b = min(self.hi, other.hi)
            if a < b and count_roots_open(sturm_chain(g), a, b) >= 1:
                return Order.EQ
        while True:
            wider = self if self.width >= other.width else other
            wider._refine_step()
            if self.is_exact or other.is_exact:
                return self.compare(other)
            if self.hi <= other.lo:
                return Order.LT
            if other.hi <= self.lo:
                return Order.GT


def sign_sweep_charpolys_by_kernel(n, tree_edges, cotree, sign_seq, tree_arcs=False):
    """The charpolys `GainTable.sweep` reads, by one kernel charpoly per sign
    vector of sign_seq: tree edges undirected, or with tree_arcs as arcs
    u -> v, and cotree edge j = (u, v) the arc u -> v for s_j = +1 and
    v -> u for -1.  The Hermitian matrix of each is built entry by entry."""
    re = [0] * (n * n)
    base_im = [0] * (n * n)
    for (u, v) in tree_edges:
        if tree_arcs:
            base_im[u * n + v] = 1
            base_im[v * n + u] = -1
        else:
            re[u * n + v] = re[v * n + u] = 1
    for signs in sign_seq:
        im = list(base_im)
        for (u, v), s in zip(cotree, signs):
            im[u * n + v] = s
            im[v * n + u] = -s
        yield tuple(kernel.charpoly_flat(re, im, n))


def cycle_expansion_per_tree(n, tree_edges, cotree, tree_arcs=False):
    """The nonzero c_S of phi(H_s) = sum_S c_S prod_{j in S} s_j over one
    (tree, cotree) pair, as ascending coefficients keyed by the mask of S
    (bit m-1-j for cotree edge j), built for that tree alone.

    The sets S are walked in Gray-code order, so that the cycle-space element
    E of S changes by one fundamental cycle per step.  E is an even
    subgraph, so it is 2-regular exactly when it has as many edges as it
    touches vertices, counted over all n vertices; then D is E's cycles.
    Each cycle is walked once to count its arcs a and the arcs it crosses
    against their direction b: the entries multiply to prod s_j i^a (-1)^b,
    whose real part is 0 for odd a and (-1)^(a/2 + b) prod s_j for even a.
    """
    tree_edges = tuple(tree_edges)
    m = len(cotree)
    g = Graph.of(n, [*tree_edges, *cotree])
    # edge bit m-1-j is cotree edge j, bit m+i is tree edge i: (tail, head, arc)
    edges = [(u, v, True) for (u, v) in reversed(cotree)]
    edges += [(u, v, tree_arcs) for (u, v) in tree_edges]
    star = [0] * n
    for bit, (u, v, _) in enumerate(edges):
        star[u] |= 1 << bit
        star[v] |= 1 << bit
    tree_adj = [[] for _ in range(n)]
    for bit, (u, v) in enumerate(tree_edges, start=m):
        tree_adj[u].append((v, bit))
        tree_adj[v].append((u, bit))
    up = [0] * n
    frontier = [0] if n else []
    reached = set(frontier)
    for u in frontier:
        for v, bit in tree_adj[u]:
            if v not in reached:
                reached.add(v)
                up[v] = up[u] | 1 << bit
                frontier.append(v)
    assert len(reached) == n and len(g.edges) == len(tree_edges) + m
    fundamental = [1 << bit | up[u] ^ up[v] for bit, (u, v, _) in enumerate(edges[:m])]
    mu = induced_matching_polynomials(g)
    everyone = (1 << n) - 1
    terms = {0: list(mu(everyone))}
    element = 0
    for k in range(1, 1 << m):
        flip = (k & -k).bit_length() - 1
        element ^= fundamental[flip]
        if element.bit_count() != sum(1 for at in star if element & at):
            continue
        factor, covered, rest = 1, 0, element
        while rest and factor:
            first = rest & -rest
            rest ^= first
            start, here, arcs = edges[first.bit_length() - 1]
            against = 0
            covered |= 1 << start
            while here != start:
                covered |= 1 << here
                step = rest & star[here]
                rest ^= step
                u, v, arc = edges[step.bit_length() - 1]
                arcs += arc
                against += arc and u != here
                here = v if u == here else u
            factor = 0 if arcs % 2 else -2 * factor * (-1) ** (arcs // 2 + against)
        if factor:
            terms[k ^ (k >> 1)] = [factor * c for c in mu(everyone ^ covered)]
    return terms


def sign_sweep_by_tree_table(n, tree_edges, cotree, sign_seq, tree_arcs=False):
    """`sign_sweep_charpolys_by_kernel` from the table of
    `cycle_expansion_per_tree`, summed term by term for each sign vector (no
    transform)."""
    m = len(cotree)
    terms = cycle_expansion_per_tree(n, tree_edges, cotree, tree_arcs)
    for signs in sign_seq:
        minus = 0
        for s in signs:
            minus = 2 * minus + (s == -1)
        total = [0] * (n + 1)
        for mask, coeffs in terms.items():
            sign = -1 if (mask & minus).bit_count() & 1 else 1
            for i, c in enumerate(coeffs):
                total[i] += sign * c
        yield tuple(total)


def audit_interlacing_family_unreduced(g, t) -> AuditReport:
    """The interlacing-family audit over all 2^m leaves, each node isolated
    at full degree (`real_roots_full_degree`) and each internal node checked
    on its own, on the full root lists, in (level, index) order."""
    co = cotree_edges(g, t)
    m = len(co)
    levels = [[] for _ in range(m + 1)]
    levels[m] = [IntPoly(p) for p in sign_sweep_charpolys_by_kernel(g.n, t.tree_edges, co, sign_vectors(m))]
    for k in range(m - 1, -1, -1):
        prev = levels[k + 1]
        levels[k] = [prev[2 * i] + prev[2 * i + 1] for i in range(len(prev) // 2)]

    def name(k, i):
        signs = ["+" if (i >> bit) & 1 else "-" for bit in range(k - 1, -1, -1)]
        return "(" + "".join(signs) + ")" if signs else "(root)"

    violations = []
    roots = [[] for _ in range(m + 1)]
    nodes = 0
    for k in range(m + 1):
        for i, poly in enumerate(levels[k]):
            nodes += 1
            rs = real_roots_full_degree(poly)
            roots[k].append(rs)
            if len(rs) != poly.degree:
                violations.append(f"level {k} node {name(k, i)}: sum is not real-rooted")
    if not violations:
        for k in range(m):
            for i in range(len(levels[k])):
                left = roots[k + 1][2 * i]
                right = roots[k + 1][2 * i + 1]
                if not roots_admit_common_interlacer(left, right):
                    violations.append(
                        f"level {k} node {name(k, i)}: children admit no common interlacer"
                    )
                    continue
                parent_top = roots[k][i][-1]
                child_min_top = left[-1] if compare_roots(left[-1], right[-1]) is not Order.GT else right[-1]
                if compare_roots(child_min_top, parent_top) is Order.GT:
                    violations.append(
                        f"level {k} node {name(k, i)}: both children exceed the parent's largest root"
                    )
    return AuditReport(nodes_checked=nodes, violations=tuple(violations))


# ---------------------------------------------------------------------------
# minimum-rho search and bound sweep, without symmetries
# ---------------------------------------------------------------------------


def radius_min_unpruned(candidates, radii, gcds):
    """`explore._radius_min` without its sign-test pruning: every candidate
    is isolated and compared against the best so far."""
    best_root = None
    best_witness = None
    for poly, witness in candidates:
        root = _radius(poly, radii)
        if best_root is None or compare_roots(root, best_root, gcds=gcds) is Order.LT:
            best_root, best_witness = root, witness
    assert best_root is not None
    return best_root, best_witness


def min_rho_partial_unreduced(g):
    """One charpoly per (spanning tree, sign vector) pair; each distinct
    charpoly keeps its first witness in enumeration order (trees as listed,
    then signs ascending), and the minimum is taken over them in that order,
    without a gcd memo.  Returns (root, tree, sign vector, candidate list
    compared); each candidate's witness is its (tree, signs)."""
    n = g.n
    seen = {}
    for t in spanning_trees_by_recursion(g):
        co = cotree_edges(g, t)
        re = [0] * (n * n)
        for (u, v) in t.tree_edges:
            re[u * n + v] = 1
            re[v * n + u] = 1
        for signs in sign_vectors(len(co)):
            im = [0] * (n * n)
            for j, s in enumerate(signs):
                u, v = co[j]
                im[u * n + v] = s
                im[v * n + u] = -s
            poly = tuple(kernel.charpoly_flat(re, im, n))
            if poly not in seen:
                seen[poly] = (t, signs)
    candidates = [(IntPoly(p), tw) for p, tw in seen.items()]
    root, (t, signs) = radius_min_unpruned(candidates, {}, None)
    return root, t, SignVector(cotree_edges(g, t), signs), candidates


def min_rho_all_mixed_by_kernel(g):
    """The minimum spectral radius over all 3^|E| mixed graphs on g, one
    kernel charpoly per state in `itertools.product` order (undirected,
    forwards, backwards per edge); each distinct charpoly keeps its first
    state's mixed graph as witness.  Returns (root, witness)."""
    edges = g.edge_list
    seen = {}
    for states in itertools.product((0, 1, 2), repeat=len(edges)):
        directions = {e: None if st == 0 else (e if st == 1 else (e[1], e[0])) for e, st in zip(edges, states)}
        d = MixedGraph.of(g, directions)
        poly = charpoly_of_mixed(d)
        if poly not in seen:
            seen[poly] = d
    return radius_min_unpruned(list(seen.items()), {}, None)


def guo_mohar_sweep_unreduced(g) -> GuoMoharReport:
    """The rho(mixed) <= rho(G) sweep over all 2^m partial orientations of
    the BFS tree at 0 (no converse halving) and all 2^m reduced complete
    orientations (tree arcs from smaller to larger endpoint), built as mixed
    graphs, deduplicated by charpoly and compared exactly against rho(G)."""
    t = bfs_spanning_tree(g, 0)
    co = cotree_edges(g, t)
    undirected_tree = {e: None for e in t.tree_edges}
    oriented_tree = {e: e for e in t.tree_edges}
    polys = set()
    for signs in sign_vectors(len(co)):
        sv = SignVector(co, signs)
        arcs = {e: sv.arc(j) for j, e in enumerate(co)}
        for tree in (undirected_tree, oriented_tree):
            polys.add(charpoly_of_mixed(MixedGraph.of(g, {**tree, **arcs})).coeffs)
    rho_g = spectral_radius_two_isolations(charpoly_of_mixed(MixedGraph.undirected(g)))
    violations = []
    for poly in sorted(polys):
        if compare_roots(spectral_radius_two_isolations(IntPoly(poly)), rho_g) is Order.GT:
            violations.append(f"charpoly {IntPoly(poly)} has rho above rho(G)")
    return GuoMoharReport(checked=len(polys), violations=tuple(violations))


# ---------------------------------------------------------------------------
# numeric eigenvalues (external library route)
# ---------------------------------------------------------------------------


def numpy_eigenvalues(d) -> list[float]:
    import numpy as np

    n = d.graph.n
    h = np.zeros((n, n), dtype=complex)
    for e, direction in d.states:
        u, v = e
        if direction is None:
            h[u, v] = h[v, u] = 1.0
        else:
            t, hd = direction
            h[t, hd] = 1j
            h[hd, t] = -1j
    return sorted(np.linalg.eigvalsh(h).tolist())
