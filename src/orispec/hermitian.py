"""Hermitian adjacency matrices over the Gaussian integers.

An undirected edge contributes 1 to both symmetric entries; an arc u -> v
contributes i at (u, v) and -i at (v, u).  The matrix is Hermitian, so its
spectrum is real and its characteristic polynomial has integer
coefficients, which we compute exactly; numeric eigenvalues are its roots,
isolated exactly and rounded (`eigenvalues_numeric`).

A single matrix goes through the kernel.  Families of mixed graphs on one
graph G (the partial orientations over every spanning tree, the complete
orientations, all 3^|E| mixed graphs) go through Sachs' theorem in its
gain-graph form instead (Reff 2012; Guo & Mohar 2017):

    phi(H) = sum_D (-2)^c(D) prod_{C in D} Re w(C) mu(G - V(D)),

D ranging over the sets of c(D) vertex-disjoint cycles of G, w(C) being the
product of the entries around C and mu the matching polynomial.  Fix one
spanning tree T0: w(C) depends only on the gains i^(g_j) of the m
fundamental cycles of T0, so one table per (G, T0) (`GainTable`) holds
every D with the cotree crossings of its cycles, and phi depends on g in
Z4^m alone.  The table is folded once per coset g = pi + 2b (pi fixed, b in
{0, 1}^m) into c_S(pi), S the cotree support of D, at most one D per S
because D is the element of the cycle space with those cotree edges; one
Walsh-Hadamard transform of the fold gives all 2^m charpolys of the coset.
Every sign sweep is read from one coset (`GainTable.sweep`): `classify` and
the interlacing-family audit sweep the converse halves over the table of
their own tree, and `explore` sweeps every tier over the table of its BFS
tree.  The conditional sums of the greedy descent are prefix sums of the
fold of the tree's table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernel
from .graphs import Edge, Graph, MixedGraph, SignVector, SpanningTree, build_mixed, cotree_edges, norm_edge
from .matching import induced_matching_polynomials
from .polynomials import (
    AlgebraicRoot,
    IntPoly,
    Order,
    isolate_extreme_roots,
    isolate_largest_root,
    isolate_smallest_root,
    roots_numeric,
)


@dataclass(frozen=True)
class GaussInt:
    """Gaussian integer re + im*i."""

    re: int = 0
    im: int = 0

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        tail = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{tail}"

    def to_json(self) -> list[int]:
        return [self.re, self.im]


G_ZERO = GaussInt(0, 0)
G_ONE = GaussInt(1, 0)
G_I = GaussInt(0, 1)


@dataclass(frozen=True)
class HermitianMatrix:
    """Square Gaussian-integer matrix equal to its conjugate transpose."""

    entries: tuple[tuple[GaussInt, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for u in range(n):
            if self.entries[u][u].im != 0:
                raise ValueError(f"diagonal entry {u} is not real")
            for v in range(u + 1, n):
                if self.entries[u][v] != self.entries[v][u].conjugate():
                    raise ValueError(f"entries ({u},{v}) and ({v},{u}) are not conjugate")

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, u: int, v: int) -> GaussInt:
        return self.entries[u][v]

    def flat(self) -> tuple[list[int], list[int]]:
        re = []
        im = []
        for row in self.entries:
            for e in row:
                re.append(e.re)
                im.append(e.im)
        return re, im

    def to_json(self) -> list[list[list[int]]]:
        return [[e.to_json() for e in row] for row in self.entries]


def hermitian_adjacency(d: MixedGraph) -> HermitianMatrix:
    """The Hermitian adjacency matrix of a mixed graph."""
    n = d.graph.n
    rows = [[G_ZERO] * n for _ in range(n)]
    for e, direction in d.states:
        u, v = e
        if direction is None:
            rows[u][v] = G_ONE
            rows[v][u] = G_ONE
        else:
            tail, head = direction
            rows[tail][head] = G_I
            rows[head][tail] = -G_I
    return HermitianMatrix(tuple(tuple(row) for row in rows))


def charpoly(h: HermitianMatrix) -> IntPoly:
    """det(xI - H), exactly."""
    re, im = h.flat()
    return IntPoly(kernel.charpoly_flat(re, im, h.n))


def charpoly_of_mixed(d: MixedGraph) -> IntPoly:
    return charpoly(hermitian_adjacency(d))


Gain = tuple[int, int]


class GainTable:
    """Sachs' cycle expansion of one graph, keyed by cycle gains.

    Fix a spanning tree T0 with cotree edges j = (u_j, v_j) and their
    fundamental cycles F_j, each walked u_j -> v_j and back along T0.  Any
    mixed graph on the same edges gives F_j a gain i^(g_j); the vector
    g in Z4^m (a `Gain`) determines the charpoly.  A cycle C that crosses
    cotree edge j forwards (eps_j = 1) or backwards (eps_j = -1) is the
    chain sum_j eps_j F_j, so its gain is i^(eps . g).  The table stores,
    for each 2-regular element D of the cycle space, its vertex set, for
    the term mu(G - V(D)), and the eps-vector of each of its cycles; D's key
    is its cotree support S, bit m-1-j for cotree edge j.

    A Gain is bit-sliced with the same bit order: (parity, carry) masks with
    g_j = parity_j + 2 carry_j.  Adding 2b to g flips carry by b and leaves
    the parity, so with g = pi + 2b,

        phi(g) = sum_S c_S(pi) (-1)^|S & b|,
        c_S(pi) = mu(G - V(D)) prod_{C in D} -2 Re i^(eps_C . pi),

    and one Walsh-Hadamard transform of the fold c(pi) gives all 2^m
    charpolys of the coset pi (`coset`).  Charpolys are packed into one
    integer each, base 2^width with signed digits; the width holds every
    partial sum of every fold, so packed integers of one table are equal
    exactly when their charpolys are (`unpack`).

    Built from (G, T0): the cotree is `cotree_edges(g, t)`, kept as
    `cotree`, and tree paths run toward `t.root`; a column records how each
    fundamental cycle crosses the arc, so none depends on the root.
    """

    def __init__(self, g: Graph, t: SpanningTree) -> None:
        cotree = self.cotree = cotree_edges(g, t)
        tree_edges = tuple(t.tree_edges)
        m = self.m = len(cotree)
        n = g.n
        # edge bit m-1-j is cotree edge j, bit m+i is tree edge i
        edges = [*reversed(cotree), *tree_edges]
        star = [0] * n
        for bit, (u, v) in enumerate(edges):
            star[u] |= 1 << bit
            star[v] |= 1 << bit
        # the path to the root of each vertex, as an edge mask, and the
        # endpoint of each tree edge away from the root, parents first
        tree_bit = {e: bit for bit, e in enumerate(tree_edges, start=m)}
        up = [0] * n
        child: dict[int, int] = {}
        for v in t.order[1:]:
            p = t.parent[v]
            bit = tree_bit[norm_edge(v, p)]
            up[v] = up[p] | 1 << bit
            child[bit] = v
        fundamental = [1 << bit | up[u] ^ up[v] for bit, (u, v) in enumerate(edges[:m])]

        # the gain of the single arc u -> v: cotree edge j adds 1 to g_j; a
        # tree edge p -> c (c below p) adds 1 to each F_j through it that
        # starts below c and -1 to each that ends below c
        columns: dict[tuple[int, int], Gain] = {}
        for bit, (u, v) in enumerate(edges):
            if bit < m:
                parity, carry = 1 << bit, 0
            else:
                parity = carry = 0
                for j, (_, end) in enumerate(edges[:m]):
                    if fundamental[j] >> bit & 1:
                        parity |= 1 << j
                        if up[end] >> bit & 1:
                            carry |= 1 << j
                if child[bit] == u:  # listed as c -> p
                    carry ^= parity
            columns[(u, v)] = (parity, carry)
            columns[(v, u)] = (parity, carry ^ parity)
        self._columns = columns

        # Walk the 2^m cotree sets in Gray-code order, so that the element
        # changes by one fundamental cycle per step.  It is an even subgraph,
        # so it is 2-regular exactly when no vertex has degree 4 or more;
        # only the vertices of the flipped cycle change degree, and the
        # shortest cycles take the Gray code's most frequent flips.
        touched = [[(v, at) for v, at in enumerate(star) if f & at] for f in fundamental]
        order = sorted(range(m), key=lambda bit: len(touched[bit]))
        heavy = [False] * n
        crowded = 0
        # per 2-regular element: its key S, its vertex mask and one integer
        # per cycle, forward crossings | backward crossings << m
        keys, covers, cycle_sets = [0], [0], [()]
        element = key = 0
        for k in range(1, 1 << m):
            bit = order[(k & -k).bit_length() - 1]
            element ^= fundamental[bit]
            key ^= 1 << bit
            for v, at in touched[bit]:
                now = (element & at).bit_count() > 2
                crowded += now - heavy[v]
                heavy[v] = now
            if crowded:
                continue
            cycles = []
            covered, rest = 0, element
            while rest:
                first = rest & -rest
                rest ^= first
                start, here = edges[first.bit_length() - 1]
                crossings = first
                covered |= 1 << start
                while here != start:
                    covered |= 1 << here
                    step = rest & star[here]
                    rest ^= step
                    u, v = edges[step.bit_length() - 1]
                    if step >> m == 0:
                        crossings |= step if u == here else step << m
                    here = v if u == here else u
                cycles.append(crossings)
            keys.append(key)
            covers.append(covered)
            cycle_sets.append(tuple(cycles))

        # |c_S| is at most 2^c(D) |mu(G - V(D))|_1, and |mu(H)|_1 counts the
        # matchings of H, which are matchings of G: no partial sum of a fold
        # exceeds bound in any coefficient
        self._mu = induced_matching_polynomials(g)
        self._everyone = (1 << n) - 1
        bound = sum(map(abs, self._mu(self._everyone))) * sum(1 << len(cycles) for cycles in cycle_sets)
        width = self._width = bound.bit_length() + 1
        self._terms = (keys, covers, cycle_sets)
        self._packed_mu: dict[int, int] = {}
        digit = (1 << width) - 1
        self._shifts = range(0, width * (n + 1), width)
        self._half = digit >> 1
        self._bias = sum(self._half << shift for shift in self._shifts)
        self._all_odd: list[int] | None = None  # the coset with parity 1...1

    def gain(self, arcs: Iterable[tuple[int, int]]) -> Gain:
        """The gain of the mixed graph with the given arcs, other edges
        undirected: the Z4 sum of the gains of its single arcs."""
        parity = carry = 0
        for arc in arcs:
            p, c = self._columns[arc]
            carry ^= c ^ (parity & p)
            parity ^= p
        return parity, carry

    def fold(self, parity: int) -> dict[int, int]:
        """The nonzero c_S(parity), packed, keyed by S."""
        backward = parity << self.m
        out = {}
        for key, covered, cycles in zip(*self._terms):
            factor = 1
            for crossings in cycles:
                turn = (crossings & parity).bit_count() - (crossings & backward).bit_count()
                if turn & 1:
                    break
                factor *= 2 if turn & 2 else -2
            else:
                out[key] = factor * self._packed_term(covered)
        return out

    def _packed_term(self, covered: int) -> int:
        """mu(G - V(D)) for the vertex mask V(D), packed; each mask is
        packed once, when a fold first needs it."""
        packed = self._packed_mu.get(covered)
        if packed is None:
            packed = 0
            for c in reversed(self._mu(self._everyone ^ covered)):
                packed = (packed << self._width) + c
            self._packed_mu[covered] = packed
        return packed

    def coset(self, parity: int) -> list[int]:
        """Packed phi(parity + 2b) at index b, for every b.

        The coset with parity 1...1, which the partial orientations over the
        table's own tree read, and the complete ones when every fundamental
        cycle is odd, is kept once transformed and handed out again, so
        callers must not mutate it.
        """
        all_odd = parity == (1 << self.m) - 1
        if all_odd and self._all_odd is not None:
            return self._all_odd
        table = [0] * (1 << self.m)
        for key, packed in self.fold(parity).items():
            table[key] = packed
        # Walsh-Hadamard transform in constant geometry: pairing i with
        # i + 2^(m-1) and writing the sum and difference to 2i and 2i + 1
        # rotates the index bits, so m passes treat every bit once and end
        # in order.
        middle = len(table) >> 1
        for _ in range(self.m):
            low, high = table[:middle], table[middle:]
            table[0::2] = map(operator.add, low, high)
            table[1::2] = map(operator.sub, low, high)
        if all_odd:
            self._all_odd = table
        return table

    def value(self, gain: Gain) -> int:
        """Packed phi(gain), summed straight from the fold."""
        parity, carry = gain
        return sum(-c if (key & carry).bit_count() & 1 else c for key, c in self.fold(parity).items())

    def sweep(self, arcs: Sequence[tuple[int, int]], signed: Sequence[Edge], half: bool = False) -> list[int]:
        """Packed charpolys of the mixed graphs with the given arcs, edge k
        of signed directed u -> v for s_k = +1 and v -> u for -1, and the
        other edges undirected, over `sign_vectors(len(signed))` in order,
        or over its first half (`converse_halves`).

        Reversing edge k adds twice its column, which flips the carry by
        the column's parity; every vector lies in the coset of the all-+1
        gain.  The parities of the columns of signed edges are independent
        whenever those edges are the cotree of some spanning tree, and then
        the sweep visits each element of the coset once.

        Callers: `converse_half_charpolys` reads the converse halves over
        the table of their own tree; the `explore` searches read the
        complete orientations and the converse halves of every visited tree
        over the table of the BFS tree.
        """
        parity, carry = self.gain([*arcs, *signed])
        flips = [self._columns[e][0] for e in signed]
        for p in flips:
            carry ^= p  # every sign -1
        indices = [carry]
        for p in reversed(flips[1:] if half else flips):
            indices += [b ^ p for b in indices]
        coset = self.coset(parity)
        return [coset[b] for b in indices]

    def unpack(self, packed: int) -> tuple[int, ...]:
        """The ascending coefficients of a packed charpoly of this table."""
        packed += self._bias
        digit, half = (self._half << 1) | 1, self._half
        return tuple([((packed >> shift) & digit) - half for shift in self._shifts])


def converse_half_charpolys(g: Graph, t: SpanningTree) -> list[IntPoly]:
    """The charpolys of the partial orientations over t, one per converse
    pair: those of the first half of `sign_vectors(m)` over the cotree,
    read from one `GainTable.sweep` over the table of t itself.  The
    second half are the converses, in reverse order, with the same
    charpolys (the matrices are complex conjugates).

    Callers: `cmd_classify` (class i of `classify_partial_orientations` is
    the converse pair of the i-th) and the audit's leaves
    (`orientation._family_levels`).
    """
    table = GainTable(g, t)
    return [IntPoly(table.unpack(p)) for p in table.sweep((), table.cotree, half=True)]


# ---------------------------------------------------------------------------
# exact spectral quantities
# ---------------------------------------------------------------------------


def lambda_max(h: HermitianMatrix) -> AlgebraicRoot:
    return isolate_largest_root(charpoly(h))


def lambda_min(h: HermitianMatrix) -> AlgebraicRoot:
    return isolate_smallest_root(charpoly(h))


def spectral_radius_of_charpoly(p: IntPoly) -> AlgebraicRoot:
    """max(|root|) of a real-rooted charpoly, as an exact algebraic number.

    One square-free part and one Sturm chain serve both ends of the
    spectrum (`isolate_extreme_roots`): one bisection walk runs down to
    the top end and, unless the spectrum is symmetric, up to the bottom
    end.  Comparing the two ends refines them by signs of their
    polynomials alone.  The result is the largest root of p, or minus the
    smallest one; on a tie the largest root wins.  A spectrum
    symmetric about 0, as every mixed graph on a bipartite host has, gives
    p = x^e f(x^2): its roots are counted on f's chain at half the degree,
    and the bottom end is the top one, which ties without a refinement.
    """
    top, bottom_abs = isolate_extreme_roots(p)
    return top if top.compare(bottom_abs) is not Order.LT else bottom_abs


def spectral_radius(h: HermitianMatrix) -> AlgebraicRoot:
    return spectral_radius_of_charpoly(charpoly(h))


def eigenvalues_numeric(h: HermitianMatrix, eps: float = 1e-9) -> list[float]:
    """All eigenvalues ascending, as floats: `roots_numeric` on the exact
    charpoly, each the midpoint of a certified isolating interval narrower
    than eps or than float resolution, whichever is wider."""
    return roots_numeric(charpoly(h), eps)


# ---------------------------------------------------------------------------
# rank-one certificate for the shifted Laplacian decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankOneWitness:
    """Outcome of the exact decomposition check for a partial orientation.

    The claim: with J_T the sum of (e_u - e_v)(e_u - e_v)^T over tree edges
    and, per cotree edge j with designated tail u_j < v_j, the vector
    a_j = e_{u_j} + i e_{v_j} for sign +1 or b_j = e_{u_j} - i e_{v_j} for
    sign -1, the sum J_T + sum_j w_j w_j^* equals D - H exactly, where D is
    the degree diagonal.  Additionally Delta*I - D + J_T must be positive
    semidefinite, certified by weak diagonal dominance: every row's
    dominance margin (`_dominance_margins`) is nonnegative.
    """

    holds: bool
    first_mismatch: tuple[int, int] | None
    psd_ok: bool
    dominance_margins: tuple[int, ...]
    max_degree: int

    @property
    def ok(self) -> bool:
        return self.holds and self.psd_ok


def _dominance_margins(rows: list[list[int]]) -> tuple[int, ...]:
    """a_vv - sum_{u != v} |a_vu| for each row v of a symmetric matrix.

    When every margin is nonnegative, so is the diagonal, and every
    Gershgorin disc lies in [0, inf): the matrix is positive semidefinite.
    """
    return tuple(
        row[v] - sum(abs(a) for u, a in enumerate(row) if u != v) for v, row in enumerate(rows)
    )


def rank_one_witness(g: Graph, t: SpanningTree, s: SignVector) -> RankOneWitness:
    d = build_mixed(g, t, s)
    h = hermitian_adjacency(d)
    n = g.n
    # J_T, the Laplacian of the tree, is integral and on both sides
    jt = [[0] * n for _ in range(n)]
    for (u, v) in t.tree_edges:
        jt[u][u] += 1
        jt[v][v] += 1
        jt[u][v] -= 1
        jt[v][u] -= 1
    lhs = [[GaussInt(a, 0) for a in row] for row in jt]
    for j, (u, v) in enumerate(s.edges):
        # (e_u + sign*i*e_v)(e_u + sign*i*e_v)^* has diagonal 1 at u and v
        # and off-diagonal -sign*i at (u, v)
        sign = s.signs[j]
        lhs[u][u] += G_ONE
        lhs[v][v] += G_ONE
        lhs[u][v] += GaussInt(0, -sign)
        lhs[v][u] += GaussInt(0, sign)
    degree = [g.degree(v) for v in range(n)]
    mismatch = None
    for u in range(n):
        for v in range(n):
            rhs = GaussInt(degree[u] if u == v else 0, 0) - h.entries[u][v]
            if lhs[u][v] != rhs:
                mismatch = (u, v)
                break
        if mismatch:
            break
    delta = max(degree, default=0)
    # jt becomes M = Delta*I - D + J_T, real and integral
    for v in range(n):
        jt[v][v] += delta - degree[v]
    margins = _dominance_margins(jt)
    return RankOneWitness(
        holds=mismatch is None,
        first_mismatch=mismatch,
        psd_ok=all(margin >= 0 for margin in margins),
        dominance_margins=margins,
        max_degree=delta,
    )


def verify_rank_one_identity(g: Graph, t: SpanningTree, s: SignVector) -> bool:
    """True when the decomposition holds entrywise and the shift is PSD."""
    return rank_one_witness(g, t, s).ok
