"""Hermitian adjacency matrices over the Gaussian integers.

An undirected edge contributes 1 to both symmetric entries; an arc u -> v
contributes i at (u, v) and -i at (v, u).  The matrix is Hermitian, so its
spectrum is real and its characteristic polynomial has integer
coefficients, which we compute exactly.

A single matrix goes through the kernel.  The 2^m orientations of the
cotree edges of one spanning tree T (tree edges undirected, or all arcs) go
through the cycle expansion instead (Sachs' theorem in its Hermitian form,
Guo & Mohar 2017):

    phi(H) = sum_D (-2)^c(D) prod_{C in D} Re w(C) mu(G - V(D)),

D ranging over the sets of c(D) vertex-disjoint cycles of G, w(C) being the
product of the entries around C and mu the matching polynomial.  Re w(C)
vanishes when C crosses an odd number of arcs, and is otherwise a sign
times the product of the cotree signs on C, so the charpoly is multilinear
in the cotree signs: phi(H_s) = sum_S c_S prod_{j in S} s_j.  A set S of
cotree edges has at most one D, because D is an element of the cycle space
and that element is the sum of the fundamental cycles of S.  So the table
c_S has at most 2^m entries, c_{} = mu(G), and one Walsh-Hadamard transform
turns it into every charpoly of the sweep (`sign_sweep_charpolys`).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import kernel
from .errors import ComputationDefect
from .graphs import Edge, Graph, MixedGraph, SignVector, SpanningTree, build_mixed
from .matching import induced_matching_polynomials
from .polynomials import (
    AlgebraicRoot,
    IntPoly,
    Order,
    isolate_extreme_roots,
    isolate_largest_root,
    isolate_smallest_root,
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

    @classmethod
    def from_pairs(cls, rows: Sequence[Sequence[tuple[int, int]]]) -> "HermitianMatrix":
        return cls(tuple(tuple(GaussInt(int(a), int(b)) for a, b in row) for row in rows))

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


def sign_sweep_charpolys(
    n: int,
    tree_edges: Iterable[Edge],
    cotree: Sequence[Edge],
    sign_seq: Iterable[Sequence[int]],
    tree_arcs: bool = False,
) -> Iterator[tuple[int, ...]]:
    """det(xI - H_s) coefficients (ascending) for each sign vector s of
    sign_seq, in input order, over one (tree, cotree) pair on n vertices.

    Tree edges enter undirected, or with tree_arcs as arcs u -> v (i at
    (u, v)); cotree edge j = (u, v) enters as the arc u -> v when its sign
    is +1 and as v -> u when it is -1, as in `build_mixed`.

    No matrix is formed: phi(H_s) = sum_S c_S prod_{j in S} s_j over the
    sets S of cotree edges (module docstring), where c_S is the term
    (-2)^c(D) prod_{C in D} Re w(C) mu(G - V(D)) of the one set D of
    disjoint cycles whose cotree edges are S, or 0.  There is at most one:
    D is a 2-regular element of the cycle space, and each element is the
    sum of the fundamental cycles of its cotree edges.  c_{} = mu(G).  One
    Walsh-Hadamard transform of the table gives all 2^m charpolys.
    """
    tree_edges = tuple(tree_edges)
    m = len(cotree)
    terms = cycle_expansion(n, tree_edges, cotree, tree_arcs)
    # Pack each c_S into one integer, base 2^width with signed digits: no
    # partial sum of the transform has a coefficient above the sum of all
    # |coefficients|, so width leaves every digit room for its sign.
    width = sum(abs(c) for coeffs in terms.values() for c in coeffs).bit_length() + 1
    table = [0] * (1 << m)
    for index, coeffs in terms.items():
        for c in reversed(coeffs):
            table[index] = (table[index] << width) + c
    # Walsh-Hadamard transform in constant geometry: pairing i with
    # i + 2^(m-1) and writing the sum and difference to 2i and 2i + 1 rotates
    # the index bits, so m passes treat every bit once and end in order.
    middle = len(table) >> 1
    for _ in range(m):
        low, high = table[:middle], table[middle:]
        table[0::2] = map(operator.add, low, high)
        table[1::2] = map(operator.sub, low, high)
    # Bit m-1-j of the index is set when s_j = -1, as in the keys of S, so
    # the transform's sign (-1)^|S & index| is prod_{j in S} s_j.
    digit = (1 << width) - 1
    half = digit >> 1
    shifts = range(0, width * (n + 1), width)
    bias = sum(half << shift for shift in shifts)
    for signs in sign_seq:
        if len(signs) != m:
            raise ValueError(f"sign vector {tuple(signs)} does not have {m} entries")
        index = 0
        for s in signs:
            if s not in (1, -1):
                raise ValueError(f"sign vector {tuple(signs)} has an entry other than +-1")
            index = 2 * index + (s == -1)
        packed = table[index] + bias
        yield tuple([((packed >> shift) & digit) - half for shift in shifts])


def cycle_expansion(
    n: int, tree_edges: tuple[Edge, ...], cotree: Sequence[Edge], tree_arcs: bool
) -> dict[int, list[int]]:
    """The nonzero c_S of `sign_sweep_charpolys`, as ascending coefficients,
    keyed by the mask of S with bit m-1-j for cotree edge j.  The greedy
    descent reads its conditional sums as prefix sums of this table
    (`orientation._prefix_sum`).

    The sets S are walked in Gray-code order, so that the cycle-space element
    E of S changes by one fundamental cycle per step.  E is an even
    subgraph, so it is 2-regular exactly when it has as many edges as it
    touches vertices; then D is E's cycles.  Each cycle is walked once to
    count its arcs a and the arcs it crosses against their direction b: the
    entries multiply to prod s_j i^a (-1)^b, whose real part is 0 for odd a
    and (-1)^(a/2 + b) prod s_j for even a.
    """
    m = len(cotree)
    g = Graph.of(n, [*tree_edges, *cotree])
    # edge bit m-1-j is cotree edge j, bit m+i is tree edge i: (tail, head, arc)
    edges = [(u, v, True) for (u, v) in reversed(cotree)]
    edges += [(u, v, tree_arcs) for (u, v) in tree_edges]
    star = [0] * n
    for bit, (u, v, _) in enumerate(edges):
        star[u] |= 1 << bit
        star[v] |= 1 << bit
    # root the tree at 0: the path to the root of each vertex, as an edge mask
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
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
    spanning = len(reached) == n and len(tree_edges) == max(n - 1, 0)
    if not spanning or len(g.edges) != len(tree_edges) + m:
        raise ValueError("tree_edges must be a spanning tree and cotree the other edges")
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
    spectrum (`isolate_extreme_roots`); comparing the two ends refines
    them by signs of their polynomials alone.  The result is the largest
    root of p, or minus the smallest one, in the interval state left by
    comparing the two; on a tie (a symmetric spectrum) the largest root
    wins.
    """
    top, bottom_abs = isolate_extreme_roots(p)
    return top if top.compare(bottom_abs) is not Order.LT else bottom_abs


def spectral_radius(h: HermitianMatrix) -> AlgebraicRoot:
    return spectral_radius_of_charpoly(charpoly(h))


# ---------------------------------------------------------------------------
# numeric eigenvalues (display quality; never used for exact decisions)
# ---------------------------------------------------------------------------


def _jacobi_eigenvalues(a: list[list[float]], eps: float) -> list[float]:
    """Cyclic-by-rows Jacobi on a real symmetric matrix (in place)."""
    n = len(a)
    if n <= 1:
        return [a[0][0]] if n else []
    threshold = eps / n
    for _sweep in range(80):
        off = math.sqrt(sum(a[i][j] * a[i][j] for i in range(n) for j in range(n) if i != j))
        if off < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = a[p][k] = c * akp - s * akq
                    a[k][q] = a[q][k] = s * akp + c * akq
    else:
        raise ValueError(f"Jacobi iteration did not converge to eps={eps}; choose a larger eps")
    return sorted(a[i][i] for i in range(n))


def _real_embedding(h: HermitianMatrix) -> list[list[float]]:
    """[[R, -Q], [Q, R]] for H = R + iQ, as floats."""
    n = h.n
    big = [[0.0] * (2 * n) for _ in range(2 * n)]
    for u in range(n):
        for v in range(n):
            e = h.entries[u][v]
            big[u][v] = float(e.re)
            big[n + u][n + v] = float(e.re)
            big[u][n + v] = float(-e.im)
            big[n + u][v] = float(e.im)
    return big


def eigenvalues_numeric(h: HermitianMatrix, eps: float = 1e-9) -> list[float]:
    """All eigenvalues ascending, to roughly eps, via the real embedding.

    H = R + iQ maps to the symmetric 2n x 2n matrix [[R, -Q], [Q, R]] whose
    spectrum is that of H doubled; we diagonalize with Jacobi rotations and
    keep one value per pair, checking the pairing really is tight.  Rounding
    alone moves the values by a few units of the resolution
    2n * ulp(1) * ||M||_F, so Jacobi runs to the larger of eps and that
    resolution, and the pairing tolerance is ten times it: an eps below
    float resolution yields values at float resolution, neither a defect
    nor a non-convergence.  Near-degenerate pairs can make the off-diagonal
    norm fall only linearly, for more sweeps than Jacobi allows, long after
    it has stopped moving the values.  eps must be a normal float.
    """
    if not (math.isfinite(eps) and eps >= sys.float_info.min):
        raise ValueError(f"eps must be finite and at least {sys.float_info.min}, got {eps}")
    n = h.n
    if n == 0:
        return []
    big = _real_embedding(h)
    resolution = 2 * n * sys.float_info.epsilon * math.sqrt(sum(x * x for row in big for x in row))
    target = max(eps, resolution)
    doubled = _jacobi_eigenvalues(big, target)
    out = []
    for k in range(0, 2 * n, 2):
        lo, hi = doubled[k], doubled[k + 1]
        if hi - lo > 10 * target:
            raise ComputationDefect("doubled spectrum failed to pair up")
        out.append((lo + hi) / 2.0)
    return out


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
    semidefinite, certified by nonnegative leading principal minors.
    """

    holds: bool
    first_mismatch: tuple[int, int] | None
    psd_ok: bool
    leading_minors: tuple[int, ...]
    max_degree: int

    @property
    def ok(self) -> bool:
        return self.holds and self.psd_ok


def _int_det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rank_one_witness(g: Graph, t: SpanningTree, s: SignVector) -> RankOneWitness:
    d = build_mixed(g, t, s)
    h = hermitian_adjacency(d)
    n = g.n
    lhs = [[G_ZERO] * n for _ in range(n)]
    for (u, v) in t.tree_edges:
        lhs[u][u] += G_ONE
        lhs[v][v] += G_ONE
        lhs[u][v] -= G_ONE
        lhs[v][u] -= G_ONE
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
    # M = Delta*I - D + J_T is real and integral; J_T part recomputed here
    m = [[0] * n for _ in range(n)]
    for v in range(n):
        m[v][v] = delta - degree[v]
    for (u, v) in t.tree_edges:
        m[u][u] += 1
        m[v][v] += 1
        m[u][v] -= 1
        m[v][u] -= 1
    minors = tuple(
        _int_det_bareiss([row[: k + 1] for row in m[: k + 1]]) for k in range(n)
    )
    psd_ok = all(val >= 0 for val in minors)
    return RankOneWitness(
        holds=mismatch is None,
        first_mismatch=mismatch,
        psd_ok=psd_ok,
        leading_minors=minors,
        max_degree=delta,
    )


def verify_rank_one_identity(g: Graph, t: SpanningTree, s: SignVector) -> bool:
    """True when the decomposition holds entrywise and the shift is PSD."""
    return rank_one_witness(g, t, s).ok
