"""Hermitian adjacency matrices over the Gaussian integers.

An undirected edge contributes 1 to both symmetric entries; an arc u -> v
contributes i at (u, v) and -i at (v, u).  The matrix is Hermitian, so its
spectrum is real and its characteristic polynomial has integer
coefficients, which we compute exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import kernel
from .errors import ComputationDefect
from .graphs import Edge, Graph, MixedGraph, SignVector, SpanningTree, build_mixed
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
    """det(xI - H) coefficients (ascending) for each sign vector of sign_seq,
    in input order, over one (tree, cotree) pair on n vertices.

    Tree edges enter undirected, or with tree_arcs as arcs u -> v (i at
    (u, v)); cotree edge j = (u, v) enters as the arc u -> v when its sign
    is +1 and as v -> u when it is -1, as in `build_mixed`.
    """
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
    spectrum (`isolate_extreme_roots`).  The result is the largest root of
    p, or minus the smallest one, in the interval state left by comparing
    the two; on a tie (a symmetric spectrum) the largest root wins.
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


def eigenvalues_numeric(h: HermitianMatrix, eps: float = 1e-9) -> list[float]:
    """All eigenvalues ascending, to roughly eps, via the real embedding.

    H = R + iQ maps to the symmetric 2n x 2n matrix [[R, -Q], [Q, R]] whose
    spectrum is that of H doubled; we diagonalize with Jacobi rotations and
    keep one value per pair, checking the pairing really is tight.  Rounding
    alone can split a pair by a few units of 2n * ulp(1) * ||M||_F, so the
    pairing tolerance is ten times the larger of eps and that resolution: an
    eps below float resolution yields values at float resolution, not a
    defect.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    n = h.n
    if n == 0:
        return []
    big = [[0.0] * (2 * n) for _ in range(2 * n)]
    for u in range(n):
        for v in range(n):
            e = h.entries[u][v]
            big[u][v] = float(e.re)
            big[n + u][n + v] = float(e.re)
            big[u][n + v] = float(-e.im)
            big[n + u][v] = float(e.im)
    resolution = 2 * n * sys.float_info.epsilon * math.sqrt(sum(x * x for row in big for x in row))
    tolerance = 10 * max(eps, resolution)
    doubled = _jacobi_eigenvalues(big, eps)
    out = []
    for k in range(0, 2 * n, 2):
        lo, hi = doubled[k], doubled[k + 1]
        if hi - lo > tolerance:
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
