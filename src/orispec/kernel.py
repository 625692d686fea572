"""Exact characteristic-polynomial kernel.

Matrices are Gaussian-integer valued and arrive as two flat row-major lists
(real and imaginary parts).  Arithmetic is arbitrary-precision throughout,
so there is no restriction on order or entry size.  The public entries
validate the flat shape once per call; the recurrence trusts it.

The kernel serves single matrices (`hermitian.charpoly`) and the brute
sum over the completions of a sign prefix
(`orientation.conditional_sum_charpoly`), the reference for the conditional
sums; sign sweeps, every tier of `explore` and the greedy descent take
their charpolys from the gain table (`hermitian.GainTable`) instead.
"""

from __future__ import annotations

from .errors import ComputationDefect


def backend_name() -> str:
    """Name of the kernel implementation; there is one, the pure one."""
    return "pure"


def _check_flat(re, im, n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(re) != n * n or len(im) != n * n:
        raise ValueError(f"flat matrix parts must have length n*n = {n * n}")


def _charpoly(re, im, n: int) -> list[int]:
    """Coefficients of det(xI - A), ascending degree, for Hermitian A.

    Faddeev-LeVerrier recurrence; the division by the step index is exact
    for any matrix, and Hermitian input forces every coefficient to be a
    real integer.  Violations raise ComputationDefect.
    """
    if n == 0:
        return [1]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mre = list(re)
    mim = list(im)
    tr = 0
    ti = 0
    for i in range(0, n * n, n + 1):
        tr += mre[i]
        ti += mim[i]
    if ti:
        raise ComputationDefect("non-real trace in charpoly recurrence")
    c = -tr
    coeffs[n - 1] = c
    for step in range(2, n + 1):
        for i in range(0, n * n, n + 1):
            mre[i] += c
        # M := A @ M, skipping zero entries of A (adjacency rows are sparse)
        nre = [0] * (n * n)
        nim = [0] * (n * n)
        for i in range(n):
            row = i * n
            for k in range(n):
                ar = re[row + k]
                ai = im[row + k]
                if ar == 0 and ai == 0:
                    continue
                kr = k * n
                if ai == 0:
                    for j in range(n):
                        nre[row + j] += ar * mre[kr + j]
                        nim[row + j] += ar * mim[kr + j]
                elif ar == 0:
                    for j in range(n):
                        nre[row + j] -= ai * mim[kr + j]
                        nim[row + j] += ai * mre[kr + j]
                else:
                    for j in range(n):
                        br = mre[kr + j]
                        bi = mim[kr + j]
                        nre[row + j] += ar * br - ai * bi
                        nim[row + j] += ar * bi + ai * br
        mre = nre
        mim = nim
        tr = 0
        ti = 0
        for i in range(0, n * n, n + 1):
            tr += mre[i]
            ti += mim[i]
        if ti:
            raise ComputationDefect("non-real trace in charpoly recurrence")
        q, r = divmod(-tr, step)
        if r:
            raise ComputationDefect("inexact division in charpoly recurrence")
        c = q
        coeffs[n - step] = c
    return coeffs


def charpoly_flat(re, im, n: int) -> list[int]:
    """det(xI - A) coefficients (ascending) for a Hermitian Gaussian matrix."""
    _check_flat(re, im, n)
    return _charpoly(re, im, n)


def sum_orientations_flat(re, im, n: int, tails, heads) -> list[int]:
    """Sum of charpoly(A) over all 2^f orientations of the f free edges.

    The free edge j joins tails[j] and heads[j] and must be zero in (re, im).
    Orientation bit 0 puts +i at (tails[j], heads[j]); bit 1 reverses it.
    """
    _check_flat(re, im, n)
    if len(tails) != len(heads):
        raise ValueError("tails and heads must have equal length")
    for u, v in zip(tails, heads):
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"free edge ({u}, {v}) is not a valid vertex pair")
    f = len(tails)
    bre = list(re)
    bim = list(im)
    acc = [0] * (n + 1)
    for mask in range(1 << f):
        for j in range(f):
            u = tails[j]
            v = heads[j]
            s = -1 if (mask >> j) & 1 else 1
            bim[u * n + v] = s
            bim[v * n + u] = -s
        for k, c in enumerate(_charpoly(bre, bim, n)):
            acc[k] += c
    return acc
