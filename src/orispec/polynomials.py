"""Exact integer polynomials and real algebraic numbers.

Every decision procedure here (root counting, ordering, interlacing checks)
runs in exact integer or rational arithmetic through Sturm sequences.
Floating point appears only in display helpers such as ``roots_numeric``.

A real algebraic number is carried as a square-free integer polynomial plus
an isolating interval with rational endpoints.  Comparisons refine intervals
by bisection; equality is decided exactly through a gcd computation, so two
numbers are never declared equal or distinct on numeric evidence alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence

__all__ = [
    "Order",
    "IntPoly",
    "AlgebraicRoot",
    "is_real_rooted",
    "isolate_largest_root",
    "isolate_smallest_root",
    "isolate_extreme_roots",
    "isolate_real_roots",
    "compare_roots",
    "refine",
    "roots_numeric",
    "interlaces",
    "common_interlacing",
    "roots_admit_common_interlacer",
]


class Order(str, enum.Enum):
    """Outcome of an exact three-way comparison."""

    LT = "LT"
    EQ = "EQ"
    GT = "GT"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial over the integers.

    ``coeffs[k]`` is the coefficient of x**k.  Trailing zeros are stripped,
    so the zero polynomial has an empty tuple and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = [int(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        return cls((0,) * k + (c,))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPoly":
        p = cls((1,))
        for r in roots:
            p = p * cls((-r, 1))
        return p

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "IntPoly":
        return cls(tuple(data))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def reflected(self) -> "IntPoly":
        """p(-x)."""
        return IntPoly(tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    def evaluate(self, x):
        """Exact Horner evaluation; accepts int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Sign of p(x) at a rational point, computed without fractions.

        Uses the homogeneous form sum c_k * num^k * den^(d-k); the sign is
        unchanged because den > 0.
        """
        if not self.coeffs:
            return 0
        num, den = x.numerator, x.denominator
        acc = self.coeffs[-1]
        dp = 1
        for c in reversed(self.coeffs[:-1]):
            dp *= den
            acc = acc * num + c * dp
        return (acc > 0) - (acc < 0)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the content and normalize the leading sign to +."""
        if self.is_zero:
            return self
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))

    def divided_by_content(self) -> "IntPoly":
        """Divide by the positive content, preserving the leading sign.

        Sturm chains may only be rescaled by positive constants, so this is
        deliberately distinct from ``primitive``.
        """
        if self.is_zero:
            return self
        g = self.content()
        return IntPoly(tuple(c // g for c in self.coeffs))

    def divexact(self, k: int) -> "IntPoly":
        """Divide every coefficient by k; raises if any division is inexact."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c, k)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            out.append(q)
        return IntPoly(out)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
            parts.append(sign + body)
        return "".join(parts)

    def to_json(self) -> list[int]:
        """Coefficient list, lowest degree first."""
        return list(self.coeffs)


# ---------------------------------------------------------------------------
# polynomial gcd machinery (primitive pseudo-remainder sequences)
# ---------------------------------------------------------------------------


def _pseudo_rem(a: IntPoly, b: IntPoly) -> tuple[IntPoly, bool]:
    """Pseudo-remainder of a by b over the integers.

    Returns (prem(a, b), negated) where prem = lc(b)^(da-db+1) * a mod b and
    ``negated`` records whether that multiplier is negative, so callers can
    recover the sign of the rational remainder.
    """
    da, db = a.degree, b.degree
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    lc = b.leading
    r = list(a.coeffs)
    steps = da - db + 1
    if steps <= 0:
        return a, False
    for k in range(da, db - 1, -1):
        head = r[k]
        for i in range(len(r)):
            r[i] *= lc
        if head:
            shift = k - db
            for i, c in enumerate(b.coeffs):
                r[i + shift] -= head * c
        r[k] = 0
    rem = IntPoly(r[:db] if db > 0 else r[:1])
    negated = lc < 0 and steps % 2 == 1
    return rem, negated


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (constants ignored)."""
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


def _divexact_poly(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division a / b over the rationals, result coerced to IntPoly."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [Fraction(c) for c in a.coeffs]
    db = b.degree
    lead = Fraction(b.leading)
    out: list[Fraction] = [Fraction(0)] * max(a.degree - db + 1, 0)
    for k in range(a.degree, db - 1, -1):
        q = rem[k] / lead
        out[k - db] = q
        if q:
            for i, c in enumerate(b.coeffs):
                rem[i + k - db] -= q * c
    if any(rem):
        raise ValueError("inexact polynomial division")
    ints = []
    for q in out:
        if q.denominator != 1:
            raise ValueError("quotient is not an integer polynomial")
        ints.append(q.numerator)
    return IntPoly(ints)


def squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), primitive with positive leading coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free part")
    if p.degree == 0:
        return IntPoly((1,))
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    return _divexact_poly(p.primitive(), g).primitive()


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """[(factor, multiplicity)] with factors square-free, pairwise coprime,
    primitive, positive leading coefficient; constants are dropped.

    Musser's repeated-gcd scheme: every step is a gcd or a quotient of
    primitive polynomials, which Gauss's lemma keeps exactly integral, so no
    scale bookkeeping is needed.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = p.primitive()
    if f.degree == 0:
        return []
    w = poly_gcd(f, f.derivative())
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


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------


def sturm_chain(q: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm chain of a square-free polynomial, as primitive integer polys.

    Each step takes the negated remainder and rescales by a positive constant
    only, so sign variations match the classical rational chain exactly.
    """
    if q.degree < 1:
        raise ValueError("need degree >= 1")
    chain = [q, q.derivative()]
    while chain[-1].degree >= 1:
        rem, negated = _pseudo_rem(chain[-2], chain[-1])
        if rem.is_zero:
            raise ValueError("polynomial is not square-free")
        # next member is minus the rational remainder, rescaled by a positive
        # constant only (signs are load-bearing here)
        nxt = (rem if negated else -rem).divided_by_content()
        chain.append(nxt)
    return tuple(chain)


def _sign_variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def variations_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    return _sign_variations(p.sign_at(x) for p in chain)


def variations_pos_inf(chain: Sequence[IntPoly]) -> int:
    return _sign_variations((1 if p.leading > 0 else -1) for p in chain)


def variations_neg_inf(chain: Sequence[IntPoly]) -> int:
    signs = []
    for p in chain:
        s = 1 if p.leading > 0 else -1
        if p.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _sign_variations(signs)


def count_real_roots(chain: Sequence[IntPoly]) -> int:
    return variations_neg_inf(chain) - variations_pos_inf(chain)


def count_roots_open(chain: Sequence[IntPoly], a: Fraction, b: Fraction) -> int:
    """Distinct roots in the open interval (a, b); endpoints must not be roots."""
    if chain[0].sign_at(a) == 0 or chain[0].sign_at(b) == 0:
        raise ValueError("interval endpoint is a root")
    return variations_at(chain, a) - variations_at(chain, b)


def cauchy_root_bound(p: IntPoly) -> int:
    """Integer B with every real root of p strictly inside (-B, B)."""
    if p.degree < 1:
        return 1
    lead = abs(p.leading)
    top = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return 1 + (top + lead - 1) // lead


# ---------------------------------------------------------------------------
# algebraic roots
# ---------------------------------------------------------------------------


class AlgebraicRoot:
    """A real algebraic number: square-free defining polynomial plus an
    isolating interval.

    For a non-degenerate root the value lies strictly inside (lo, hi) and
    neither endpoint is a root of the polynomial; lo == hi marks an exact
    rational value.  ``refine`` narrows the interval in place by bisection;
    narrowing is deterministic, so duplicated refinement across threads is
    harmless.  Comparisons refine in place too, and a printed interval
    depends on every refinement its root went through, so a memo of roots
    hands out a ``copy()`` per lookup and keeps its own object unrefined.
    """

    __slots__ = ("poly", "lo", "hi", "_chain", "_vlo", "_vhi")

    def __init__(
        self,
        poly: IntPoly,
        lo: Fraction,
        hi: Fraction,
        chain: tuple[IntPoly, ...] | None = None,
        vlo: int | None = None,
        vhi: int | None = None,
    ) -> None:
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._chain = chain
        self._vlo = vlo
        self._vhi = vhi

    def copy(self) -> "AlgebraicRoot":
        """An independent root in the same interval state."""
        return AlgebraicRoot(self.poly, self.lo, self.hi, self._chain, self._vlo, self._vhi)

    @classmethod
    def exact(cls, poly: IntPoly, value: Fraction) -> "AlgebraicRoot":
        value = Fraction(value)
        return cls(poly, value, value)

    @classmethod
    def of_rational(cls, value) -> "AlgebraicRoot":
        value = Fraction(value)
        poly = IntPoly((-value.numerator, value.denominator)).primitive()
        return cls.exact(poly, value)

    # -- interval state ----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def exact_value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("root has not collapsed to a rational value")
        return self.lo

    def _need_chain(self) -> tuple[IntPoly, ...]:
        if self._chain is None:
            self._chain = sturm_chain(self.poly)
        return self._chain

    def _refine_step(self) -> None:
        if self.is_exact:
            return
        mid = (self.lo + self.hi) / 2
        if self.poly.sign_at(mid) == 0:
            self.lo = self.hi = mid
            return
        chain = self._need_chain()
        if self._vlo is None:
            self._vlo = variations_at(chain, self.lo)
        vm = variations_at(chain, mid)
        if self._vlo - vm == 1:
            self.hi, self._vhi = mid, vm
        else:
            self.lo, self._vlo = mid, vm

    def refine(self, eps) -> tuple[Fraction, Fraction]:
        """Narrow the isolating interval until its width is below eps."""
        limit = Fraction(eps)
        if limit <= 0:
            raise ValueError("eps must be positive")
        while not self.is_exact and self.width >= limit:
            self._refine_step()
        return (self.lo, self.hi)

    def approx(self, eps=Fraction(1, 10**12)) -> float:
        self.refine(eps)
        return float(self.midpoint)

    def __float__(self) -> float:
        return self.approx()

    def negated(self) -> "AlgebraicRoot":
        poly = self.poly.reflected().primitive()
        return AlgebraicRoot(poly, -self.hi, -self.lo)

    # -- exact comparisons ---------------------------------------------------

    def equals_rational(self, value) -> bool:
        value = Fraction(value)
        if self.is_exact:
            return self.lo == value
        return self.poly.evaluate(value) == 0 and self.lo < value < self.hi

    def compare_rational(self, value) -> Order:
        value = Fraction(value)
        if self.is_exact:
            diff = self.lo - value
            return Order.EQ if diff == 0 else (Order.LT if diff < 0 else Order.GT)
        if self.equals_rational(value):
            return Order.EQ
        while self.lo < value < self.hi:
            self._refine_step()
        if self.is_exact:
            return Order.LT if self.lo < value else Order.GT
        if value <= self.lo:
            return Order.GT
        return Order.LT

    def compare(self, other: "AlgebraicRoot") -> Order:
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
        # overlapping intervals: decide equality once, exactly, through the gcd
        g = poly_gcd(self.poly, other.poly)
        if g.degree >= 1:
            a = max(self.lo, other.lo)
            b = min(self.hi, other.hi)
            if a < b and count_roots_open(sturm_chain(g), a, b) >= 1:
                return Order.EQ
        # distinct values: bisect until the intervals separate
        while True:
            wider = self if self.width >= other.width else other
            wider._refine_step()
            if self.is_exact or other.is_exact:
                return self.compare(other)
            if self.hi <= other.lo:
                return Order.LT
            if other.hi <= self.lo:
                return Order.GT

    # -- presentation --------------------------------------------------------

    def interval_strings(self) -> tuple[str, str]:
        return (str(self.lo), str(self.hi))

    def to_json(self, eps=Fraction(1, 2**20)) -> dict:
        self.refine(eps)
        lo, hi = self.interval_strings()
        return {
            "poly": self.poly.to_json(),
            "interval": [lo, hi],
            "approx": float(self.midpoint),
        }

    def __repr__(self) -> str:
        if self.is_exact:
            return f"AlgebraicRoot({self.poly}, ={self.lo})"
        return f"AlgebraicRoot({self.poly}, ({self.lo}, {self.hi}))"


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------


def _isolate_squarefree(q: IntPoly, chain: tuple[IntPoly, ...]) -> list[AlgebraicRoot]:
    """All real roots of a square-free q, ascending, as isolating intervals."""
    if q.degree == 1:
        c0, c1 = q.coeffs
        return [AlgebraicRoot.exact(q, Fraction(-c0, c1))]
    bound = cauchy_root_bound(q)
    lo, hi = Fraction(-bound), Fraction(bound)
    out: list[AlgebraicRoot] = []

    def walk(a: Fraction, va: int, b: Fraction, vb: int) -> None:
        count = va - vb
        if count == 0:
            return
        if count == 1:
            out.append(AlgebraicRoot(q, a, b, chain, va, vb))
            return
        mid = (a + b) / 2
        if q.sign_at(mid) == 0:
            delta = (b - a) / 4
            while True:
                left, right = mid - delta, mid + delta
                if q.sign_at(left) != 0 and q.sign_at(right) != 0:
                    vl, vr = variations_at(chain, left), variations_at(chain, right)
                    if vl - vr == 1:
                        break
                delta /= 2
            walk(a, va, left, vl)
            out.append(AlgebraicRoot.exact(q, mid))
            walk(right, vr, b, vb)
        else:
            vm = variations_at(chain, mid)
            walk(a, va, mid, vm)
            walk(mid, vm, b, vb)

    walk(lo, variations_at(chain, lo), hi, variations_at(chain, hi))
    return out


def isolate_real_roots(p: IntPoly) -> list[AlgebraicRoot]:
    """All real roots of p with multiplicity, ascending.

    A root of multiplicity m appears m times (repeated references to one
    AlgebraicRoot).  Roots from distinct square-free factors are merged by
    exact comparison.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    groups: list[tuple[AlgebraicRoot, int]] = []
    for factor, mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        chain = sturm_chain(factor)
        for root in _isolate_squarefree(factor, chain):
            groups.append((root, mult))
    # square-free factors are pairwise coprime, so roots from different
    # factors are distinct and exact comparison is a pure ordering question
    groups.sort(key=_RootKey)
    out: list[AlgebraicRoot] = []
    for root, mult in groups:
        out.extend([root] * mult)
    return out


class _RootKey:
    __slots__ = ("root",)

    def __init__(self, item: tuple[AlgebraicRoot, int]) -> None:
        self.root = item[0]

    def __lt__(self, other: "_RootKey") -> bool:
        return self.root.compare(other.root) is Order.LT


def is_real_rooted(p: IntPoly) -> bool:
    """True when every complex root of p is real (exact decision)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    total = 0
    for factor, mult in squarefree_decomposition(p):
        if factor.degree < 1:
            continue
        total += mult * count_real_roots(sturm_chain(factor))
    return total == p.degree


def _squarefree_with_chain(p: IntPoly) -> tuple[IntPoly, tuple[IntPoly, ...] | None]:
    """Square-free part of p and its Sturm chain (None when it is linear)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    q = squarefree_part(p)
    if q.degree < 1:
        raise ValueError("polynomial has no roots")
    return q, (sturm_chain(q) if q.degree > 1 else None)


def _reflected(
    q: IntPoly, chain: tuple[IntPoly, ...] | None
) -> tuple[IntPoly, tuple[IntPoly, ...] | None]:
    """q(-x) made primitive with positive leading coefficient, and its Sturm
    chain, read off q's chain without a remainder sequence.

    With sigma = (-1)^deg q, the members sigma * (-1)^k * S_k(-x) start with
    q(-x) made positive and its derivative, and satisfy the same remainder
    recurrence with the same positive constants; each S_k has content 1, so
    they are exactly what `sturm_chain` builds for the reflected polynomial.
    """
    sigma = -1 if q.degree % 2 else 1
    reflected = q.reflected() * sigma
    if chain is None:
        return reflected, None
    return reflected, tuple(
        s.reflected() * (sigma if k % 2 == 0 else -sigma) for k, s in enumerate(chain)
    )


def _largest_root(q: IntPoly, chain: tuple[IntPoly, ...] | None) -> AlgebraicRoot:
    """Isolating interval (or exact value) of the largest real root of the
    square-free q, by bisection of the Cauchy interval on q's Sturm chain."""
    if q.degree == 1:
        c0, c1 = q.coeffs
        return AlgebraicRoot.exact(q, Fraction(-c0, c1))
    bound = cauchy_root_bound(q)
    lo, hi = Fraction(-bound), Fraction(bound)
    va, vb = variations_at(chain, lo), variations_at(chain, hi)
    count = va - vb
    if count == 0:
        raise ValueError("polynomial has no real roots")
    while count > 1:
        mid = (lo + hi) / 2
        if q.sign_at(mid) == 0:
            # mid is itself a root; shrink a window that isolates it
            delta = (hi - mid) / 2
            while True:
                left, right = mid - delta, mid + delta
                if (
                    right < hi
                    and q.sign_at(left) != 0
                    and q.sign_at(right) != 0
                    and variations_at(chain, left) - variations_at(chain, right) == 1
                ):
                    break
                delta /= 2
            vr = variations_at(chain, right)
            above = vr - vb
            if above == 0:
                return AlgebraicRoot.exact(q, mid)
            lo, va, count = right, vr, above
        else:
            vm = variations_at(chain, mid)
            above = vm - vb
            if above >= 1:
                lo, va, count = mid, vm, above
            else:
                hi, vb, count = mid, vm, va - vm
    return AlgebraicRoot(q, lo, hi, chain, va, vb)


def isolate_largest_root(p: IntPoly) -> AlgebraicRoot:
    """Isolating interval (or exact value) of the largest real root of p."""
    return _largest_root(*_squarefree_with_chain(p))


def isolate_smallest_root(p: IntPoly) -> AlgebraicRoot:
    """The smallest real root of p: minus the largest root of p(-x)."""
    return _largest_root(*_reflected(*_squarefree_with_chain(p))).negated()


def isolate_extreme_roots(p: IntPoly) -> tuple[AlgebraicRoot, AlgebraicRoot]:
    """(largest root of p, largest root of p(-x)) from one square-free part
    and one Sturm chain: the second bisection runs on the reflected chain.

    The second root is minus the smallest root of p; its poly is the
    square-free part of p(-x), as `isolate_smallest_root(p).negated()` gives.
    """
    q, chain = _squarefree_with_chain(p)
    return _largest_root(q, chain), _largest_root(*_reflected(q, chain))


# ---------------------------------------------------------------------------
# top-level comparison operations
# ---------------------------------------------------------------------------


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot) -> Order:
    """Exact three-way comparison of two algebraic numbers."""
    return a.compare(b)


def refine(a: AlgebraicRoot, eps) -> tuple[Fraction, Fraction]:
    """Narrow the isolating interval of a to width < eps; returns (lo, hi)."""
    return a.refine(eps)


def roots_numeric(p: IntPoly, eps=Fraction(1, 10**9)) -> list[float]:
    """All real roots with multiplicity as floats, ascending, each within eps.

    Raises ValueError when p has a non-real root: callers that want floats
    are asking for the full spectrum, so silently dropping complex roots
    would be misleading.
    """
    if not is_real_rooted(p):
        raise ValueError("polynomial is not real-rooted")
    roots = isolate_real_roots(p)
    out = []
    seen: dict[int, float] = {}
    for r in roots:
        key = id(r)
        if key not in seen:
            r.refine(eps)
            seen[key] = float(r.midpoint)
        out.append(seen[key])
    return out


def _leq(a: AlgebraicRoot, b: AlgebraicRoot) -> bool:
    return a.compare(b) is not Order.GT


def interlaces(g: IntPoly, f: IntPoly) -> bool:
    """Exact check that the roots of g interlace the roots of f.

    Requires deg g == deg f - 1 and both real-rooted.  With f roots
    b_1 <= ... <= b_n and g roots a_1 <= ... <= a_{n-1}, checks
    b_i <= a_i <= b_{i+1} for every i (weak inequalities throughout).
    """
    if g.is_zero or f.is_zero:
        raise ValueError("zero polynomial")
    if g.degree != f.degree - 1:
        raise ValueError("interlacer must have degree one less")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise ValueError("both polynomials must be real-rooted")
    bs = isolate_real_roots(f)
    als = isolate_real_roots(g)
    for i, a in enumerate(als):
        if not (_leq(bs[i], a) and _leq(a, bs[i + 1])):
            return False
    return True


def roots_admit_common_interlacer(
    bs: Sequence[AlgebraicRoot], cs: Sequence[AlgebraicRoot]
) -> bool:
    """Criterion on two sorted root lists of equal length n: a degree n-1
    polynomial interlacing both exists iff max(b_i, c_i) <= min(b_{i+1},
    c_{i+1}) for every i, which reduces to the two cross inequalities."""
    if len(bs) != len(cs):
        raise ValueError("root lists must have equal length")
    for i in range(len(bs) - 1):
        if not (_leq(bs[i], cs[i + 1]) and _leq(cs[i], bs[i + 1])):
            return False
    return True


def common_interlacing(f: IntPoly, g: IntPoly) -> bool:
    """Exact test for a common interlacer of two real-rooted polynomials.

    f and g must share the same degree n >= 1 and have positive leading
    coefficients.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if f.degree != g.degree or f.degree < 1:
        raise ValueError("polynomials must share the same degree >= 1")
    if f.leading <= 0 or g.leading <= 0:
        raise ValueError("leading coefficients must be positive")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise ValueError("both polynomials must be real-rooted")
    return roots_admit_common_interlacer(isolate_real_roots(f), isolate_real_roots(g))
