"""Exact integer polynomials and real algebraic numbers.

Every decision procedure here (root counting, ordering, interlacing checks)
runs in exact integer or rational arithmetic.  Root counts come from Sturm
sequences, evaluated at a rational point through one table of powers of its
numerator and denominator; a polynomial x^e f(x^2) is counted on the chain
of f at x^2, at half the degree, and points beyond an integer bound on every
complex root's modulus need no count at all.  One lazy bisection walk over
those counts isolates every root: upward it lists the roots in ascending
order or stops at the smallest, downward it stops at the largest, both on
one chain.  A symmetric spectrum, p(-x) = +-p(x), is worked at half size
where that pays: p = x^k g(x^2) is decomposed into square-free factors
through g, the walk lists only the nonnegative roots and mirrors the
negative ones, and two symmetric root lists are checked for a common
interlacer on their upper halves.  Once a root is isolated, a sign of its
defining polynomial decides every further step.  Floating point appears
only in display helpers such as ``roots_numeric``.

A real algebraic number is carried as a square-free integer polynomial plus
an isolating interval whose two endpoints are integers over one shared
positive denominator; isolation and bisection only ever halve, so that
denominator is a power of two and every step stays in integers.  Comparisons
refine intervals by bisection; equality is decided exactly through a gcd
computation, so two numbers are never declared equal or distinct on numeric
evidence alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, isfinite, lcm
from operator import mul
from sys import float_info
from typing import Iterable, Iterator, Sequence


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
        cs = list(map(int, self.coeffs))
        if cs != list(self.coeffs):
            raise ValueError(f"IntPoly coefficients must be integral, got {self.coeffs!r}")
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
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        return cls((0,) * k + (c,))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPoly":
        p = cls((1,))
        for r in roots:
            p = p * cls((-r, 1))
        return p

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
        """Sign of p(x) at a rational point."""
        return self.sign_at_ratio(x.numerator, x.denominator)

    def sign_at_ratio(self, num: int, den: int) -> int:
        """Sign of p(num / den) for den > 0, computed without fractions.

        Uses the homogeneous form sum c_k * num^k * den^(d-k); the sign is
        unchanged because den > 0, and num / den need not be in lowest terms.
        """
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        dp = 1
        for c in reversed(self.coeffs[:-1]):
            dp *= den
            acc = acc * num + c * dp
        return (acc > 0) - (acc < 0)

    def root_radius(self) -> int:
        """Integer R with |z| <= R for every complex root z of p.

        Fujiwara's bound 2 * max_k |a_(d-k) / a_d|^(1/k), with the constant
        term halved, rounded up through integer k-th roots: the smallest t
        with t^k >= |a_(d-k) / a_d| is the smallest with t^k >= its ceiling.
        """
        d = self.degree
        if d < 1:
            return 0
        lead = abs(self.coeffs[-1])
        top = 0
        for k in range(1, d + 1):
            c = abs(self.coeffs[d - k])
            ratio = -(-c // (2 * lead if k == d else lead))
            if top**k >= ratio:
                continue
            lo, hi = top + 1, 1 << -(-ratio.bit_length() // k)
            while lo < hi:
                mid = (lo + hi) // 2
                if mid**k >= ratio:
                    hi = mid
                else:
                    lo = mid + 1
            top = lo
        return 2 * top

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


# gcd memo of `AlgebraicRoot.compare`, keyed by unordered pairs of polynomials
Gcds = dict[frozenset[IntPoly], IntPoly]


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


# Euclid's algorithm modulo this prime certifies most coprime pairs in poly_gcd
_GCD_PRIME = 2**61 - 1


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (constants ignored).

    Coprime inputs are certified by Euclid's algorithm over GF(p), p =
    `_GCD_PRIME`: when p does not divide lc(a), the gcd over the integers
    keeps its degree modulo p (its leading coefficient divides lc(a)) and
    divides both images, so a constant gcd of the images proves it constant
    (Brown, JACM 1971).  Every other case runs the primitive
    pseudo-remainder sequence.
    """
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    p = _GCD_PRIME
    if a.leading % p:
        f = [c % p for c in a.coeffs]
        g = [c % p for c in b.coeffs]
        while g and not g[-1]:
            g.pop()
        while len(g) > 1:
            inv = pow(g[-1], -1, p)
            dg = len(g) - 1
            for k in range(len(f) - 1, dg - 1, -1):
                q = f[k] * inv % p
                if q:
                    for i, c in enumerate(g, k - dg):
                        f[i] = (f[i] - q * c) % p
            del f[dg:]
            while f and not f[-1]:
                f.pop()
            f, g = g, f
        if g or len(f) == 1:
            return IntPoly((1,))
    f, g = a.primitive(), b.primitive()
    if f.degree < g.degree:
        f, g = g, f
    while not g.is_zero:
        rem, _ = _pseudo_rem(f, g)
        f, g = g, rem.primitive()
    return f


def _divexact_poly(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division a / b in integers; raises ValueError when the quotient
    is not an integer polynomial or a remainder is left.

    For a primitive b that divides a, the quotient is integral (Gauss's
    lemma), so every step's division by lc(b) is exact.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a.coeffs)
    db = b.degree
    lead = b.leading
    out = [0] * max(a.degree - db + 1, 0)
    for k in range(a.degree, db - 1, -1):
        q, r = divmod(rem[k], lead)
        if r:
            raise ValueError("inexact polynomial division")
        out[k - db] = q
        if q:
            for i, c in enumerate(b.coeffs, k - db):
                rem[i] -= q * c
    if any(rem):
        raise ValueError("inexact polynomial division")
    return IntPoly(out)


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
    primitive, positive leading coefficient, by ascending multiplicity;
    constants are dropped.

    Musser's repeated-gcd scheme: every step is a gcd or a quotient of
    primitive polynomials, which Gauss's lemma keeps exactly integral, so no
    scale bookkeeping is needed.  A p with p(-x) = +-p(x) is x^k g(x^2) with
    g(0) != 0 and is decomposed at half the degree: each factor g_i of g
    gives g_i(x^2), square-free because g_i(0) != 0, and x joins the factor
    of multiplicity k.  The factors are unique up to sign, so the list is
    the one the loop returns on p itself.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = p.primitive()
    if f.degree == 0:
        return []
    if _mirror_parity(f) is not None:
        cs = f.coeffs
        k = next(i for i, c in enumerate(cs) if c)
        out = []
        for g, i in squarefree_decomposition(IntPoly(cs[k::2])):
            spread = [0] * (2 * g.degree + 1)
            spread[::2] = g.coeffs
            out.append((IntPoly([0] + spread if i == k else spread), i))
        if k and all(i != k for _, i in out):
            out.append((IntPoly((0, 1)), k))
            out.sort(key=lambda item: item[1])
        return out
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
    """Sign variations of a Sturm chain at a rational point."""
    return variations_at_ratio(chain, x.numerator, x.denominator)


def variations_at_ratio(chain: Sequence[IntPoly], num: int, den: int) -> int:
    """Sign variations of a Sturm chain at num / den, den > 0."""
    return _chain_signs(chain, num, den)[1]


def _chain_signs(chain: Sequence[IntPoly], num: int, den: int) -> tuple[int, int]:
    """(sign of chain[0], sign variations of the chain) at num / den, den > 0.

    One table T_k = num^k * den^(D-k), D = deg chain[0], signs every member:
    for a member p of degree d, sum c_k T_k = den^(D-d) * den^d * p(x), and
    den > 0.
    """
    table = [1] * len(chain[0].coeffs)
    acc = 1
    for k in range(1, len(table)):
        acc *= num
        table[k] = acc
    if den != 1:
        acc = 1
        for k in range(len(table) - 2, -1, -1):
            acc *= den
            table[k] *= acc
    v = sum(map(mul, chain[0].coeffs, table))
    first = last = (v > 0) - (v < 0)
    count = 0
    for p in chain[1:]:
        v = sum(map(mul, p.coeffs, table))
        if v:
            sign = 1 if v > 0 else -1
            if sign == -last:
                count += 1
            last = sign
    return first, count


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

# width below which ``AlgebraicRoot.to_json`` refines the interval it prints
PRINT_WIDTH = Fraction(1, 2**20)


class AlgebraicRoot:
    """A real algebraic number: square-free defining polynomial plus an
    isolating interval.

    The interval is (a/d, b/d) for integers a <= b over one shared
    denominator d > 0, kept unreduced.  Isolation starts from integer ends
    and bisection only halves, so every interval they make has a
    power-of-two d and a bisection step is one add and two shifts; signs are
    homogeneous integer evaluations, and two intervals are ordered by
    cross-multiplied integers.  ``lo``, ``hi``, ``width`` and ``midpoint``
    read the interval as Fractions.

    For a non-degenerate root the value lies strictly inside (lo, hi) and
    neither endpoint is a root of the polynomial; lo == hi marks an exact
    rational value.  ``refine`` narrows the interval in place by bisection:
    the one root in the interval is simple, so the polynomial changes sign
    across it and a sign at the midpoint picks the half that keeps it.
    The constructor therefore rejects lo > hi, a non-degenerate interval
    whose ends do not differ in sign, and an exact value that is not a root
    of the polynomial.  Comparisons refine in place too, and a printed
    interval depends on every refinement its root went through, so a memo
    of roots hands out a ``copy()`` per lookup and keeps its own object
    unrefined.
    """

    __slots__ = ("poly", "_a", "_b", "_d", "_slo")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction) -> None:
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval ({lo}, {hi}) has lo > hi")
        d = lcm(lo.denominator, hi.denominator)
        self.poly = poly
        self._a = lo.numerator * (d // lo.denominator)
        self._b = hi.numerator * (d // hi.denominator)
        self._d = d
        self._slo = 0  # sign of poly at lo, 0 until a bisection step takes it
        if lo != hi:
            self._slo = poly.sign_at_ratio(self._a, d)
            if self._slo * poly.sign_at_ratio(self._b, d) >= 0:
                raise ValueError(
                    f"{poly} does not change sign between {lo} and {hi}, "
                    "so the interval isolates no simple root"
                )
        elif poly.sign_at_ratio(self._a, d) != 0:
            raise ValueError(f"{lo} is not a root of {poly}")

    @classmethod
    def _isolated(cls, poly: IntPoly, a: int, b: int, d: int, slo: int = 0) -> "AlgebraicRoot":
        """The root in (a/d, b/d) that a root count or a bisection certified,
        built without the constructor's checks."""
        root = cls.__new__(cls)
        root.poly, root._a, root._b, root._d, root._slo = poly, a, b, d, slo
        return root

    def copy(self) -> "AlgebraicRoot":
        """An independent root in the same interval state."""
        return AlgebraicRoot._isolated(self.poly, self._a, self._b, self._d, self._slo)

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
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    def hi_ratio(self) -> tuple[int, int]:
        """hi as an unreduced (numerator, denominator) pair, denominator > 0."""
        return self._b, self._d

    @property
    def is_exact(self) -> bool:
        return self._a == self._b

    @property
    def width(self) -> Fraction:
        return Fraction(self._b - self._a, self._d)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self._a + self._b, 2 * self._d)

    def exact_value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("root has not collapsed to a rational value")
        return self.lo

    def _refine_step(self) -> None:
        a, b, d = self._a, self._b, self._d
        if a == b:
            return
        mid = a + b
        self._d = d << 1
        sign = self.poly.sign_at_ratio(mid, self._d)
        if sign == 0:
            self._a = self._b = mid
            return
        if not self._slo:
            self._slo = self.poly.sign_at_ratio(a, d)
        if sign == self._slo:
            self._a, self._b = mid, b << 1
        else:
            self._a, self._b = a << 1, mid

    def refine(self, eps) -> tuple[Fraction, Fraction]:
        """Narrow the isolating interval until its width is below eps."""
        limit = Fraction(eps)
        if limit <= 0:
            raise ValueError("eps must be positive")
        num, den = limit.numerator, limit.denominator
        while self._a != self._b and (self._b - self._a) * den >= num * self._d:
            self._refine_step()
        return (self.lo, self.hi)

    def approx(self) -> float:
        self.refine(Fraction(1, 10**12))
        return float(self.midpoint)

    def __float__(self) -> float:
        return self.approx()

    def negated(self) -> "AlgebraicRoot":
        poly = self.poly.reflected().primitive()
        return AlgebraicRoot._isolated(poly, -self._b, -self._a, self._d)

    # -- exact comparisons ---------------------------------------------------

    def equals_rational(self, value) -> bool:
        value = Fraction(value)
        return self._equals_ratio(value.numerator, value.denominator)

    def _equals_ratio(self, num: int, den: int) -> bool:
        """True when num / den (den > 0) is this root."""
        x = num * self._d
        if self._a == self._b:
            return self._a * den == x
        return self._a * den < x < self._b * den and self.poly.sign_at_ratio(num, den) == 0

    def compare_rational(self, value) -> Order:
        value = Fraction(value)
        return self._compare_ratio(value.numerator, value.denominator)

    def _compare_ratio(self, num: int, den: int) -> Order:
        """Order of this root against num / den (den > 0): bisect while the
        value lies strictly inside the interval."""
        if self._equals_ratio(num, den):
            return Order.EQ
        while self._a * den < num * self._d < self._b * den:
            self._refine_step()
        return Order.LT if self._b * den <= num * self._d else Order.GT

    def compare(self, other: "AlgebraicRoot", *, gcds: Gcds | None = None) -> Order:
        """Exact order of self against other, refining both in place.

        gcds, when given, memoises the gcd of each unordered pair of
        defining polynomials (keyed by their frozenset); the owner of a
        batch of comparisons passes one dict to all of them.
        """
        if self is other:
            return Order.EQ
        if other._a == other._b:
            return self._compare_ratio(other._a, other._d)
        if self._a == self._b:
            flipped = other._compare_ratio(self._a, self._d)
            if flipped is Order.EQ:
                return Order.EQ
            return Order.LT if flipped is Order.GT else Order.GT
        # both intervals over the denominator d1 * d2
        d1, d2 = self._d, other._d
        lo1, hi1, lo2, hi2 = self._a * d2, self._b * d2, other._a * d1, other._b * d1
        if self.poly == other.poly and lo1 == lo2 and hi1 == hi2:
            return Order.EQ
        if hi1 <= lo2:
            return Order.LT
        if hi2 <= lo1:
            return Order.GT
        # overlapping intervals: decide equality once, exactly, through the
        # gcd g.  It divides both square-free polynomials, so it has at most
        # one root in (a, b), a simple one, and none at a or b: a sign change
        # of g is that root.
        if gcds is None:
            g = poly_gcd(self.poly, other.poly)
        else:
            key = frozenset((self.poly, other.poly))
            g = gcds.get(key)
            if g is None:
                g = gcds[key] = poly_gcd(self.poly, other.poly)
        if g.degree >= 1:
            a, b = max(lo1, lo2), min(hi1, hi2)
            if a < b and g.sign_at_ratio(a, d1 * d2) != g.sign_at_ratio(b, d1 * d2):
                return Order.EQ
        # distinct values: bisect until the intervals separate
        while True:
            wider = self if hi1 - lo1 >= hi2 - lo2 else other
            wider._refine_step()
            if self._a == self._b or other._a == other._b:
                return self.compare(other, gcds=gcds)
            d1, d2 = self._d, other._d
            lo1, hi1, lo2, hi2 = self._a * d2, self._b * d2, other._a * d1, other._b * d1
            if hi1 <= lo2:
                return Order.LT
            if hi2 <= lo1:
                return Order.GT

    # -- presentation --------------------------------------------------------

    def interval_strings(self) -> tuple[str, str]:
        return (str(self.lo), str(self.hi))

    def to_json(self) -> dict:
        self.refine(PRINT_WIDTH)
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


class _RootCount:
    """Distinct real roots of a square-free q above a point, with the sign
    of q there, from one evaluation of one Sturm chain.

    A symmetric q, q(-x) = +-q(x), is x^e f(x^2) with e in {0, 1} and
    f(0) != 0, and carries f's chain, at half the degree.  With
    R_f(y) = V_f(y) - V_f(+inf), the roots of f above y, q has R_f(x^2)
    roots above x >= 0 and (2 R_f(0) + e) - R_f(x^2) above x < 0, and the
    sign of q(x) is sign(x)^e times that of f(x^2).  Every other q carries its own chain, and R(x) =
    V(x) - V(+inf).  Either count is exact for any q, real-rooted or not,
    at a point where q is nonzero.  ``total`` is q's number of distinct
    real roots; a linear q carries no chain and has total 1.
    """

    __slots__ = ("q", "chain", "e", "top", "total", "memo")

    def __init__(self, q: IntPoly, chain: tuple[IntPoly, ...] | None, e: int | None = None) -> None:
        self.q, self.chain, self.e = q, chain, e  # e is None: the chain is q's own
        self.memo: dict[tuple[int, int], tuple[int, int]] = {}
        if chain is None:
            self.total = 1
            return
        self.top = variations_pos_inf(chain)
        if e is None:
            self.total = variations_neg_inf(chain) - self.top
        else:
            self.total = 2 * (_chain_signs(chain, 0, 1)[1] - self.top) + e

    def at(self, num: int, den: int) -> tuple[int, int]:
        """(sign of q, distinct real roots of q above x) at x = num / den,
        den > 0; the count holds where the sign is nonzero.  Each point is
        counted once, for the walks down and up of one q."""
        out = self.memo.get((num, den))
        if out is None:
            if self.e is None:
                sign, v = _chain_signs(self.chain, num, den)
                out = sign, v - self.top
            else:
                sign, v = _chain_signs(self.chain, num * num, den * den)
                if num < 0:
                    out = -sign if self.e else sign, self.total - v + self.top
                else:
                    out = sign if num or not self.e else 0, v - self.top
            self.memo[num, den] = out
        return out


def _mirror_parity(q: IntPoly) -> int | None:
    """e in {0, 1} when q(-x) = (-1)^e q(x), that is when q is x^k f(x^2)
    with k = e mod 2; None when q has both even and odd terms."""
    e = q.degree & 1
    return None if any(q.coeffs[1 - e :: 2]) else e


def _root_count(q: IntPoly) -> _RootCount:
    """The `_RootCount` of a square-free q: one Sturm chain, f's when q is
    x^e f(x^2), else q's own; none when q is linear."""
    if q.degree < 2:
        return _RootCount(q, None)
    e = _mirror_parity(q)
    if e is None:
        return _RootCount(q, sturm_chain(q))
    return _RootCount(q, sturm_chain(IntPoly(q.coeffs[e::2])), e)


def _root_window(counts: _RootCount, a: int, b: int, d: int) -> tuple[int, int, int, int, int]:
    """A window that isolates the root (a + b) / 2d of q, the midpoint of
    (a/d, b/d): (left, roots above it, right, roots above it, s), both ends
    over d << s at distance (b - a) / (d << s) from the root, for the first
    s = 2, 3, ... at which neither end is a root and the window holds no
    other one.  The window stays strictly inside (a/d, b/d)."""
    w = b - a
    m = (a + b) << 1
    s = 2
    while True:
        e = d << s
        left, right = m - w, m + w
        sl, vl = counts.at(left, e)
        if sl:
            sr, vr = counts.at(right, e)
            if sr and vl - vr == 1:
                return left, vl, right, vr, s
        m <<= 1
        s += 1


def _walk(counts: _RootCount, upward: bool, from_zero: bool = False) -> Iterator[AlgebraicRoot]:
    """The real roots of the square-free q of counts as isolating intervals
    (or exact values), ascending when upward, else descending, found lazily;
    from_zero skips every interval left of 0.

    A depth-first bisection of the Cauchy interval (-B, B) on the counts of
    roots above each midpoint.  No root lies outside it, so the counts at
    its ends are those at -inf and +inf; no root lies beyond q's root radius
    R either, so a midpoint beyond R needs no count.  Each interval (a/d,
    b/d) carries its own power-of-two d.  A midpoint that is itself a root
    is yielded exactly, between the two halves of the window that isolates
    it.  The walk is mirror-symmetric: q and q(-x) share B, R, midpoints and
    windows, so the upward walk on q makes, negated, the intervals of the
    downward walk on q(-x).
    """
    q = counts.q
    if q.degree == 1:
        c0, c1 = q.coeffs
        yield AlgebraicRoot.exact(q, Fraction(-c0, c1))
        return
    bound = cauchy_root_bound(q)
    radius = q.root_radius()
    stack = [(-bound, counts.total, bound, 0, 1)]
    while stack:
        a, va, b, vb, d = stack.pop()
        count = va - vb
        if count == 0 or (from_zero and a < 0 and b <= 0):
            continue
        if count == 1:
            yield AlgebraicRoot._isolated(q, a, b, d)
            continue
        mid, d2 = a + b, d << 1
        limit = radius * d2
        if -limit <= mid <= limit:
            sign, vm = counts.at(mid, d2)
        else:
            sign, vm = 1, (vb if mid > 0 else va)
        if sign:
            halves = [(a << 1, va, mid, vm, d2), (mid, vm, b << 1, vb, d2)]
        else:
            left, vl, right, vr, s = _root_window(counts, a, b, d)
            ds = d << s
            halves = [(a << s, va, left, vl, ds), (mid, 1, mid, 0, d2), (right, vr, b << s, vb, ds)]
        stack.extend(reversed(halves) if upward else halves)


def _factor_roots(q: IntPoly) -> list[AlgebraicRoot]:
    """The real roots of a square-free q, ascending.  A symmetric q walks
    only the intervals not left of 0 and takes each negative root as the
    mirror (-b, -a) of a positive one, the interval the full walk makes; a
    root at 0 is never mirrored, whether it sits exactly at 0 or alone in
    an interval around 0."""
    counts = _root_count(q)
    if counts.e is None:
        return list(_walk(counts, upward=True))
    upper = list(_walk(counts, upward=True, from_zero=True))
    lower = [AlgebraicRoot._isolated(q, -r._b, -r._a, r._d) for r in reversed(upper) if r._a >= 0 and r._b > 0]
    return lower + upper


def isolate_real_roots(p: IntPoly) -> list[AlgebraicRoot]:
    """All real roots of p with multiplicity, ascending.

    A root of multiplicity m appears m times (repeated references to one
    AlgebraicRoot).  Each square-free factor lists its roots in ascending
    order, a symmetric one by mirroring its nonnegative roots
    (`_factor_roots`); roots from two or more factors are merged by exact
    comparison.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    factors = squarefree_decomposition(p)
    groups = [(root, mult) for factor, mult in factors for root in _factor_roots(factor)]
    # square-free factors are pairwise coprime, so roots from different
    # factors are distinct and exact comparison is a pure ordering question
    if len(factors) > 1:
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
    total = 0
    for factor, mult in squarefree_decomposition(p):
        total += mult * _root_count(factor).total
    return total == p.degree


def _squarefree_count(p: IntPoly) -> _RootCount:
    """The `_RootCount` of the square-free part of p."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    q = squarefree_part(p)
    if q.degree < 1:
        raise ValueError("polynomial has no roots")
    return _root_count(q)


def _first_root(counts: _RootCount, upward: bool) -> AlgebraicRoot:
    """The smallest real root of counts' q when upward, else the largest."""
    for root in _walk(counts, upward):
        return root
    raise ValueError("polynomial has no real roots")


def isolate_largest_root(p: IntPoly) -> AlgebraicRoot:
    """Isolating interval (or exact value) of the largest real root of p."""
    return _first_root(_squarefree_count(p), upward=False)


def isolate_smallest_root(p: IntPoly) -> AlgebraicRoot:
    """Isolating interval (or exact value) of the smallest real root of p."""
    return _first_root(_squarefree_count(p), upward=True)


def isolate_extreme_roots(p: IntPoly) -> tuple[AlgebraicRoot, AlgebraicRoot]:
    """(largest root of p, largest root of p(-x)) from one square-free part
    q and one Sturm chain, walked down and then up.

    The second root is minus the smallest root of p; its poly is the
    square-free part of p(-x), as `isolate_smallest_root(p).negated()` gives.
    When q(-x) = +-q(x), q(-x) made primitive is q itself, so the second
    root is a `copy()` of the first and the upward walk does not run.
    """
    counts = _squarefree_count(p)
    top = _first_root(counts, upward=False)
    if counts.e is not None:
        return top, top.copy()
    return top, _first_root(counts, upward=True).negated()


# ---------------------------------------------------------------------------
# top-level comparison operations
# ---------------------------------------------------------------------------


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot, *, gcds: Gcds | None = None) -> Order:
    """Exact three-way comparison of two algebraic numbers; gcds is the
    optional gcd memo of `AlgebraicRoot.compare`."""
    return a.compare(b, gcds=gcds)


def roots_numeric(p: IntPoly, eps=Fraction(1, 10**9)) -> list[float]:
    """All real roots with multiplicity as floats, ascending: the midpoints
    of their intervals refined below eps or below R * 2^-52, R =
    `p.root_radius()`, whichever is wider.  Floats of modulus at most R lie
    at most R * 2^-52 apart, so an eps below float resolution answers at
    float resolution without bisecting toward eps.  eps must be finite and
    at least the smallest normal float.

    Raises ValueError when p has a non-real root: callers that want floats
    are asking for the full spectrum, so silently dropping complex roots
    would be misleading.
    """
    if not (isfinite(eps) and eps >= float_info.min):
        raise ValueError(f"eps must be finite and at least {float_info.min}, got {eps}")
    roots = isolate_real_roots(p)
    if len(roots) != p.degree:
        raise ValueError("polynomial is not real-rooted")
    width = max(Fraction(eps), Fraction(p.root_radius(), 1 << 52))
    out = []
    for r in roots:
        r.refine(width)
        out.append(float(r.midpoint))
    return out


def _leq(a: AlgebraicRoot, b: AlgebraicRoot, gcds: Gcds | None = None) -> bool:
    return a.compare(b, gcds=gcds) is not Order.GT


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
    bs, als = isolate_real_roots(f), isolate_real_roots(g)
    if len(bs) != f.degree or len(als) != g.degree:
        raise ValueError("both polynomials must be real-rooted")
    for i, a in enumerate(als):
        if not (_leq(bs[i], a) and _leq(a, bs[i + 1])):
            return False
    return True


def roots_admit_common_interlacer(
    bs: Sequence[AlgebraicRoot], cs: Sequence[AlgebraicRoot], *, gcds: Gcds | None = None
) -> bool:
    """Criterion on two sorted root lists of equal length n: a degree n-1
    polynomial interlacing both exists iff max(b_i, c_i) <= min(b_{i+1},
    c_{i+1}) for every i, which reduces to the two cross inequalities.
    gcds is the optional gcd memo of `AlgebraicRoot.compare`.  For two
    symmetric spectra the tails from `interlacer_start` decide the same
    answer."""
    if len(bs) != len(cs):
        raise ValueError("root lists must have equal length")
    for i in range(len(bs) - 1):
        if not (_leq(bs[i], cs[i + 1], gcds) and _leq(cs[i], bs[i + 1], gcds)):
            return False
    return True


def interlacer_start(f: IntPoly, g: IntPoly) -> int:
    """Where the sorted root lists of f and g, of length n = deg f = deg g,
    may start for `roots_admit_common_interlacer`: (n + 1) // 2 when f and
    g are both symmetric, else 0.

    Symmetric roots satisfy b_i = -b_(n-1-i), so b_i <= c_(i+1) holds
    exactly when c_(n-2-i) <= b_(n-1-i): the cross inequalities at i and
    n - 2 - i decide each other.  Those in the middle always hold and are
    skipped too: i = k - 1 when n = 2k, since b_(k-1) <= 0 <= c_k, and
    i = k - 1, k when n = 2k + 1, since b_k = c_k = 0.
    """
    if f.degree != g.degree or _mirror_parity(f) is None or _mirror_parity(g) is None:
        return 0
    return (f.degree + 1) // 2


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
    bs, cs = isolate_real_roots(f), isolate_real_roots(g)
    if len(bs) != f.degree or len(cs) != g.degree:
        raise ValueError("both polynomials must be real-rooted")
    start = interlacer_start(f, g)
    return roots_admit_common_interlacer(bs[start:], cs[start:])
