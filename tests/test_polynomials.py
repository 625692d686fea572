import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import FractionRoot, SturmRoot, count_roots_open, poly_gcd_by_prs

from orispec import polynomials
from orispec.graphs import Graph, bfs_spanning_tree, cotree_edges
from orispec.hermitian import GainTable
from orispec.orientation import _family_levels
from orispec.polynomials import (
    PRINT_WIDTH,
    _divexact_poly,
    _sign_variations,
    AlgebraicRoot,
    IntPoly,
    Order,
    common_interlacing,
    compare_roots,
    count_real_roots,
    interlacer_start,
    interlaces,
    is_real_rooted,
    isolate_extreme_roots,
    isolate_largest_root,
    isolate_real_roots,
    isolate_smallest_root,
    poly_gcd,
    roots_admit_common_interlacer,
    roots_from_sign_changes,
    roots_numeric,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
    variations_at,
    variations_at_ratio,
    variations_pos_inf,
)

small_ints = st.integers(min_value=-9, max_value=9)
root_lists = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6)

# factors q with q(-x) = +-q(x): non-real pairs, real pairs and a root at 0
SYMMETRIC_FACTORS = (
    IntPoly((1, 0, 1)),
    IntPoly((1, 0, 0, 0, 1)),
    IntPoly((-2, 0, 1)),
    IntPoly((-1, 0, 1)),
    IntPoly((0, 1)),
)


@st.composite
def symmetric_polys(draw):
    """x^e f(x^2), e in {0, 1, 2}, times up to three symmetric factors, so
    that roots repeat, 0 is a root and some roots are not real."""
    coeffs = [0] * draw(st.integers(min_value=0, max_value=2))
    for c in draw(st.lists(small_ints, min_size=1, max_size=5)):
        coeffs += [c, 0]
    p = IntPoly(coeffs)
    for factor in draw(st.lists(st.sampled_from(SYMMETRIC_FACTORS), max_size=3)):
        p = p * factor
    return p


def poly_of(*coeffs):
    # convenience: poly_of(2, 0, -5, 0, 1) = x^4 - 5x^2 + 2
    return IntPoly(coeffs)


class TestIntPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert poly_of(1, 2, 0, 0).coeffs == (1, 2)
        assert IntPoly(()).degree == -1
        assert IntPoly((0, 0)).is_zero

    def test_arithmetic(self):
        p = poly_of(1, 1)  # x + 1
        q = poly_of(-1, 1)  # x - 1
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - q).coeffs == (2,)
        assert (p * 3).coeffs == (3, 3)

    def test_evaluate_and_derivative(self):
        p = poly_of(2, 0, -5, 0, 1)
        assert p.evaluate(0) == 2
        assert p.evaluate(1) == -2
        assert p.evaluate(Fraction(1, 2)) == Fraction(2 * 16 - 5 * 4 + 1, 16)
        assert p.derivative().coeffs == (0, -10, 0, 4)

    def test_from_roots(self):
        p = IntPoly.from_roots([1, -1, 2])
        assert p.evaluate(1) == 0 and p.evaluate(-1) == 0 and p.evaluate(2) == 0
        assert p.leading == 1 and p.degree == 3

    def test_str_matches_conventional_layout(self):
        assert str(poly_of(2, 2, -5, 0, 1)) == "x^4-5x^2+2x+2"
        assert str(poly_of(2, -2, -5, 0, 1)) == "x^4-5x^2-2x+2"
        assert str(IntPoly.zero()) == "0"
        assert str(poly_of(0, -1)) == "-x"

    def test_reflected(self):
        p = poly_of(2, 2, -5, 0, 1)
        assert p.reflected().coeffs == (2, -2, -5, 0, 1)

    def test_non_integral_coefficients_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            IntPoly((1.5, 2.7))
        with pytest.raises(ValueError, match="integral"):
            IntPoly([Fraction(1, 2), 1])
        assert IntPoly((2.0, 1)).coeffs == (2, 1)
        assert IntPoly((Fraction(4, 2), 0.0)).coeffs == (2,)
        assert all(type(c) is int for c in IntPoly((2.0, 1)).coeffs)

    def test_divexact(self):
        p = poly_of(4, 0, -8)
        assert p.divexact(4).coeffs == (1, 0, -2)
        with pytest.raises(ValueError):
            p.divexact(3)

    @given(st.lists(small_ints, min_size=1, max_size=6), st.lists(small_ints, min_size=1, max_size=6))
    def test_mul_evaluates_pointwise(self, a, b):
        p, q = IntPoly(a), IntPoly(b)
        for x in (-2, -1, 0, 1, 3):
            assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)

    @given(st.lists(small_ints, min_size=1, max_size=8))
    def test_sign_at_matches_evaluate(self, coeffs):
        p = IntPoly(coeffs)
        for q in (Fraction(-7, 3), Fraction(0), Fraction(5, 2), Fraction(1, 7)):
            v = p.evaluate(q)
            s = p.sign_at(q)
            assert s == (0 if v == 0 else (1 if v > 0 else -1))


class TestGcdAndSquarefree:
    def test_gcd_of_common_factor(self):
        a = IntPoly.from_roots([1, 2])
        b = IntPoly.from_roots([2, 3])
        g = poly_gcd(a, b)
        assert g.coeffs == (-2, 1)

    def test_squarefree_part_drops_multiplicity(self):
        p = IntPoly.from_roots([1, 1, 2])
        sf = squarefree_part(p)
        assert sf.coeffs == IntPoly.from_roots([1, 2]).coeffs

    def test_decomposition_recovers_multiplicities(self):
        p = IntPoly.from_roots([1, 1, 1, -2, -2, 5])
        factors = squarefree_decomposition(p)
        by_mult = {k: f for f, k in factors}
        assert by_mult[3].coeffs == (-1, 1)
        assert by_mult[2].coeffs == (2, 1)
        assert by_mult[1].coeffs == (-5, 1)

    @given(root_lists)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_multiplies_back(self, roots):
        p = IntPoly.from_roots(roots)
        product = IntPoly.constant(1)
        for factor, mult in squarefree_decomposition(p):
            for _ in range(mult):
                product = product * factor
        assert product.coeffs == p.coeffs

    @given(
        st.lists(small_ints, min_size=1, max_size=5),
        st.lists(small_ints, min_size=1, max_size=5),
        st.lists(small_ints, min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_gcd_matches_the_pseudo_remainder_sequence(self, a, b, common):
        # with a common factor, mostly, and coprime pairs when it is constant
        c = IntPoly(common)
        for f, g in ((IntPoly(a) * c, IntPoly(b) * c), (IntPoly(a), IntPoly(b))):
            assert poly_gcd(f, g) == poly_gcd_by_prs(f, g)
            assert poly_gcd(f, f.derivative()) == poly_gcd_by_prs(f, f.derivative())

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_gcd_falls_back_under_a_small_prime(self, monkeypatch, prime):
        # modulo a small prime the leading coefficient of a often vanishes,
        # and coprime pairs often have a common factor: both must fall back
        monkeypatch.setattr(polynomials, "_GCD_PRIME", prime)
        rng = random.Random(prime)
        lc_divisible = images_share_factor = 0
        for _ in range(300):
            c = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
            g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
            for a, b in ((f, g), (f * c, g * c)):
                want = poly_gcd_by_prs(a, b)
                assert poly_gcd(a, b) == want
                if a.is_zero or b.is_zero:
                    continue
                if a.leading % prime == 0:
                    lc_divisible += 1
                elif want.degree == 0 and (
                    poly_gcd_by_prs(
                        IntPoly([x % prime for x in a.coeffs]), IntPoly([x % prime for x in b.coeffs])
                    ).degree
                    > 0
                ):
                    images_share_factor += 1
        assert lc_divisible > 20 and images_share_factor > 5

    def test_divexact_poly_divides_in_integers(self):
        b = poly_of(1, 2) * poly_of(-2, 1)  # primitive, leading coefficient 2
        q = poly_of(-1, 0, 3)
        assert _divexact_poly(b * q, b) == q
        with pytest.raises(ValueError, match="inexact"):
            _divexact_poly(b * q + IntPoly((1,)), b)  # a remainder is left
        with pytest.raises(ValueError, match="inexact"):
            _divexact_poly(poly_of(1, 1), poly_of(2, 2))  # quotient 1/2
        with pytest.raises(ZeroDivisionError):
            _divexact_poly(q, IntPoly(()))

    @given(st.lists(small_ints, min_size=2, max_size=5), st.lists(small_ints, min_size=1, max_size=5), small_ints)
    @settings(max_examples=80, deadline=None)
    def test_divexact_poly_by_primitive_divisors(self, bs, qs, c):
        b, q = IntPoly(bs).primitive(), IntPoly(qs)
        if b.degree < 1:
            return
        assert _divexact_poly(b * q, b) == q
        if c:
            with pytest.raises(ValueError):
                _divexact_poly(b * q + IntPoly((c,)), b)

    def test_decomposition_of_a_squarefree_polynomial(self, monkeypatch):
        # gcd(f, f') constant: one factor, no quotient taken
        monkeypatch.setattr(polynomials, "_divexact_poly", None)
        p = IntPoly((-4, 0, 2))  # 2x^2 - 4
        assert squarefree_decomposition(p) == [(IntPoly((-2, 0, 1)), 1)]

    @given(
        st.integers(min_value=0, max_value=4),
        st.lists(st.tuples(st.sampled_from((-3, -1, 1, 2, 4, 9)), st.integers(1, 3)), max_size=3),
        st.sampled_from((1, -1, 2, -6)),
    )
    @settings(max_examples=150, deadline=None)
    def test_half_degree_decomposition_matches_the_full_degree_loop(self, zeros, factors, scale):
        # x^zeros * prod (x^2 - a)^mult * scale: a root at 0 of multiplicity
        # 0-4 that joins the factor of its multiplicity, repeated +-r pairs
        # (a = 1, 4, 9), +-sqrt(2), x^2 + 1 and x^2 + 3, any leading sign
        p = IntPoly.monomial(zeros, scale)
        for a, mult in factors:
            for _ in range(mult):
                p = p * poly_of(-a, 0, 1)
        want = oracles.squarefree_decomposition_full_degree(p)
        assert squarefree_decomposition(p) == want
        assert squarefree_decomposition(p * poly_of(1, 1)) == oracles.squarefree_decomposition_full_degree(
            p * poly_of(1, 1)
        )

    def test_zero_roots_join_the_factor_of_their_multiplicity(self):
        x2 = poly_of(-2, 0, 1)
        cases = {
            poly_of(0, 0, 1) * x2 * x2: [(poly_of(0, -2, 0, 1), 2)],
            poly_of(0, 0, 0, -1) * x2: [(x2, 1), (poly_of(0, 1), 3)],
            poly_of(0, 1) * x2 * x2 * poly_of(1, 0, 1): [(poly_of(0, 1, 0, 1), 1), (x2, 2)],
            poly_of(0, 0, 0, 0, 3): [(poly_of(0, 1), 4)],
        }
        for p, want in cases.items():
            assert squarefree_decomposition(p) == want == oracles.squarefree_decomposition_full_degree(p)

    @given(root_lists)
    @settings(max_examples=60, deadline=None)
    def test_squarefree_has_distinct_roots(self, roots):
        p = IntPoly.from_roots(roots)
        sf = squarefree_part(p)
        assert poly_gcd(sf, sf.derivative()).degree == 0


class TestSturm:
    def test_count_real_roots(self):
        assert count_real_roots(sturm_chain(poly_of(-1, 0, 1))) == 2
        assert count_real_roots(sturm_chain(poly_of(1, 0, 1))) == 0
        assert count_real_roots(sturm_chain(poly_of(2, 2, -5, 0, 1))) == 4

    def test_count_roots_open_interval(self):
        chain = sturm_chain(poly_of(-2, 0, 1))  # roots +-sqrt(2)
        assert count_roots_open(chain, Fraction(0), Fraction(2)) == 1
        assert count_roots_open(chain, Fraction(-2), Fraction(2)) == 2
        assert count_roots_open(chain, Fraction(3), Fraction(4)) == 0

    @given(root_lists)
    @settings(max_examples=60, deadline=None)
    def test_sturm_total_count_matches_distinct_roots(self, roots):
        p = squarefree_part(IntPoly.from_roots(roots))
        assert count_real_roots(sturm_chain(p)) == len(set(roots))

    @given(root_lists)
    @settings(max_examples=40, deadline=None)
    def test_sturm_consistent_with_numeric_roots(self, roots):
        # open-interval counts must agree with the numeric root list
        p = IntPoly.from_roots(roots)
        chain = sturm_chain(squarefree_part(p))
        numeric = sorted(set(roots))
        for a, b in ((Fraction(-13, 2), Fraction(13, 2)), (Fraction(-1, 2), Fraction(9, 2))):
            expected = sum(1 for r in numeric if a < r < b)
            assert count_roots_open(chain, a, b) == expected


    @given(
        st.lists(small_ints, min_size=2, max_size=10),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_power_table_variations_match_member_signs(self, coeffs, num, den):
        q = squarefree_part(IntPoly(coeffs)) if any(coeffs[1:]) else None
        if q is None or q.degree < 1:
            return
        chain = sturm_chain(q)
        x = Fraction(num, den)
        assert variations_at(chain, x) == _sign_variations(p.sign_at(x) for p in chain)

    @given(st.lists(small_ints, min_size=2, max_size=12), st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_root_radius_bounds_every_complex_root(self, coeffs, lead):
        p = IntPoly(coeffs + [lead])
        radius = p.root_radius()
        moduli = np.abs(np.roots(list(reversed(p.coeffs))))
        assert isinstance(radius, int)
        assert all(m <= radius * (1 + 1e-9) + 1e-9 for m in moduli)

    def test_root_radius_is_fujiwaras_bound_rounded_up(self):
        # x^2 - 2: 2 * max(0, ceil(sqrt(2 / 2))) = 2
        assert poly_of(-2, 0, 1).root_radius() == 2
        # x^3 - 9x^2 + x - 1: 2 * max(9, 1, ceil(cbrt(1/2))) = 18
        assert poly_of(-1, 1, -9, 1).root_radius() == 18
        assert IntPoly.monomial(4).root_radius() == 0
        assert IntPoly.constant(5).root_radius() == 0


class TestRootCounts:
    """A symmetric square-free q = x^e f(x^2) counts its roots on f's chain
    at half the degree; every other q on its own chain.  Both give q's sign
    and, where it is nonzero, the roots above the point that q's own chain
    counts."""

    @staticmethod
    def assert_counts_match_own_chain(p, num, den):
        if p.is_zero or p.degree < 1:
            return
        q = squarefree_part(p)
        if q.degree < 2:
            return
        form = polynomials._Form(q)
        chain = sturm_chain(q)
        symmetric = not any(q.coeffs[1 - q.degree % 2 :: 2])
        assert (form.e is not None) == symmetric
        assert form.f.degree == (q.degree // 2 if symmetric else q.degree)
        assert form.total == count_real_roots(chain)
        sign, above = form.at(num, den)
        assert sign == q.sign_at_ratio(num, den)
        if sign:
            assert above == variations_at_ratio(chain, num, den) - variations_pos_inf(chain)

    @given(symmetric_polys(), st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_polys(self, p, num, den):
        self.assert_counts_match_own_chain(p, num, den)

    @given(
        st.lists(small_ints, min_size=2, max_size=9),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_polys(self, coeffs, num, den):
        self.assert_counts_match_own_chain(IntPoly(coeffs), num, den)

    def test_root_at_zero_and_non_real_pairs(self):
        # x (x^2 + 1)(x^2 - 2): e = 1, roots -sqrt(2), 0, sqrt(2)
        q = IntPoly((0, 1)) * poly_of(1, 0, 1) * poly_of(-2, 0, 1)
        form = polynomials._Form(q)
        assert form.e == 1 and form.f == poly_of(-2, -1, 1) and form.total == 3
        assert [form.at(num, 2) for num in (-4, -1, 0, 1, 4)] == [(-1, 3), (1, 2), (0, 1), (-1, 1), (1, 0)]


class TestRealRootedness:
    def test_simple_cases(self):
        assert is_real_rooted(poly_of(-1, 0, 1))
        assert not is_real_rooted(poly_of(1, 0, 1))
        assert is_real_rooted(poly_of(2, 2, -5, 0, 1))

    def test_multiplicities_counted(self):
        p = IntPoly.from_roots([2, 2, 2])
        assert is_real_rooted(p)
        q = p * poly_of(1, 0, 1)  # times x^2 + 1
        assert not is_real_rooted(q)

    @given(root_lists)
    @settings(max_examples=40, deadline=None)
    def test_products_of_linear_factors(self, roots):
        assert is_real_rooted(IntPoly.from_roots(roots))


class TestIsolation:
    def test_largest_root_of_quadratic(self):
        r = isolate_largest_root(poly_of(-2, 0, 1))
        lo, hi = r.refine(Fraction(1, 10**6))
        assert lo < hi
        assert abs(float(r) - 2 ** 0.5) < 1e-6
        # the defining value squares to 2: check via compare_rational bracketing
        assert r.compare_rational(Fraction(141421356, 10**8)) is Order.GT
        assert r.compare_rational(Fraction(141421357, 10**8)) is Order.LT

    def test_worked_example_radii(self):
        assert abs(float(isolate_largest_root(poly_of(2, 0, -5, 0, 1))) - 2.1358) < 1e-3
        assert abs(float(isolate_largest_root(poly_of(2, 0, -4, 0, 1))) - 1.8478) < 1e-3

    def test_exact_rational_root_detected(self):
        r = isolate_largest_root(poly_of(-3, 1))
        assert r.is_exact and r.exact_value() == 3
        assert r.refine(Fraction(1, 10**9)) == (Fraction(3), Fraction(3))

    def test_smallest_root(self):
        r = isolate_smallest_root(poly_of(2, 2, -5, 0, 1))
        assert abs(float(r) - (-2.3429)) < 1e-3

    @given(st.lists(small_ints, min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_extreme_roots_match_separate_isolations(self, coeffs):
        # one square-free part and one chain serve both ends: the same
        # polys and intervals as isolating p and p(-x) separately
        p = IntPoly(coeffs)
        try:
            expected = (isolate_largest_root(p), isolate_largest_root(p.reflected()))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                isolate_extreme_roots(p)
            return
        got = isolate_extreme_roots(p)
        assert intervals(got) == intervals(expected)
        assert [r.to_json() for r in got] == [r.to_json() for r in expected]
        smallest = isolate_smallest_root(p)
        want = isolate_largest_root(p.reflected()).negated()
        assert (smallest.poly, smallest.lo, smallest.hi) == (want.poly, want.lo, want.hi)

    def test_roots_numeric_with_multiplicity(self):
        assert roots_numeric(poly_of(4, 0, -5, 0, 1)) == pytest.approx([-2, -1, 1, 2])
        assert roots_numeric(poly_of(0, 0, -4, 0, 1)) == pytest.approx([-2, 0, 0, 2])
        assert roots_numeric(IntPoly.monomial(3)) == pytest.approx([0, 0, 0])

    def test_extreme_roots_count_each_point_once(self, monkeypatch):
        # the downward and the upward walk share the Cauchy interval's
        # nodes; the count memo evaluates the chain once per point
        q = poly_of(-1, 3)
        for k in (2, 3, 5, 6, 7):
            q = q * poly_of(-k, 0, 1)
        want = (isolate_largest_root(q), isolate_smallest_root(q).negated())
        points = []
        chain_signs = polynomials._chain_signs

        def counting(chain, num, den):
            points.append((num, den))
            return chain_signs(chain, num, den)

        monkeypatch.setattr(polynomials, "_chain_signs", counting)
        got = isolate_extreme_roots(q)
        assert len(points) == len(set(points)) == 9
        for r, w in zip(got, want):
            assert (r.poly, r.lo, r.hi) == (w.poly, w.lo, w.hi)

    def test_roots_numeric_stops_at_float_resolution(self):
        # an eps below R * 2^-52 refines no further than R * 2^-52
        p = poly_of(-1, 3) * poly_of(-2, 0, 1) * poly_of(-7, 0, 1) * poly_of(1, -5, 1)
        floor = Fraction(p.root_radius(), 2**52)
        got = roots_numeric(p, sys.float_info.min)
        assert got == roots_numeric(p, floor)
        assert got == pytest.approx(np.sort(np.roots(p.coeffs[::-1]).real), abs=1e-12)

    def test_roots_numeric_rejects_complex(self):
        with pytest.raises(ValueError):
            roots_numeric(poly_of(1, 0, 1))

    @given(root_lists)
    @settings(max_examples=40, deadline=None)
    def test_isolated_roots_match_known_roots(self, roots):
        # multiplicities are preserved: a double root appears twice
        p = IntPoly.from_roots(roots)
        isolated = isolate_real_roots(p)
        assert len(isolated) == len(roots)
        for r, expected in zip(isolated, sorted(roots)):
            assert r.equals_rational(expected)

    def test_refine_shrinks_width(self):
        r = isolate_largest_root(poly_of(2, 0, -4, 0, 1))
        lo, hi = r.refine(Fraction(1, 1000))
        assert hi - lo < Fraction(1, 1000)
        assert Fraction(18, 10) < lo < hi < Fraction(19, 10)

    def test_largest_root_walk_stops_at_the_top(self, monkeypatch):
        # (3x - 1)(x^2 - 2)(x^2 - 3)(x^2 - 5)(x^2 - 6)(x^2 - 7): the downward
        # walk counts at as many points as the full-degree bisection, which
        # follows only the top root, and at fewer than isolating every root
        p = poly_of(-1, 3)
        for k in (2, 3, 5, 6, 7):
            p = p * poly_of(-k, 0, 1)
        calls = []
        monkeypatch.setattr(polynomials._Form, "at", counting(calls, polynomials._Form.at))
        monkeypatch.setattr(oracles, "variations_at_ratio", counting(calls, oracles.variations_at_ratio))

        def counts_taken(isolate):
            calls.clear()
            isolate(p)
            return len(calls)

        top = counts_taken(isolate_largest_root)
        assert top == counts_taken(oracles.largest_root_full_degree)
        assert top < counts_taken(isolate_real_roots)

    @staticmethod
    def assert_ends_match_every_root(p):
        # the downward and upward walks stop at the states the full
        # ascending walk gives its last and first roots
        if p.degree < 1:
            return
        every = isolate_real_roots(squarefree_part(p))
        if not every:
            for isolate in (isolate_largest_root, isolate_smallest_root):
                with pytest.raises(ValueError, match="no real roots"):
                    isolate(p)
            return
        assert states([isolate_largest_root(p)]) == states(every[-1:])
        assert states([isolate_smallest_root(p)]) == states(every[:1])

    @given(symmetric_polys())
    @settings(max_examples=150, deadline=None)
    def test_ends_of_symmetric_polys(self, p):
        self.assert_ends_match_every_root(p)

    @given(st.lists(small_ints, min_size=2, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_ends_of_any_polys(self, coeffs):
        self.assert_ends_match_every_root(IntPoly(coeffs))


class TestCompareRoots:
    def test_worked_example_comparisons(self):
        mu = poly_of(2, 0, -5, 0, 1)
        d1 = poly_of(2, 2, -5, 0, 1)
        d2 = poly_of(2, -2, -5, 0, 1)
        assert compare_roots(isolate_largest_root(d1), isolate_largest_root(mu)) is Order.LT
        assert compare_roots(isolate_largest_root(d2), isolate_largest_root(mu)) is Order.GT
        assert compare_roots(isolate_largest_root(mu), isolate_largest_root(mu)) is Order.EQ

    def test_equal_roots_from_different_polynomials(self):
        # sqrt(2) as a root of x^2-2 and of (x^2-2)(x^2-9)
        a = isolate_largest_root(poly_of(-2, 0, 1))
        b = isolate_real_roots(poly_of(18, 0, -11, 0, 1))[2]
        assert compare_roots(a, b) is Order.EQ

    def test_close_but_distinct(self):
        a = isolate_largest_root(poly_of(-2, 0, 10**6))  # sqrt(2)/1000
        b = AlgebraicRoot.of_rational(Fraction(1414214, 10**9))
        assert compare_roots(a, b) is Order.LT
        c = AlgebraicRoot.of_rational(Fraction(1414213, 10**9))
        assert compare_roots(a, c) is Order.GT

    def test_total_order_on_sample(self):
        rng = random.Random(7)
        polys = []
        for _ in range(12):
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
            polys.append(IntPoly.from_roots(roots))
        polys.append(poly_of(-2, 0, 1))
        polys.append(poly_of(2, 0, -4, 0, 1))
        sample = [isolate_largest_root(p) for p in polys]
        sample.extend(isolate_real_roots(poly_of(18, 0, -11, 0, 1)))
        for a in sample:
            for b in sample:
                ab = compare_roots(a, b)
                ba = compare_roots(b, a)
                flip = {Order.LT: Order.GT, Order.GT: Order.LT, Order.EQ: Order.EQ}
                assert ba == flip[ab]
        # transitivity via sorted order: a <= b and b <= c implies a <= c
        def leq(a, b):
            return compare_roots(a, b) is not Order.GT

        for a in sample:
            for b in sample:
                for c in sample:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)

    def test_negated(self):
        r = isolate_largest_root(poly_of(-2, 0, 1)).negated()
        assert abs(float(r) + 2 ** 0.5) < 1e-9


class TestInterlacing:
    def test_basic_interlaces(self):
        assert interlaces(poly_of(0, 1), poly_of(-1, 0, 1))
        assert not interlaces(poly_of(-2, 1), poly_of(-1, 0, 1))

    def test_derivative_interlaces(self):
        f = poly_of(2, 0, -4, 0, 1)
        assert interlaces(f.derivative(), f)

    @given(root_lists)
    @settings(max_examples=40, deadline=None)
    def test_derivative_interlaces_any_real_rooted(self, roots):
        f = IntPoly.from_roots(roots)
        if f.degree >= 1:
            assert interlaces(f.derivative(), f)

    def test_common_interlacing_examples(self):
        assert common_interlacing(poly_of(-1, 0, 1), poly_of(-4, 0, 1))
        f = IntPoly.from_roots([1, 2])
        g = IntPoly.from_roots([4, 5])
        assert not common_interlacing(f, g)

    def test_common_interlacing_rejects_mismatch(self):
        with pytest.raises(ValueError):
            common_interlacing(poly_of(-1, 0, 1), poly_of(0, 1))

    def test_shared_roots_still_interlace(self):
        f = IntPoly.from_roots([0, 2])
        g = IntPoly.from_roots([0, 2])
        assert common_interlacing(f, g)

    def test_one_squarefree_decomposition_per_polynomial(self, monkeypatch):
        # real-rootedness is read off the length of the isolated root list
        calls = []
        monkeypatch.setattr(polynomials, "squarefree_decomposition", counting(calls, squarefree_decomposition))
        f, g = IntPoly.from_roots([0, 2, 2]), IntPoly.from_roots([1, 2, 3])
        for check, polys in ((roots_numeric, (f,)), (interlaces, (f.derivative(), f)), (common_interlacing, (f, g))):
            calls.clear()
            assert check(*polys)
            assert len(calls) == len(polys), check.__name__
        with pytest.raises(ValueError, match="polynomial is not real-rooted"):
            roots_numeric(f * poly_of(1, 0, 1))
        with pytest.raises(ValueError, match="both polynomials must be real-rooted"):
            interlaces(poly_of(0, 1), poly_of(1, 0, 1))
        with pytest.raises(ValueError, match="both polynomials must be real-rooted"):
            common_interlacing(poly_of(-1, 0, 1), poly_of(1, 0, 1))


@st.composite
def symmetric_real_rooted_pairs(draw):
    """Two symmetric real-rooted polynomials of one degree n: x^e times
    k factors x^2 - a, so their roots are +-sqrt(a) (0 too when e = 1).
    The second draws part of its a from the first, so roots are shared."""
    k = draw(st.integers(min_value=1, max_value=4))
    e = draw(st.integers(min_value=0, max_value=1))
    squares = st.integers(min_value=1, max_value=9)
    first = draw(st.lists(squares, min_size=k, max_size=k))
    second = draw(st.lists(st.one_of(squares, st.sampled_from(first)), min_size=k, max_size=k))
    return e, first, second


def symmetric_poly(e, squares):
    p = IntPoly.monomial(e)
    for a in squares:
        p = p * poly_of(-a, 0, 1)
    return p


def signed_squares(e, squares):
    """The roots +-sqrt(a), ascending, each as the integer +-a, which orders
    them the same way."""
    return sorted([-a for a in squares] + [0] * e + list(squares))


def failing_cross_inequalities(bs, cs):
    """The i with b_i > c_(i+1) or c_i > b_(i+1), on exact sortable keys."""
    return [i for i in range(len(bs) - 1) if bs[i] > cs[i + 1] or cs[i] > bs[i + 1]]


class TestHalfInterlacerChecks:
    """Two sorted root lists b, c of symmetric polynomials admit a common
    interlacer exactly when their tails from (n + 1) // 2 do: b_i <= c_(i+1)
    mirrors c_(n-2-i) <= b_(n-1-i), and the middle inequalities always hold.
    Checked against the full lists and against the criterion on exact keys."""

    @given(symmetric_real_rooted_pairs())
    @settings(max_examples=200, deadline=None)
    def test_tails_decide_the_full_lists(self, pair):
        e, first, second = pair
        f, g = symmetric_poly(e, first), symmetric_poly(e, second)
        n = f.degree
        bs, cs = isolate_real_roots(f), isolate_real_roots(g)
        start = interlacer_start(f, g)
        assert start == (n + 1) // 2
        want = not failing_cross_inequalities(signed_squares(e, first), signed_squares(e, second))
        assert roots_admit_common_interlacer(bs, cs) == want
        assert roots_admit_common_interlacer(bs[start:], cs[start:]) == want
        assert common_interlacing(f, g) == want

    def test_innermost_failures(self):
        # with n = 2k even, b_(k-1) <= 0 <= c_k and c_(k-1) <= 0 <= b_k, so
        # index k - 1, just below the tail, never fails; the innermost
        # failure is b_k > c_(k+1) at i = k, the first of the tail, mirrored
        # at i = k - 2.  With n = 2k + 1 the middle roots b_k = c_k = 0, so
        # neither k - 1 nor k fails and the tail starts at k + 1.
        cases = [
            (0, [16, 25], [4, 9], [0, 2]),  # n = 4: +-4, +-5 against +-2, +-3
            (0, [4, 25, 81], [1, 2, 81], [1, 3]),  # n = 6: +-2 above +-sqrt(2), +-9 shared
            (1, [16, 25], [4, 9], [0, 3]),  # n = 5 with a root at 0
            (1, [4], [9], []),  # n = 3: 0 between +-2 and +-3
            (1, [4, 9], [4, 9], []),  # equal spectra
        ]
        for e, first, second, failing in cases:
            f, g = symmetric_poly(e, first), symmetric_poly(e, second)
            assert failing_cross_inequalities(signed_squares(e, first), signed_squares(e, second)) == failing
            start = interlacer_start(f, g)
            bs, cs = isolate_real_roots(f), isolate_real_roots(g)
            assert roots_admit_common_interlacer(bs[start:], cs[start:]) is not failing
            assert roots_admit_common_interlacer(bs, cs) is not failing
            assert common_interlacing(f, g) is not failing

    def test_start_needs_two_symmetric_polynomials_of_one_degree(self):
        sym = poly_of(-1, 0, 1) * poly_of(-4, 0, 1)
        assert interlacer_start(sym, sym) == 2
        assert interlacer_start(sym, IntPoly.from_roots([-2, -1, 1, 3])) == 0
        assert interlacer_start(IntPoly.from_roots([-2, -1, 1, 3]), sym) == 0
        assert interlacer_start(sym, poly_of(0, 1) * poly_of(-1, 0, 1)) == 0


def _dyadic_between(a, b, extra):
    """(num, den): a dyadic strictly between the rationals a < b, over a
    power-of-two den with `extra` more bits than the coarsest that fits."""
    k = 0
    while Fraction(math.floor(a * 2**k) + 1, 2**k) >= b:
        k += 1
    k += extra
    return math.floor(a * 2**k) + 1, 2**k


@st.composite
def separated_rational_roots(draw):
    """(p, points, n): p a nonzero multiple of a product of n distinct
    rational linear factors, and n + 1 dyadic points, one below the roots,
    one between each two and one above.  Half the draws take the roots and
    the points mirrored through 0, with 0 a root or a point."""
    rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    roots = draw(st.lists(rationals, min_size=1, max_size=6, unique=True))
    extra = st.integers(0, 3)
    symmetric = draw(st.booleans())
    if symmetric:
        positive = sorted({abs(r) for r in roots if r})
        roots = [-r for r in reversed(positive)] + ([0] if draw(st.booleans()) or not positive else []) + positive
        upper = [x for x in roots if x >= 0]
        ups = [_dyadic_between(a, b, draw(extra)) for a, b in zip(upper, upper[1:])]
        ups.append((math.ceil(roots[-1]) + draw(extra) + 1, 1))
        middle = [] if 0 in roots else [(0, 1)]
        points = [(-x, d) for x, d in reversed(ups)] + middle + ups
    else:
        roots = sorted(roots)
        points = [(math.floor(roots[0]) - draw(extra) - 1, 1)]
        points += [_dyadic_between(a, b, draw(extra)) for a, b in zip(roots, roots[1:])]
        points.append((math.ceil(roots[-1]) + draw(extra) + 1, 1))
    p = IntPoly((draw(st.sampled_from([-6, -1, 1, 2, 9])),))
    for r in roots:
        r = Fraction(r)
        p = p * IntPoly((-r.numerator, r.denominator))
    return p, points, len(roots)


class TestRootsFromSignChanges:
    """n + 1 strictly increasing dyadic points at which the primitive part
    of a degree-n polynomial is nonzero with alternating signs certify its
    n roots, one per gap, with no Sturm chain."""

    # (x + 2) x (x - 3): negative on (-inf, -2), positive on (-2, 0), ...
    P = IntPoly.from_roots([-2, 0, 3]) * -4
    POINTS = [(-5, 1), (-1, 1), (3, 2), (8, 2)]

    def test_certifies_one_root_per_gap(self):
        roots = roots_from_sign_changes(self.P, self.POINTS)
        q = self.P.primitive()
        assert [r.poly for r in roots] == [q] * 3
        assert [(r.lo, r.hi) for r in roots] == [(-5, -1), (-1, Fraction(3, 2)), (Fraction(3, 2), 4)]
        assert [r._slo for r in roots] == [-1, 1, -1]
        assert all(r._d & (r._d - 1) == 0 for r in roots)
        for r, want in zip(roots, (-2, 0, 3)):
            assert r.compare_rational(want) is Order.EQ

    @pytest.mark.parametrize(
        "points",
        [
            [(-5, 1), (3, 2), (-1, 1), (4, 1)],  # not increasing
            [(-5, 1), (-1, 1), (-2, 2), (4, 1)],  # -1 twice, over two denominators
            [(-5, 1), (0, 1), (3, 2), (4, 1)],  # 0 is a root: a zero sign
            [(-5, 1), (-3, 1), (3, 2), (4, 1)],  # negative at -5 and at -3
            [(-5, 1), (-1, 1), (4, 1)],  # too few points
            [(-5, 1), (-1, 1), (3, 2), (4, 1), (5, 1)],  # too many points
            [(-5, 1), (-1, 1), (4, 3), (4, 1)],  # 4/3 is not dyadic
            [(-5, 1), (-1, 1), (-3, -2), (4, 1)],  # a negative denominator
        ],
    )
    def test_refusals(self, points):
        assert roots_from_sign_changes(self.P, points) is None

    def test_refuses_constants(self):
        assert roots_from_sign_changes(IntPoly((3,)), [(0, 1)]) is None

    @given(separated_rational_roots())
    @settings(max_examples=200, deadline=None)
    def test_roots_equal_the_isolated_ones(self, case):
        p, points, n = case
        assert len(points) == n + 1 == p.degree + 1
        roots = roots_from_sign_changes(p, points)
        assert roots is not None and len(roots) == n
        assert squarefree_decomposition(p) == [(p.primitive(), 1)]
        isolated = isolate_real_roots(p)
        for r, s, (a, d), (b, e) in zip(roots, isolated, points, points[1:]):
            assert r.poly == s.poly == p.primitive()
            assert (r.lo, r.hi) == (Fraction(a, d), Fraction(b, e))
            assert r._slo == r.poly.sign_at_ratio(a, d)
            assert compare_roots(r, s) is Order.EQ

    @given(
        root_lists,
        st.integers(-4, 4),
        st.integers(1, 9),
        st.lists(st.integers(-200, 200), min_size=16, max_size=16, unique=True),
        st.integers(0, 4),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_complex_pair_is_never_certified(self, roots, b, c, nums, shift, mirrored):
        # x^2 + bx + c with b^2 < 4c has no real root, so p has fewer than
        # deg p real roots and no points show deg p sign changes
        if b * b >= 4 * c:
            c = b * b // 4 + 1
        p = IntPoly.from_roots(roots) * IntPoly((c, b, 1))
        if mirrored:  # symmetric: x^2 + c times (x^2 - r^2) for each root r
            p = IntPoly((c, 0, 1))
            for r in roots:
                p = p * IntPoly((-r * r, 0, 1))
            half = sorted({abs(x) for x in nums if x})[: p.degree // 2]
            nums = [-x for x in reversed(half)] + [0] + half
        points = [(x, 1 << shift) for x in sorted(nums)[: p.degree + 1]]
        if len(points) == p.degree + 1:
            assert roots_from_sign_changes(p, points) is None


class TestAlgebraicRootExtras:
    def test_of_rational(self):
        r = AlgebraicRoot.of_rational(Fraction(7, 3))
        assert r.is_exact
        assert r.compare_rational(Fraction(7, 3)) is Order.EQ
        assert r.compare_rational(2) is Order.GT

    def test_to_json_shape(self):
        r = isolate_largest_root(poly_of(-2, 0, 1))
        data = r.to_json()
        assert data["poly"] == [-2, 0, 1]
        assert isinstance(data["interval"][0], str)
        assert abs(data["approx"] - 2 ** 0.5) < 1e-6

    def test_constructor_rejects_an_interval_without_a_sign_change(self):
        # (x^2 - 2)^2 does not change sign at sqrt(2): a sign-only bisection
        # would not know which half to keep
        p = poly_of(-2, 0, 1) * poly_of(-2, 0, 1)
        with pytest.raises(ValueError, match="does not change sign"):
            AlgebraicRoot(p, Fraction(1), Fraction(2))
        with pytest.raises(ValueError, match="does not change sign"):
            AlgebraicRoot(poly_of(-2, 0, 1), Fraction(2), Fraction(3))
        with pytest.raises(ValueError, match="does not change sign"):
            AlgebraicRoot(poly_of(-1, 1), Fraction(1), Fraction(2))  # root at an end
        r = AlgebraicRoot(poly_of(-2, 0, 1), Fraction(1), Fraction(2))
        lo, hi = r.refine(Fraction(1, 100))
        assert lo * lo < 2 < hi * hi and hi - lo < Fraction(1, 100)

    def test_constructor_rejects_an_exact_value_that_is_no_root(self):
        # 3/2 is not a root of (x^2 - 2)^2 or of x^2 - 2, so neither may hold
        # it as an exact value; 3/2 is a root of (2x - 3)(x^2 - 2)
        p = poly_of(-2, 0, 1) * poly_of(-2, 0, 1)
        with pytest.raises(ValueError, match="is not a root"):
            AlgebraicRoot(p, Fraction(3, 2), Fraction(3, 2))
        with pytest.raises(ValueError, match="is not a root"):
            AlgebraicRoot.exact(poly_of(-2, 0, 1), Fraction(3, 2))
        q = poly_of(-3, 2) * poly_of(-2, 0, 1)
        r = AlgebraicRoot(q, Fraction(3, 2), Fraction(3, 2))
        assert r.is_exact and r.compare_rational(Fraction(3, 2)) is Order.EQ
        assert r.to_json()["interval"] == ["3/2", "3/2"]

    def test_constructor_rejects_lo_above_hi(self):
        # a reversed interval would order sqrt(2) above 3/2 by its ends
        with pytest.raises(ValueError, match="lo > hi"):
            AlgebraicRoot(poly_of(-2, 0, 1), Fraction(2), Fraction(1))
        with pytest.raises(ValueError, match="lo > hi"):
            AlgebraicRoot(poly_of(-1, 1), 1, Fraction(1, 2))
        r = AlgebraicRoot(poly_of(-2, 0, 1), Fraction(1), Fraction(2))
        assert r.compare(AlgebraicRoot.of_rational(Fraction(3, 2))) is Order.LT

    def test_interval_is_integers_over_one_denominator(self):
        r = AlgebraicRoot(poly_of(-2, 0, 1), Fraction(4, 3), Fraction(3, 2))
        assert (r._a, r._b, r._d) == (8, 9, 6)
        r.refine(Fraction(1, 20))  # two halvings, unreduced: 33/24 is 11/8
        assert (r._a, r._b, r._d) == (33, 34, 24)
        assert (r.lo, r.hi) == (Fraction(11, 8), Fraction(17, 12))
        assert r.width == Fraction(1, 24) and r.midpoint == Fraction(67, 48)
        top = isolate_largest_root(poly_of(-2, 0, 1))
        top.refine(PRINT_WIDTH)
        assert top._d & (top._d - 1) == 0 and top._d > 2**20
        assert top.to_json()["interval"] == [str(top.lo), str(top.hi)]
        assert top.negated().lo == -top.hi

    @given(
        st.one_of(symmetric_polys(), st.lists(small_ints, min_size=2, max_size=9).map(IntPoly)),
        st.lists(st.integers(min_value=-200, max_value=200), max_size=6),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_form_signs_as_the_polynomial(self, p, nums, k):
        # the form of a symmetric q = x^e f(x^2) signs q through f at x^2,
        # at half the degree, and any other q through q itself: both give
        # q's own sign at every dyadic point, at 0 and at both points of a
        # mirrored pair
        if p.degree < 1:
            return
        q = squarefree_part(p)
        form = polynomials._Form(q)
        for num in [0, *nums]:
            for x in (num, -num):
                assert form.sign(x, 2**k) == q.sign_at_ratio(x, 2**k)

    def test_roots_share_one_form(self):
        # every root of one walk, mirrored or not, and of one certificate
        # reads the form made for its polynomial, before and after it is
        # refined; a negated root gets a form of its own, even when the
        # reflected polynomial is the same
        symmetric = poly_of(-2, 0, 1) * poly_of(-3, 0, 1)
        certified = roots_from_sign_changes(TestRootsFromSignChanges.P, TestRootsFromSignChanges.POINTS)
        for roots in (isolate_real_roots(symmetric), isolate_real_roots(poly_of(-1, -3, 1)), certified):
            form = roots[0]._form
            assert len(roots) > 1 and form.q == roots[0].poly
            for r in roots:
                assert r._form is form
                r.refine(Fraction(1, 2**20))
                assert r._form is form
        top = isolate_largest_root(symmetric)
        neg = top.negated()
        assert neg.poly == symmetric and neg._form is not top._form and neg._form.q == symmetric
        other = isolate_largest_root(poly_of(-1, -3, 1)).negated()
        assert other._form.q == poly_of(-1, 3, 1)

    def test_isolations_keep_no_walk_state(self):
        # the roots an isolation returns keep their form for signs and gcds
        # only: its Sturm chain and counted points end with the walks
        symmetric = poly_of(-2, 0, 1) * poly_of(-3, 0, 1)
        general = poly_of(-1, -3, 1) * poly_of(-5, 0, 1)
        for p in (symmetric, general):
            roots = [*isolate_real_roots(p), isolate_largest_root(p), isolate_smallest_root(p)]
            roots += isolate_extreme_roots(p)
            for r in roots:
                assert r._form._chain is None and not r._form._counts
            assert isolate_largest_root(p)._form.total == 4

    def test_gcd_is_made_once_per_pair_of_forms(self, monkeypatch):
        # roots on two forms compared twice, once in each order, from
        # overlapping intervals each time: one gcd, kept on both forms
        calls = []
        monkeypatch.setattr(polynomials, "poly_gcd", counting(calls, polynomials.poly_gcd))
        a = AlgebraicRoot(poly_of(-2, 0, 1), 1, 2)
        b = AlgebraicRoot(poly_of(-3, 0, 1), 1, 2)
        assert a.compare(b) is Order.LT
        a2, b2 = (AlgebraicRoot._isolated(r._form, 1, 2, 1) for r in (a, b))
        assert b2.compare(a2) is Order.GT
        assert len(calls) == 1
        assert a._form.gcds == {b.poly: IntPoly((1,))} and b._form.gcds == {a.poly: IntPoly((1,))}


class TestHalfDegreeIsolationAgainstFullDegree:
    """The walk reads a symmetric q's counts off f's chain, and its bottom
    end is its top; any other q's bottom end comes from the
    upward walk on q's own chain.  `oracles` bisects on q's own chain at
    full degree and takes every bottom end from the largest root of q(-x),
    on a chain built for q(-x).  Both give the same polys and (a, b, d)
    states, before and after refining to the printed width."""

    @staticmethod
    def assert_matches_full_degree(p):
        for isolate, oracle in (
            (isolate_largest_root, oracles.largest_root_full_degree),
            (isolate_smallest_root, oracles.smallest_root_full_degree),
            (isolate_extreme_roots, oracles.extreme_roots_full_degree),
            (isolate_real_roots, oracles.real_roots_full_degree),
        ):
            try:
                want = oracle(p)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    isolate(p)
                continue
            got = isolate(p)
            got, want = [
                [roots] if isinstance(roots, AlgebraicRoot) else list(roots) for roots in (got, want)
            ]
            assert states(got) == states(want), (isolate.__name__, p)
            for r in got + want:
                r.refine(PRINT_WIDTH)
            assert states(got) == states(want), (isolate.__name__, p)

    @given(symmetric_polys())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_polys(self, p):
        self.assert_matches_full_degree(p)

    @given(st.lists(small_ints, min_size=2, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_any_polys(self, coeffs):
        self.assert_matches_full_degree(IntPoly(coeffs))

    def test_dyadic_roots_at_window_ends(self):
        # +-r, +-s with a root at a bisection midpoint and another at an end
        # of the window that isolates it, e.g. (16x^2 - 1)(4x^2 - 1)
        dyadic = [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(1), Fraction(2)]
        for r, s in itertools.combinations(dyadic, 2):
            p = poly_of(-r.numerator**2, 0, r.denominator**2) * poly_of(-s.numerator**2, 0, s.denominator**2)
            self.assert_matches_full_degree(p)
            self.assert_matches_full_degree(p * poly_of(0, 1))

    def test_grid_charpolys(self):
        # the bipartite ladders' sign sweeps: even (2 x 4) and odd (2 x 4
        # less a corner, 7 vertices) degree
        for cols, n in ((4, 8), (4, 7)):
            g = ladder(cols)
            if n < g.n:
                g = Graph.of(n, [e for e in g.edges if max(e) < n])
            t = bfs_spanning_tree(g, 0)
            table = GainTable(g, t)
            polys = {IntPoly(table.unpack(c)) for c in table.sweep((), table.cotree)}
            assert all(p.degree == n and not any(p.coeffs[1 - n % 2 :: 2]) for p in polys)
            for p in polys:
                self.assert_matches_full_degree(p)

    def test_mirrored_roots(self):
        # a lone root at 0 isolated by the whole Cauchy interval (-2, 2) is
        # not mirrored; repeated and distinct +-r pairs around a root at 0
        cases = (
            poly_of(0, 1, 0, 1),
            poly_of(0, 1) * poly_of(-2, 0, 1) * poly_of(-2, 0, 1) * poly_of(-3, 0, 1),
            poly_of(-2, 0, 1) * poly_of(-2, 0, 1) * poly_of(-2, 0, 1),
        )
        for p in cases:
            self.assert_matches_full_degree(p)
        assert states(isolate_real_roots(cases[0])) == [(cases[0], -2, 2, 1)]

    def test_symmetric_bottom_is_the_top(self):
        for p in (poly_of(1, 0, -3, 0, 1), poly_of(0, -3, 0, 1), poly_of(-3, 0, 1) * poly_of(1, 0, 1)):
            top, bottom = isolate_extreme_roots(p)
            assert bottom is top


def states(roots):
    return [(r.poly, r._a, r._b, r._d) for r in roots]


def counting(calls, fn):
    """fn, recording the arguments of every call in calls."""

    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


def ladder(cols):
    edges = [(c, c + 1) for c in range(cols - 1)]
    edges += [(cols + c, cols + c + 1) for c in range(cols - 1)]
    edges += [(c, cols + c) for c in range(cols)]
    return Graph.of(2 * cols, edges)


def intervals(roots):
    return [(r.poly, r.lo, r.hi) for r in roots]


class TestSignDecisionsAgainstSturmOracle:
    """Refinement by a sign change and equality by the gcd's sign change
    against the Sturm-count rules of `oracles.SturmRoot`: the same intervals
    after `to_json()` and after a seeded sequence of compare/refine calls."""

    @staticmethod
    def assert_same_decisions(p, seed):
        roots = isolate_real_roots(p)
        try:
            roots += isolate_extreme_roots(p)
        except ValueError:
            pass
        # one object per distinct interval, as isolate_real_roots shares them
        roots = list({id(r): r for r in roots}.values())
        if not roots:
            return
        twins = [SturmRoot.of(r) for r in roots]
        rng = random.Random(seed)
        for _ in range(12):
            i, j = rng.randrange(len(roots)), rng.randrange(len(roots))
            if rng.random() < 0.25:
                eps = Fraction(1, rng.choice((3, 1000, 2**20)))
                assert roots[i].refine(eps) == twins[i].refine(eps)
            else:
                assert roots[i].compare(roots[j]) is twins[i].compare(twins[j])
            assert intervals(roots) == intervals(twins)
        assert [r.to_json() for r in roots] == [t.to_json() for t in twins]

    def test_corpus5_charpolys(self, corpus5_charpolys):
        assert len(corpus5_charpolys) > 200
        for seed, p in enumerate(corpus5_charpolys):
            self.assert_same_decisions(p, seed)

    def test_ladder_family_node_polynomials(self):
        g = ladder(8)
        t = bfs_spanning_tree(g, 0)
        polys = {p for level in _family_levels(g, t, cotree_edges(g, t)) for p in level}
        assert len(polys) == 100
        for seed, p in enumerate(sorted(polys, key=lambda p: p.coeffs)):
            self.assert_same_decisions(p, seed)

    def test_overlapping_equal_roots_of_different_polynomials(self):
        # sqrt(2) from x^2 - 2 and from (x^2 - 2)(x^2 - 9): the gcd decides
        a = isolate_largest_root(poly_of(-2, 0, 1))
        b = isolate_real_roots(poly_of(18, 0, -11, 0, 1))[2]
        assert a.hi > b.lo and b.hi > a.lo
        assert compare_roots(a, b) is Order.EQ
        assert SturmRoot.of(a).compare(SturmRoot.of(b)) is Order.EQ

    @given(root_lists, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_random_real_rooted(self, roots, seed):
        p = IntPoly.from_roots(roots) * IntPoly.from_roots([r + 1 for r in roots[:2]])
        self.assert_same_decisions(p * poly_of(-3, 0, 1), seed)

    @given(st.lists(small_ints, min_size=2, max_size=9), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_random_polynomials(self, coeffs, seed):
        # mostly not real-rooted; times x^2 - 2 so that roots repeat across factors
        p = IntPoly(coeffs)
        if p.degree < 1:
            return
        self.assert_same_decisions(p * poly_of(-2, 0, 1), seed)


def _third_split(root):
    """The root in one third of its interval, built by the constructor: an
    interval whose denominator is not a power of two."""
    if root.is_exact:
        return AlgebraicRoot._isolated(root._form, root._a, root._b, root._d)
    t = root.lo + root.width / 3
    sign = root.poly.sign_at(t)
    if sign == 0:
        return AlgebraicRoot.exact(root.poly, t)
    if sign == root.poly.sign_at(root.lo):
        return AlgebraicRoot(root.poly, t, root.hi)
    return AlgebraicRoot(root.poly, root.lo, t)


ops = st.lists(
    st.tuples(
        st.sampled_from(["compare", "compare_fresh", "refine", "rational"]),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([Fraction(1, 3), Fraction(1, 1000), PRINT_WIDTH, Fraction(1, 3 * 2**30)]),
    ),
    min_size=1,
    max_size=16,
)


class TestIntegerEndpointsAgainstFractionReference:
    """`AlgebraicRoot` keeps its interval as integers over one denominator;
    `oracles.FractionRoot` bisects with `Fraction` endpoints.  Every sequence
    of compare, compare_rational and refine calls must leave both in the
    same (lo, hi) state with the same answers."""

    @staticmethod
    def assert_same_states(p, sequence):
        roots = isolate_real_roots(p)
        try:
            roots += isolate_extreme_roots(p)
        except ValueError:
            pass
        roots = list({id(r): r for r in roots}.values())
        if not roots:
            return
        for r in roots:
            assert r._d & (r._d - 1) == 0  # isolation makes power-of-two denominators
        roots += [r.negated() for r in roots] + [_third_split(r) for r in roots]
        twins = [FractionRoot.of(r) for r in roots]
        for kind, i, j, eps in sequence:
            i, j = i % len(roots), j % len(roots)
            if kind == "refine":
                assert roots[i].refine(eps) == twins[i].refine(eps)
            elif kind == "rational":
                value = twins[j].lo + (twins[j].hi - twins[j].lo) / 3
                assert roots[i].compare_rational(value) is twins[i].compare_rational(value)
            elif kind == "compare":
                assert roots[i].compare(roots[j]) is twins[i].compare(twins[j])
            else:
                # the same comparison between roots on fresh forms, which
                # share no gcd memo, answers and refines alike
                pair = (roots[i], roots[j])
                fresh = [AlgebraicRoot._isolated(polynomials._Form(r.poly), r._a, r._b, r._d) for r in pair]
                order = fresh[0].compare(fresh[1])
                assert roots[i].compare(roots[j]) is order is twins[i].compare(twins[j])
                assert states(fresh) == states(pair)
            assert [(r.lo, r.hi) for r in roots] == [(t.lo, t.hi) for t in twins]

    @given(root_lists, st.lists(st.sampled_from([2, 3, 8]), max_size=2), ops)
    @settings(max_examples=80, deadline=None)
    def test_real_rooted(self, roots, squares, sequence):
        # rational roots collapse to exact values; x^2 - c adds irrational
        # ones, and repeated roots put equal values in different factors
        p = IntPoly.from_roots(roots)
        for c in squares:
            p = p * poly_of(-c, 0, 1)
        self.assert_same_states(p * poly_of(-2, 0, 1), sequence)

    @given(st.lists(small_ints, min_size=2, max_size=8), ops)
    @settings(max_examples=60, deadline=None)
    def test_random_polynomials(self, coeffs, sequence):
        p = IntPoly(coeffs)
        if p.degree < 1:
            return
        self.assert_same_states(p * poly_of(-2, 0, 1), sequence)

    def test_ladder_family_node_polynomials(self):
        g = ladder(8)
        t = bfs_spanning_tree(g, 0)
        polys = sorted({p for level in _family_levels(g, t, cotree_edges(g, t)) for p in level}, key=lambda p: p.coeffs)
        rng = random.Random(5)
        for p in polys[::10]:
            sequence = [
                (rng.choice(["compare", "compare_fresh", "refine", "rational"]), rng.randrange(64), rng.randrange(64), PRINT_WIDTH)
                for _ in range(10)
            ]
            self.assert_same_states(p, sequence)


print_ops = st.lists(
    st.tuples(
        st.sampled_from(["compare", "rational", "refine"]),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([Fraction(1, 3), PRINT_WIDTH, PRINT_WIDTH / 2, Fraction(1, 2**30), Fraction(1, 2**40)]),
    ),
    min_size=1,
    max_size=16,
)


class TestPrintedIntervalIsAFunctionOfTheRoot:
    """`to_json` prints the first interval of a root's bisection narrower
    than `PRINT_WIDTH`, or its exact value when bisection lands on it first,
    whatever compared or refined the root before or after."""

    def test_refined_sqrt2_prints_as_a_fresh_root(self):
        r = isolate_largest_root(poly_of(-2, 0, 1))
        r.refine(Fraction(1, 2**30))
        fresh = isolate_largest_root(poly_of(-2, 0, 1)).to_json()
        assert fresh["interval"][0] == "5931639/4194304"
        assert r.to_json() == fresh

    @given(st.lists(st.lists(small_ints, min_size=2, max_size=7), min_size=1, max_size=3), print_ops)
    @settings(max_examples=80, deadline=None)
    def test_any_history_prints_as_a_fresh_isolation(self, coeff_lists, sequence):
        # times x^2 - 2, so that equal roots sit in different polynomials;
        # compare within one polynomial and across them, compare with
        # dyadics inside an interval and refine far past the printed width,
        # then print twice, refining to 2^-40 in between
        polys = [IntPoly(cs) * poly_of(-2, 0, 1) for cs in coeff_lists if any(cs)]
        if not polys:
            return
        lists = [isolate_real_roots(p) for p in polys]
        roots = [r for rs in lists for r in rs]
        for kind, i, j, eps in sequence:
            a, b = roots[i % len(roots)], roots[j % len(roots)]
            if kind == "compare":
                a.compare(b)
            elif kind == "rational":
                x, d = b.lo_ratio()
                a.compare_rational(Fraction(3 * x + b.hi_ratio()[0], 4 * d))
            else:
                a.refine(eps)
        for p, rs in zip(polys, lists):
            printed = [r.to_json() for r in rs]
            assert printed == [r.to_json() for r in isolate_real_roots(p)]
            for r in rs:
                r.refine(Fraction(1, 2**40))
            assert [r.to_json() for r in rs] == printed
