import random
from fractions import Fraction

import pytest

from cnull.errors import GridMalformed, InconsistentSamples, NotDivisible
from cnull.polycore import (
    NEG_INF,
    MPoly,
    compose,
    det_bareiss,
    distinct_root_count,
    evaluate,
    exact_divide,
    interpolate,
    poly_from_json,
    poly_to_json,
    sylvester_resultant,
    total_degree,
    univ_coeffs,
    univ_from_coeffs,
    univ_gcd,
)

F = Fraction


def p2(terms):
    return MPoly(2, terms)


def p1(terms):
    return MPoly(1, terms)


X = p2({(1, 0): 1})
Y = p2({(0, 1): 1})
T = p1({(1,): 1})
CUSP_GEN = p2({(0, 2): 1, (3, 0): -1})  # y^2 - x^3


class TestArith:
    def test_add_cancellation(self):
        assert (X + Y) + (X - Y) == p2({(1, 0): 2})

    def test_monomial_product(self):
        assert T**2 * T**3 == p1({(5,): 1})

    def test_sub_identity(self):
        assert (CUSP_GEN - CUSP_GEN).is_zero()

    def test_var_count_mismatch(self):
        with pytest.raises(ValueError):
            X + T


class TestEvaluate:
    def test_direct(self):
        assert evaluate(p2({(2, 0): 1, (0, 1): 1}), [2, 3]) == 7

    def test_cusp_relation(self):
        t0 = 5
        assert evaluate(CUSP_GEN, [t0**2, t0**3]) == 0

    def test_constant(self):
        assert evaluate(MPoly.const(3, F(1, 3)), [9, 9, 9]) == F(1, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(X, [1])

    def test_complex_point(self):
        val = evaluate(p2({(2, 0): 1, (0, 1): 1}), [1j, 2.0])
        assert abs(val - 1.0) < 1e-12


class TestCompose:
    def test_parametrization_annihilates(self):
        assert compose(CUSP_GEN, [T**2, T**3]).is_zero()

    def test_single_variable(self):
        assert compose(X, [T**2, T**3]) == p1({(2,): 1})

    def test_product(self):
        x1x2 = p2({(1, 1): 1})
        assert compose(x1x2, [T, T + MPoly.const(1, 1)]) == p1({(2,): 1, (1,): 1})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compose(X, [T])


class TestExactDivide:
    def test_cusp_pullback(self):
        assert exact_divide(T**3, T**2) == T

    def test_difference_of_squares(self):
        assert exact_divide(X * X - Y * Y, X - Y) == X + Y

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_divide(T**3 + MPoly.const(1, 1), T**2)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(T, MPoly.zero(1))


class TestTotalDegree:
    def test_cusp(self):
        assert total_degree(CUSP_GEN) == 3

    def test_zero(self):
        assert total_degree(MPoly.zero(2)) == NEG_INF

    def test_constant(self):
        assert total_degree(MPoly.const(2, 5)) == 0


class TestInterpolate:
    def test_linear_coefficient(self):
        samples = [((F(c),), F(-c)) for c in (0, 1, 2)]
        assert interpolate(samples, [2]) == p1({(1,): -1})

    def test_all_zero(self):
        samples = [((F(c),), F(0)) for c in (0, 1, 2)]
        assert interpolate(samples, [2]).is_zero()

    def test_bilinear(self):
        samples = [((F(a), F(b)), F(a * b)) for a in (0, 1) for b in (0, 1)]
        assert interpolate(samples, [1, 1]) == p2({(1, 1): 1})

    def test_grid_malformed(self):
        with pytest.raises(GridMalformed):
            interpolate([((F(0),), F(0))], [2])

    def test_inconsistent(self):
        samples = [((F(c),), F(c * c)) for c in (0, 1, 2)]
        with pytest.raises(InconsistentSamples):
            interpolate(samples, [1])


def random_poly(rng, var_count, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in range(var_count))
        terms[expo] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return MPoly(var_count, terms)


class TestRingProperties:
    def test_ring_axioms(self):
        rng = random.Random(7)
        for _ in range(50):
            p, q, r = (random_poly(rng, 2) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_compose_evaluate_commutes(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng, 2, max_deg=2)
            subs = [random_poly(rng, 1, max_deg=2), random_poly(rng, 1, max_deg=2)]
            t0 = F(rng.randint(-5, 5), rng.randint(1, 5))
            lhs = evaluate(compose(p, subs), [t0])
            rhs = evaluate(p, [evaluate(s, [t0]) for s in subs])
            assert lhs == rhs

    def test_divide_roundtrip(self):
        rng = random.Random(13)
        for _ in range(50):
            p = random_poly(rng, 2)
            q = random_poly(rng, 2)
            if q.is_zero():
                continue
            assert exact_divide(p * q, q) == p

    def test_interpolate_roundtrip(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_poly(rng, 2, max_deg=2, max_terms=4)
            bounds = [2, 2]
            nodes = [F(i) for i in range(4)]
            samples = [((a, b), evaluate(p, [a, b])) for a in nodes for b in nodes]
            assert interpolate(samples, bounds) == p


class TestUnivariateUtilities:
    def test_gcd(self):
        p = (T - MPoly.const(1, 1)) * (T + MPoly.const(1, 2))
        q = (T - MPoly.const(1, 1)) * (T - MPoly.const(1, 3))
        assert univ_gcd(p, q) == T - MPoly.const(1, 1)

    def test_gcd_coprime(self):
        assert univ_gcd(T - MPoly.const(1, 1), T - MPoly.const(1, 2)) == MPoly.const(1, 1)

    def test_distinct_root_count(self):
        p = (T - MPoly.const(1, 2)) ** 3 * (T + MPoly.const(1, 1))
        assert distinct_root_count(p) == 2

    def test_coeff_roundtrip(self):
        p = univ_from_coeffs([F(1, 2), 0, 3])
        assert univ_coeffs(p) == [F(1, 2), F(0), F(3)]


class TestResultant:
    def test_line_circle(self):
        circle = p2({(2, 0): 1, (0, 2): 1, (0, 0): -1})
        line = X - Y
        res = sylvester_resultant(circle, line, 1)
        # eliminating y leaves 2x^2 - 1 up to sign
        assert res in (p2({(2, 0): 2, (0, 0): -1}), p2({(2, 0): -2, (0, 0): 1}))

    def test_common_factor_vanishes(self):
        p = (X - Y) * (X + Y)
        q = (X - Y) * X
        assert sylvester_resultant(p, q, 1).is_zero()

    def test_known_sylvester(self):
        # res_t(t^2 - a, b - t) = b^2 - a with (a, b) the remaining vars
        three = MPoly(3, {(1, 0, 0): 1})  # t
        a = MPoly(3, {(0, 1, 0): 1})
        b = MPoly(3, {(0, 0, 1): 1})
        res = sylvester_resultant(three**2 - a, b - three, 0)
        assert res == b**2 - a

    def test_det(self):
        one = MPoly.const(1, 1)
        m = [[T, one], [one, T]]
        assert det_bareiss(m) == T**2 - one


class TestJson:
    def test_roundtrip(self):
        p = p2({(3, 0): F(-3, 2), (0, 1): 7})
        obj = poly_to_json(p, ["x", "y"])
        q, names = poly_from_json(obj)
        assert q == p and names == ["x", "y"]

    def test_rational_strings(self):
        obj = {"vars": ["x"], "terms": [{"c": "-3/2", "e": [1]}, {"c": "4", "e": [0]}]}
        q, _ = poly_from_json(obj)
        assert q == p1({(1,): F(-3, 2), (0,): 4})
