import random
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mpolys
from cnull.errors import GridMalformed, InconsistentSamples, NotDivisible, SchemaError
from cnull.polycore import (
    NEG_INF,
    MPoly,
    coeffs_in_var,
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
    univ_derivative,
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

    @pytest.mark.parametrize(
        "obj",
        [
            {"vars": ["x"], "terms": 5},
            {"vars": ["x"], "terms": [{"c": "1", "e": 2}]},
            {"vars": ["x"], "terms": [{"c": "1", "e": None}]},
        ],
    )
    def test_malformed_shapes_raise_schema_error(self, obj):
        with pytest.raises(SchemaError):
            poly_from_json(obj)


# ---------------------------------------------------------------------------
# kernel invariant: the operations build their results with the trusted
# constructor, so every result must be what the validating one would make


def assert_invariant(p, var_count):
    assert p.var_count == var_count
    for expo, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(expo) is tuple and len(expo) == var_count
        assert all(type(e) is int and e >= 0 for e in expo)
    assert p == MPoly(var_count, p.terms)


def poly_triples(max_deg=2, max_terms=4):
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), *[mpolys(n, max_deg, max_terms)] * 3)
    )


def cofactor_det(m):
    """Reference determinant by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = MPoly.zero(m[0][0].var_count)
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def reference_evaluate(p, point):
    """The evaluation loop without power tables: v**e recomputed for every term."""
    total = 0
    for expo, coeff in p.sorted_terms():
        term = mp.mpf(coeff.numerator) / mp.mpf(coeff.denominator)
        for e, v in zip(expo, point):
            if e:
                term = term * v**e
        total = total + term
    return total


class TestKernelProperties:
    @given(poly_triples(), st.fractions(min_value=-5, max_value=5, max_denominator=5))
    def test_op_results_hold_the_invariant(self, polys, value):
        n, a, b, c = polys
        for result in (a + b, a - b, -a, a * b, a.scale(value), a**2, compose(a, [b, c, a][:n])):
            assert_invariant(result, n)
        for index in range(n):
            for coeff in coeffs_in_var(a, index):
                assert_invariant(coeff, n)
        if not b.is_zero():
            assert_invariant(exact_divide(a * b, b), n)

    @given(mpolys(1, max_deg=5, max_terms=6), mpolys(1, max_deg=5, max_terms=6))
    def test_univariate_results_hold_the_invariant(self, a, b):
        assert_invariant(univ_derivative(a), 1)
        assert_invariant(univ_gcd(a, b), 1)
        assert_invariant(univ_from_coeffs(univ_coeffs(a)), 1)

    @given(poly_triples())
    def test_distributive_and_division_undoes_product(self, polys):
        _, a, b, c = polys
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        if not b.is_zero():
            assert exact_divide(a * b, b) == a

    @given(poly_triples(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3))
    def test_ops_commute_with_exact_evaluation(self, polys, point):
        n, a, b, _ = polys
        pt = point[:n]
        va, vb = evaluate(a, pt), evaluate(b, pt)
        assert evaluate(a + b, pt) == va + vb
        assert evaluate(a - b, pt) == va - vb
        assert evaluate(a * b, pt) == va * vb

    @settings(max_examples=40)
    @given(st.integers(3, 4).flatmap(
        lambda size: st.lists(st.lists(mpolys(2, max_deg=1, max_terms=3), min_size=size, max_size=size),
                              min_size=size, max_size=size)))
    def test_det_bareiss_matches_cofactor_expansion(self, m):
        det = det_bareiss(m)
        assert_invariant(det, 2)
        assert det == cofactor_det(m)

    def test_det_bareiss_row_swaps(self):
        # a zero pivot forces a swap; on permutation matrices the det is the sign
        one, zero = MPoly.const(1, 1), MPoly.zero(1)
        m = [[zero, T, one], [one, zero, T], [T, one, zero]]
        assert det_bareiss(m) == cofactor_det(m)
        for perm in permutations(range(3)):
            m = [[one if perm[i] == j else zero for j in range(3)] for i in range(3)]
            inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
            assert det_bareiss(m) == cofactor_det(m) == MPoly.const(1, (-1) ** inversions)

    @given(poly_triples(max_deg=3, max_terms=5),
           st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=3))
    def test_power_tables_keep_mpmath_evaluation_bit_identical(self, polys, point):
        n, a, _, _ = polys
        with mp.workprec(80):
            pt = [mp.mpc(mp.mpf(re) / 7, mp.mpf(im) / 3) for re, im in point[:n]]
            assert evaluate(a, pt) == reference_evaluate(a, pt)

