import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mpolys, residue_evaluate
from cnull.errors import GridMalformed, InconsistentSamples, NotDivisible, SchemaError
from cnull.numroots import roots_from_coeffs
from cnull.polycore import (
    NEG_INF,
    MPoly,
    ResidueRing,
    coeffs_in_var,
    compose,
    distinct_root_count,
    drop_var,
    evaluate,
    evaluator,
    exact_divide,
    grid_interpolant,
    interpolate,
    poly_from_json,
    poly_to_json,
    subresultants,
    sylvester_resultant,
    total_degree,
    univ_coeffs,
    univ_derivative,
    univ_from_coeffs,
    univ_gcd,
    _univ_rem,
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
        (val,) = evaluator([p2({(2, 0): 1, (0, 1): 1})])([1j, 2.0])
        assert abs(val - 1.0) < 1e-12

    @pytest.mark.parametrize("point", [[1j, 2.0], [2.0, 3], [mp.mpc(1, 1), 2], [mp.mpf(2), F(1, 3)]])
    def test_numeric_point_is_refused(self, point):
        # evaluate is exact; numeric points go through evaluator
        with pytest.raises(TypeError):
            evaluate(p2({(2, 0): 1, (0, 1): 1}), point)


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


def _exact_divide_by_scanning(p: MPoly, q: MPoly) -> MPoly:
    """Reference division: each leading term by a scan of the whole remainder."""
    lt_e, lt_c = q.leading_term()
    rem, quot = dict(p.terms), {}
    while rem:
        expo = max(rem, key=lambda e: (sum(e), e))
        if any(a < b for a, b in zip(expo, lt_e)):
            raise NotDivisible("remainder is nonzero")
        qe = tuple(a - b for a, b in zip(expo, lt_e))
        quot[qe] = rem[expo] / lt_c
        for be, bc in q.terms.items():
            ke = tuple(a + b for a, b in zip(qe, be))
            rem[ke] = rem.get(ke, 0) - quot[qe] * bc
            if not rem[ke]:
                del rem[ke]
    return MPoly(p.var_count, quot)


class TestExactDivideAgainstTheScan:
    @settings(max_examples=60)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(mpolys(n, 3, 5), mpolys(n, 2, 4), mpolys(n, 2, 3))))
    def test_same_quotient_or_the_same_failure(self, polys):
        a, b, c = polys
        if b.is_zero():
            return
        for p in (a * b, a * b + c):
            try:
                expected = _exact_divide_by_scanning(p, b)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    exact_divide(p, b)
                continue
            assert exact_divide(p, b) == expected


SMALL_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _univ_polys(min_degree, max_degree):
    """Univariate MPolys with small rational coefficients and a nonzero lead, of degree in the range."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda deg: st.tuples(
            st.lists(SMALL_RATIONALS, min_size=deg, max_size=deg), SMALL_RATIONALS.filter(bool)
        )
    ).map(lambda t: univ_from_coeffs(t[0] + [t[1]]))


@st.composite
def inverse_cases(draw):
    """(R, coefficients of a): R of degree 1..20 with rational coefficients and a lead other than 1.

    R = A*B, and half the time a is a multiple of A, so that non-units occur.
    """
    A = draw(_univ_polys(0, 3))
    B = draw(_univ_polys(max(0, 1 - A.degree_in(0)), 20 - A.degree_in(0)))
    R = A * B
    if R.leading_term()[1] == 1:
        R = R.scale(3)
    a = univ_from_coeffs(draw(st.lists(SMALL_RATIONALS, max_size=R.degree_in(0) + 2)))
    if draw(st.booleans()):
        a = a * A
    return R, univ_coeffs(a)


class TestResidueRing:
    # R = (x - 1)(x + 2)(2x - 3): roots 1, -2, 3/2
    R = univ_from_coeffs([6, -7, -1, 2])
    ROOTS = [F(1), F(-2), F(3, 2)]

    def _values(self, ring, a):
        """The values of the residue a at the roots of R."""
        c, den = a
        return [sum(F(v) * r**i for i, v in enumerate(c)) / den for r in self.ROOTS]

    def test_reduction_keeps_the_values_at_the_roots(self):
        ring = ResidueRing(self.R)
        coeffs = [F(1, 3), 0, 5, -7, F(2, 9), 1]
        a = ring.element(coeffs)
        assert len(a[0]) == 3 and a[1] > 0
        assert self._values(ring, a) == [sum(c * r**i for i, c in enumerate(coeffs)) for r in self.ROOTS]

    def test_operations_act_at_every_root(self):
        ring = ResidueRing(self.R)
        a, b = ring.element([1, F(1, 2), 3]), ring.element([F(-2, 7), 0, 0, 1])
        va, vb = self._values(ring, a), self._values(ring, b)
        assert self._values(ring, ring.add(a, b)) == [x + y for x, y in zip(va, vb)]
        assert self._values(ring, ring.scale(b, F(-2, 3))) == [F(-2, 3) * y for y in vb]
        assert self._values(ring, ring.mul(a, b)) == [x * y for x, y in zip(va, vb)]
        assert self._values(ring, ring.inverse(a)) == [1 / x for x in va]
        assert -ring.charpoly(a)[0] == sum(va)  # the trace
        point = [a, b]
        p = MPoly(2, {(2, 1): F(3), (0, 2): F(-1, 2), (0, 0): F(4)})
        assert self._values(ring, residue_evaluate(ring, p, point)) == [evaluate(p, [x, y]) for x, y in zip(va, vb)]

    def test_charpoly_is_the_product_over_the_roots(self):
        ring = ResidueRing(self.R)
        a = ring.element([F(1, 2), -1, 4])
        values = self._values(ring, a)
        s = MPoly.variable(1, 0)
        expected = (s - MPoly.const(1, values[0])) * (s - MPoly.const(1, values[1])) * (s - MPoly.const(1, values[2]))
        assert ring.charpoly(a) == univ_coeffs(expected)[::-1][1:]

    @settings(max_examples=60)
    @given(inverse_cases())
    def test_charpoly_equals_newtons_identities_in_fractions(self, case):
        # the integer recurrence against the Fraction one on the traces of the powers of a
        R, coeffs = case
        ring = ResidueRing(R)
        a = ring.element(coeffs)
        sums, power = [], a
        for _ in range(ring.d):
            sums.append(-ring.charpoly(power)[0])  # the trace of a^m
            power = ring.mul(power, a)
        expected = []
        for m in range(1, ring.d + 1):
            expected.append(-(sums[m - 1] + sum(expected[i - 1] * sums[m - i - 1] for i in range(1, m))) / m)
        assert ring.charpoly(a) == expected

    def test_integer_modulus_gives_the_same_ring(self):
        # -6 R: content 6 and a negative lead
        ring, scaled = ResidueRing(self.R), ResidueRing.from_integers([-36, 42, 6, -12])
        assert scaled.d == ring.d == 3
        for coeffs in ([F(1, 2), -1, 4], [F(-2, 7), 0, 0, 1], [-1, 1], [F(5, 3)], [3, F(1, 4), -2, 7, F(2, 9)]):
            a = scaled.element(coeffs)
            assert a == ring.element(coeffs)
            assert scaled.charpoly(a) == ring.charpoly(a)
            assert scaled.inverse(a) == ring.inverse(a)
            assert scaled.mul(a, a) == ring.mul(a, a)

    def test_zero_divisors_have_no_inverse(self):
        ring = ResidueRing(self.R)
        assert ring.inverse(ring.element([-1, 1])) is None  # x - 1 vanishes at the root 1
        assert ring.inverse(ring.element([])) is None
        assert ring.element([-6, 7, 1, -2]) == ring.element([])  # -R

    def test_constant_modulus_is_rejected(self):
        with pytest.raises(ValueError):
            ResidueRing(univ_from_coeffs([3]))

    @settings(max_examples=60)
    @given(inverse_cases())
    # a non-unit: x - 1 and x^2 - 1 share the root 1 of R = (x - 1)(2x + 3)(x^2 + 1)
    @example((p1({(4,): 2, (3,): 1, (2,): -1, (1,): 1, (0,): -3}), [F(-1), F(0), F(1)]))
    @example((p1({(3,): F(5, 2), (0,): F(-1, 3)}), []))  # zero
    @example((p1({(2,): F(-3, 4), (1,): 2, (0,): 7}), [F(-3, 7)]))  # a rational constant
    def test_euclid_inverse_equals_the_cayley_hamilton_inverse(self, case):
        R, coeffs = case
        ring = ResidueRing(R)
        a = ring.element(coeffs)
        inv = ring.inverse(a)
        assert inv == _inverse_by_cayley_hamilton(ring, a)
        if inv is not None:
            assert ring.mul(a, inv) == ring.element([1])

    def test_scalar_product_of_zero_negative_and_non_integer_scalars(self):
        ring = ResidueRing(self.R)
        a = ring.element([F(1, 2), -1, 4])
        for q in (0, F(0), -3, F(-3), F(-5, 7), F(9, 4), 6):
            assert ring.scale(a, q) == ring.mul(ring.element([q]), a)
        assert ring.scale(a, 0) == ring.element([])
        assert self._values(ring, ring.scale(a, F(-5, 7))) == [F(-5, 7) * v for v in self._values(ring, a)]

    @settings(max_examples=80)
    @given(inverse_cases(), st.fractions(max_denominator=10**6))
    @example((univ_from_coeffs([6, -7, -1, 2]), [F(1, 2), -1, 4]), F(0))
    @example((univ_from_coeffs([6, -7, -1, 2]), [F(1, 2), -1, 4]), F(-4))
    @example((univ_from_coeffs([6, -7, -1, 2]), [F(3, 10), F(-1, 6), 4]), F(-25, 9))
    @example((univ_from_coeffs([6, -7, -1, 2]), []), F(2, 3))  # the zero residue
    def test_scalar_product_is_the_product_with_a_constant_residue(self, case, q):
        R, coeffs = case
        ring = ResidueRing(R)
        a = ring.element(coeffs)
        c, den = got = ring.scale(a, q)
        assert got == ring.mul(ring.element([q]), a)
        assert len(c) == ring.d and den > 0 and math.gcd(den, *c) == 1  # canonical

    @settings(max_examples=60, deadline=None)
    @given(inverse_cases(), mpolys(2, max_deg=3, max_terms=6), st.data())
    def test_evaluate_equals_the_residue_product_loop(self, case, p, data):
        R, coeffs = case
        ring = ResidueRing(R)
        other = data.draw(st.lists(SMALL_RATIONALS, max_size=ring.d + 1))
        point = [ring.element(coeffs), ring.element(other)]
        assert residue_evaluate(ring, p, point) == residue_product_evaluate(ring, p, point)


def residue_product_evaluate(ring, p, point):
    """conftest.residue_evaluate by products of residues only: each term's coefficient as a residue, times its powers."""
    powers = [[ring.element([1]), v] for v in point]

    def power(i, e):
        while len(powers[i]) <= e:
            powers[i].append(ring.mul(powers[i][-1], point[i]))
        return powers[i][e]

    total = ring.element([])
    for expo, coeff in p.terms.items():
        term = ring.element([coeff])
        for i, e in enumerate(expo):
            if e:
                term = ring.mul(term, power(i, e))
        total = ring.add(total, term)
    return total


def _inverse_by_cayley_hamilton(ring, a):
    """The inverse of a residue from its characteristic polynomial s^d + c_1 s^(d-1) + ... + c_d.

    a is a unit exactly when its norm (-1)^d c_d is nonzero, and then
    a^-1 = -(a^(d-1) + c_1 a^(d-2) + ... + c_(d-1)) / c_d.
    """
    if not any(a[0][1:]):  # a rational constant
        return ring.element([F(a[1], a[0][0])]) if a[0][0] else None
    c = ring.charpoly(a)
    if not c[-1]:
        return None
    acc = ring.element([1])
    for ci in c[:-1]:
        acc = ring.add(ring.mul(acc, a), ring.element([ci]))
    return ring.mul(acc, ring.element([-1 / c[-1]]))


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
        assert interpolate(samples, 2) == p1({(1,): -1})

    def test_all_zero(self):
        samples = [((F(c),), F(0)) for c in (0, 1, 2)]
        assert interpolate(samples, 2).is_zero()

    def test_bilinear(self):
        # total degree 2 needs the simplex {a + b <= 2}: {0, 1}^2 alone lacks (2, 0)
        samples = [((F(a), F(b)), F(a * b)) for a in (0, 1, 2) for b in (0, 1, 2)]
        assert interpolate(samples, 2) == p2({(1, 1): 1})
        assert interpolate([s for s in samples if sum(s[0]) <= 2], 2) == p2({(1, 1): 1})
        with pytest.raises(GridMalformed):
            interpolate([s for s in samples if max(s[0]) < 2], 2)

    def test_grid_malformed(self):
        with pytest.raises(GridMalformed):
            interpolate([((F(0),), F(0))], 2)
        with pytest.raises(GridMalformed):
            interpolate([], 0)
        with pytest.raises(GridMalformed):
            interpolate([((F(0),), F(0)), ((F(1), F(0)), F(0))], 0)

    def test_not_a_lower_set(self):
        # the nodes (0, 0) and (1, 1): index (1, 1) without (0, 1) or (1, 0)
        with pytest.raises(GridMalformed):
            interpolate([((F(0), F(0)), F(0)), ((F(1), F(1)), F(0))], 0)

    def test_nodes_are_numbered_in_order_of_first_appearance(self):
        # three of the four points of {0, 1}^2 index the lower set {(0, 0), (1, 0), (0, 1)}
        # when (0, 0) comes first; led by (1, 0), x = 1 is node 0 and (0, 1) is index (1, 1)
        points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        samples = [(pt, pt[0] + 2 * pt[1]) for pt in points]
        assert grid_interpolant(samples, 1) == p2({(1, 0): 1, (0, 1): 2})
        with pytest.raises(GridMalformed):
            grid_interpolant([samples[1], samples[0], samples[2]], 1)
        # a surplus node counts too: y^2 through 3, 0, 1, checked at 2
        samples = [((F(c),), F(c * c)) for c in (3, 0, 1, 2)]
        assert grid_interpolant(samples, 2) == p1({(2,): 1})
        assert grid_interpolant(samples[:3] + [((F(2),), F(5))], 2) is None

    def test_inconsistent(self):
        samples = [((F(c),), F(c * c)) for c in (0, 1, 2)]
        with pytest.raises(InconsistentSamples):
            interpolate(samples, 1)


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
            nodes = [F(i) for i in range(6)]
            samples = [((a, b), evaluate(p, [a, b])) for a in nodes for b in nodes]
            assert interpolate(samples, 4) == p


def _newton_by_products(nodes, values, bound):
    """The Newton form through the first bound + 1 nodes, expanded by MPoly products."""
    xs, coeffs = list(nodes[: bound + 1]), list(values[: bound + 1])
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly, basis = MPoly(1), MPoly.const(1, 1)
    for i, c in enumerate(coeffs):
        poly = poly + basis.scale(c)
        if i < len(xs) - 1:
            basis = basis * MPoly(1, {(1,): F(1), (0,): -xs[i]})
    return poly


NODES = st.fractions(min_value=-12, max_value=12, max_denominator=6)


class TestInterpolationProperties:
    @settings(max_examples=80)
    @given(nodes=st.lists(NODES, min_size=1, max_size=14, unique=True), data=st.data())
    def test_newton_expansion_matches_the_product_expansion(self, nodes, data):
        bound = data.draw(st.integers(0, len(nodes) - 1))
        values = data.draw(st.lists(NODES, min_size=len(nodes), max_size=len(nodes)))
        got = grid_interpolant([((x,), v) for x, v in zip(nodes, values)][: bound + 1], bound)
        assert_invariant(got, 1)
        assert got.terms == _newton_by_products(nodes, values, bound).terms

    @settings(max_examples=40)
    @given(p=mpolys(2, max_deg=4, max_terms=6), data=st.data())
    def test_interpolate_recovers_a_polynomial_on_a_random_grid(self, p, data):
        # every permutation of a tensor grid numbers its nodes into the same tensor grid
        degree = max(total_degree(p), 0)
        bound = data.draw(st.integers(degree, degree + 2))
        axes = [data.draw(st.lists(NODES, min_size=bound + 1, max_size=bound + 3, unique=True)) for _ in range(2)]
        samples = data.draw(st.permutations([((u, v), evaluate(p, [u, v])) for u in axes[0] for v in axes[1]]))
        assert interpolate(samples, bound) == p


@st.composite
def lower_set_samples(draw):
    """(samples, index of each point, bound, polynomial): a random lower set holding the
    simplex of total degree bound, listed in a random order in which each index follows
    the indices below it, at distinct rational nodes in random order per axis, with the
    values of a random polynomial of total degree at most bound."""
    k, bound = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    simplex = [a for a in itertools.product(range(bound + 1), repeat=k) if sum(a) <= bound]
    tops = simplex + draw(st.lists(st.tuples(*[st.integers(0, bound + 2)] * k), max_size=3))
    lower = {a for top in tops for a in itertools.product(*(range(e + 1) for e in top))}
    order = sorted(draw(st.permutations(sorted(lower))), key=sum)
    sizes = [1 + max(a[i] for a in lower) for i in range(k)]
    axes = [draw(st.lists(NODES, min_size=n, max_size=n, unique=True)) for n in sizes]
    terms = draw(st.dictionaries(st.sampled_from(simplex), NODES, max_size=6))
    p = MPoly(k, terms)
    points = [tuple(axes[i][m] for i, m in enumerate(a)) for a in order]
    return [(y, evaluate(p, y)) for y in points], order, bound, p


def _first_appearance(points):
    return [list(dict.fromkeys(y[i] for y in points)) for i in range(len(points[0]))]


class TestLowerSetInterpolation:
    @settings(max_examples=60, deadline=None)
    @given(case=lower_set_samples())
    def test_interpolate_returns_the_polynomial(self, case):
        samples, _, bound, p = case
        assert interpolate(samples, bound) == p

    @settings(max_examples=60, deadline=None)
    @given(case=lower_set_samples(), data=st.data())
    def test_a_changed_sample_fails_exactly_below_a_node_over_the_bound(self, case, data):
        samples, order, bound, _ = case
        at = data.draw(st.integers(0, len(samples) - 1))
        beta = order[at]
        changed = list(samples)
        changed[at] = (samples[at][0], samples[at][1] + data.draw(NODES.filter(bool)))
        over = any(all(x >= y for x, y in zip(a, beta)) and sum(a) > bound for a in order)
        assert (grid_interpolant(changed, bound) is None) == over

    @settings(max_examples=60, deadline=None)
    @given(case=lower_set_samples(), data=st.data())
    def test_a_node_set_off_the_lower_simplex_is_malformed(self, case, data):
        # drop one index whose removal keeps the numbering of the nodes
        samples, order, bound, p = case
        numbering = _first_appearance([y for y, _ in samples])
        keep = [
            i for i in range(len(samples))
            if len(samples) > 1 and _first_appearance([y for y, _ in samples[:i] + samples[i + 1:]]) == numbering
        ]
        if not keep:
            return
        at = data.draw(st.sampled_from(keep))
        gamma, rest = order[at], samples[:at] + samples[at + 1:]
        above = [a for a in order if all(x >= y for x, y in zip(a, gamma)) and a != gamma]
        if above or sum(gamma) <= bound:
            with pytest.raises(GridMalformed):
                grid_interpolant(rest, bound)
        else:
            assert grid_interpolant(rest, bound) == p


def fraction_interpolate(samples, bound):
    """interpolate over Fraction points, on fraction_grid_interpolant."""
    seen = {}
    for point, value in samples:
        pt = tuple(F(c) for c in point)
        val = F(value)
        if seen.setdefault(pt, val) != val:
            raise InconsistentSamples(f"conflicting values at {pt}")
    result = fraction_grid_interpolant(seen.items(), bound)
    if result is None:
        raise InconsistentSamples("no interpolant within the degree bound matches all samples")
    return result


def fraction_grid_interpolant(samples, bound):
    """grid_interpolant with one denominator per line: Fraction values, int or Fraction nodes."""
    samples = list(samples)
    if len({len(pt) for pt, _ in samples}) != 1:
        raise GridMalformed("need samples at points of one length")
    k = len(samples[0][0])
    axes = [list(dict.fromkeys(pt[i] for pt, _ in samples)) for i in range(k)]
    index = [{c: m for m, c in enumerate(nodes)} for nodes in axes]
    table = {tuple(ix[c] for ix, c in zip(index, pt)): F(val) for pt, val in samples}
    if any(a[i] and a[:i] + (a[i] - 1,) + a[i + 1:] not in table for a in table for i in range(k)):
        raise GridMalformed("the sample nodes do not form a lower set")
    if sum(sum(a) <= bound for a in table) != math.comb(bound + k, k):
        raise GridMalformed(f"the sample nodes miss an index of total degree at most {bound}")
    xs = [[int(c) if F(c).denominator == 1 else F(c) for c in nodes] for nodes in axes]
    _fraction_along_lines(table, xs, _fraction_divided_differences)
    if any(c for a, c in table.items() if sum(a) > bound):
        return None
    table = {a: c for a, c in table.items() if sum(a) <= bound}
    _fraction_along_lines(table, xs, _fraction_newton_to_monomial)
    return MPoly._raw(k, {a: c for a, c in table.items() if c})


def _fraction_along_lines(table, axes, step):
    """Axis by axis, in place: each line of the lower set table becomes step(nodes, numerators, den)."""
    for axis, nodes in enumerate(axes):
        lines = {}
        for alpha in sorted(table):
            lines.setdefault(alpha[:axis] + alpha[axis + 1:], []).append(alpha)
        for alphas in lines.values():
            values = [table[a] for a in alphas]
            den = math.lcm(*(v.denominator for v in values))
            table.update(zip(alphas, step(nodes, [v.numerator * (den // v.denominator) for v in values], den)))


def _fraction_divided_differences(xs, c, den):
    """Newton coefficients through (xs[m], c[m] / den); each level scales the den by its gaps' lcm."""
    dens = [den]
    for level in range(1, len(c)):
        gaps = [F(xs[i] - xs[i - level]) for i in range(level, len(c))]
        scale = math.lcm(*(gap.numerator for gap in gaps))
        for i in range(len(c) - 1, level - 1, -1):
            gap = gaps[i - level]
            c[i] = (c[i] - c[i - 1]) * gap.denominator * scale // gap.numerator
        dens.append(dens[-1] * scale)
    return [F(v, d) for v, d in zip(c, dens)]


def _fraction_newton_to_monomial(xs, c, den):
    """Ascending coefficients of sum_m c[m] prod_(l < m) (X - xs[l]) / den, by Horner's rule."""
    acc = [c[-1]]
    for m in range(len(c) - 2, -1, -1):
        acc = [c[m] - xs[m] * acc[0]] + [lo - xs[m] * hi for lo, hi in zip(acc, acc[1:])] + [acc[-1]]
    return [F(v) / den for v in acc]


LARGE_DENOMINATORS = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))
# nodes of one axis: ints, integral Fractions, or rationals
AXIS_NODES = st.sampled_from([st.integers(-30, 30), st.integers(-30, 30).map(F), NODES])


@st.composite
def kernel_cases(draw):
    """(samples, bound): a random lower set holding the simplex of total degree bound (k = 1-3),
    listed by index sum, at int, integral Fraction or rational nodes per axis, with the values
    of a polynomial of total degree up to bound + 2 with large denominators, or random values;
    a point may be listed again with its coordinates as the other type, with any value."""
    k, bound = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    simplex = [a for a in itertools.product(range(bound + 1), repeat=k) if sum(a) <= bound]
    tops = simplex + draw(st.lists(st.tuples(*[st.integers(0, bound + 2)] * k), max_size=3))
    lower = {a for top in tops for a in itertools.product(*(range(e + 1) for e in top))}
    order = sorted(draw(st.permutations(sorted(lower))), key=sum)
    sizes = [1 + max(a[i] for a in lower) for i in range(k)]
    axes = [draw(st.lists(draw(AXIS_NODES), min_size=n, max_size=n, unique=True)) for n in sizes]
    points = [tuple(axes[i][m] for i, m in enumerate(a)) for a in order]
    degree = draw(st.integers(0, bound + 2))
    monomials = [a for a in itertools.product(range(degree + 1), repeat=k) if sum(a) <= degree]
    p = MPoly(k, draw(st.dictionaries(st.sampled_from(monomials), LARGE_DENOMINATORS, max_size=6)))
    if draw(st.booleans()):
        samples = [(y, evaluate(p, y)) for y in points]
    else:
        samples = [(y, draw(LARGE_DENOMINATORS)) for y in points]
    for _ in range(draw(st.integers(0, 2))):
        y, v = draw(st.sampled_from(samples))
        again = tuple(F(c) if type(c) is int else int(c) if c.denominator == 1 else c for c in y)
        samples.append((again, draw(st.sampled_from([v, v + 1]))))
    return samples, bound


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    @example(case=([((2,), F(4)), ((0,), F(0)), ((F(2),), F(5))], 1))  # 2 and Fraction(2), two values
    @example(case=([((F(2), 1), F(4)), ((0, 1), F(0)), ((2, 3), F(4)), ((2, F(1)), F(4))], 1))  # one value
    def test_integer_kernel_equals_the_fraction_kernel(self, case):
        samples, bound = case
        unique = dict(samples)  # 2 and Fraction(2) are one coordinate
        if any(unique[y] != v for y, v in samples):
            with pytest.raises(InconsistentSamples):
                fraction_interpolate(samples, bound)
            with pytest.raises(InconsistentSamples):
                interpolate(samples, bound)
            return
        got = grid_interpolant(unique.items(), bound)
        assert got == fraction_grid_interpolant(unique.items(), bound)
        if got is None:
            with pytest.raises(InconsistentSamples):
                interpolate(samples, bound)
        else:
            assert_invariant(got, len(samples[0][0]))
            assert interpolate(samples, bound) == got


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
        # eliminating y leaves 2x^2 - 1 up to sign, a polynomial in x alone
        assert res in (p1({(2,): 2, (0,): -1}), p1({(2,): -2, (0,): 1}))

    def test_common_factor_vanishes(self):
        p = (X - Y) * (X + Y)
        q = (X - Y) * X
        assert sylvester_resultant(p, q, 1).is_zero()

    def test_known_sylvester(self):
        # res_t(t^2 - a, b - t) = b^2 - a, a polynomial in the remaining vars (a, b)
        three = MPoly(3, {(1, 0, 0): 1})  # t
        a = MPoly(3, {(0, 1, 0): 1})
        b = MPoly(3, {(0, 0, 1): 1})
        res = sylvester_resultant(three**2 - a, b - three, 0)
        assert res == Y**2 - X  # (a, b) as (x, y)

    def test_linear_member_gives_the_common_root(self):
        # p - q = 2y - x: over x = 0 and x = -6 the common roots are y = 0 and y = -3, -s0/s1 = x/2
        p, q = Y**2 + Y + X, Y**2 - Y + X.scale(2)
        res, (s0, s1) = subresultants(p, q, 1)  # polynomials in x, written T
        assert res == sylvester_resultant(p, q, 1) == T**2 + T.scale(6)
        # s1^2 * p(x, -s0/s1) and s1^2 * q(x, -s0/s1) vanish wherever res does
        for h in (s0 * s0 - s0 * s1 + T * s1 * s1, s0 * s0 + s0 * s1 + T.scale(2) * s1 * s1):
            exact_divide(h, res)  # NotDivisible unless res divides h

    def test_no_member_of_degree_1(self):
        assert subresultants(Y**2 + X, Y**2 - X, 1)[1] is None


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
            {"vars": ["x"], "terms": [{"c": "1", "e": [True]}]},
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


def cofactor_det(m, var_count):
    """Reference determinant by expansion along the first row; 1 for the empty matrix."""
    if not m:
        return MPoly.const(var_count, 1)
    total = MPoly.zero(var_count)
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = entry * cofactor_det(minor, var_count)
        total = total + term if j % 2 == 0 else total - term
    return total


def sylvester_matrix(p, q, index):
    """The Sylvester matrix in variable `index`: deg q rows of p's coefficients, then deg p rows of q's."""
    pc = [drop_var(c, index) for c in reversed(coeffs_in_var(p, index))]
    qc = [drop_var(c, index) for c in reversed(coeffs_in_var(q, index))]
    n = len(pc) + len(qc) - 2
    zero = MPoly.zero(p.var_count - 1)
    rows = []
    for coeffs, count in ((pc, len(qc) - 1), (qc, len(pc) - 1)):
        rows += [[zero] * i + coeffs + [zero] * (n - len(coeffs) - i) for i in range(count)]
    return rows


def fraction_subresultants(p, q, index):
    """The Brown-Collins loop over MPoly coefficients, with Fraction arithmetic throughout: (Res, S1)."""
    a = [drop_var(c, index) for c in coeffs_in_var(p, index)]
    b = [drop_var(c, index) for c in coeffs_in_var(q, index)]
    linear = next((m for m in (b, a) if len(m) == 2), None)
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = MPoly.const(p.var_count - 1, 1)
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        lead, r, steps = b[-1], list(a), len(a) - len(b) + 1
        while len(r) >= len(b):  # the pseudo-remainder lc(b)^(delta + 1) * a mod b
            top = r.pop()
            shift = len(r) - len(b) + 1
            r = [c * lead for c in r]
            for i, c in enumerate(b[:-1]):
                r[shift + i] -= top * c
            steps -= 1
            while r and r[-1].is_zero():
                r.pop()
        r = [c * lead**steps for c in r]
        if not r:
            return MPoly.zero(p.var_count - 1), linear
        a, b = b, [exact_divide(c, g * h**delta) for c in r]
        g = a[-1]
        h = exact_divide(g**delta, h ** (delta - 1)) if delta else h
        if len(b) == 2:
            linear = b
    deg = len(a) - 1
    res = exact_divide(b[0] ** deg, h ** (deg - 1)) if deg else h
    return (res if sign > 0 else -res), linear


# odd numerators over even denominators: no coefficient is an integer
HALF_ODD = st.builds(lambda n, d: F(2 * n + 1, 2 * d), st.integers(-5, 4), st.integers(1, 4))


def rational_resultant_cases():
    """(index, p, q): nonzero MPolys in 1-3 variables, of degree <= 3 in each, no coefficient an integer."""
    def polys(n):
        return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), HALF_ODD, min_size=1, max_size=4).map(
            lambda terms: MPoly(n, terms)
        )
    return st.integers(1, 3).flatmap(lambda n: st.tuples(st.integers(0, n - 1), polys(n), polys(n)))


def resultant_cases():
    """(index, p, q): nonzero MPolys in 1-3 variables, of degree <= 3 in variable index."""
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.integers(0, n - 1),
            *[mpolys(n, max_deg=3, max_terms=4).filter(lambda p: not p.is_zero())] * 2,
        )
    )


def reference_evaluate(p, point, use_mp=True):
    """The numeric evaluation loop term by term, without power tables: v**e recomputed for every term."""
    total = 0
    for expo, coeff in p.sorted_terms():
        if use_mp:
            term = mp.mpf(coeff.numerator) / mp.mpf(coeff.denominator)
        else:
            term = coeff.numerator / coeff.denominator
        for e, v in zip(expo, point):
            if e:
                term = term * v**e
        total = total + term
    return total


def evaluator_cases(coordinate):
    """(polys, point): 1-4 MPolys in 1-3 variables, zero ones included, and a point of coordinates drawn by coordinate."""
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(mpolys(n, max_deg=3, max_terms=5), min_size=1, max_size=4),
            st.lists(coordinate, min_size=n, max_size=n),
        )
    )


# floats and complexes, with zero coordinates of both types
NATIVE_COORDINATES = st.one_of(
    st.sampled_from([0.0, 0j, -0.0]),
    st.floats(-9, 9),
    st.complex_numbers(max_magnitude=9, allow_nan=False, allow_infinity=False),
)

# mpc coordinates from pairs of small integers, made at the working precision; (0, 0) gives mpc(0)
MPC_PAIRS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


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

    @settings(max_examples=60)
    @given(resultant_cases())
    @example((1, Y**4 + Y.scale(2) + X, Y**3 + X))  # the remainder (2 - x) y + x drops 2 degrees
    @example((1, Y + X, Y**3 + X * Y + MPoly.const(2, 1)))  # odd x odd degrees, lower degree first
    @example((1, (X - Y) * (X + Y), (X - Y) * X))  # a common factor
    @example((1, MPoly.const(2, 3), Y**2 + X))  # a constant operand
    def test_resultant_is_the_sylvester_determinant(self, case):
        index, p, q = case
        res = sylvester_resultant(p, q, index)
        assert_invariant(res, p.var_count - 1)
        assert res == cofactor_det(sylvester_matrix(p, q, index), p.var_count - 1)

    @settings(max_examples=80)
    @given(rational_resultant_cases())
    @example((1, Y.scale(F(1, 2)) + X.scale(F(2, 3)), (Y**3).scale(F(3, 5)) + X * Y + MPoly.const(2, F(1, 7))))  # degree 1
    @example((1, (Y**2).scale(F(1, 3)) + X, Y**3 + (X * Y).scale(F(5, 2)) + MPoly.const(2, F(1, 4))))  # the swap
    # the remainder (2 - x) y + x drops 2 degrees, so the member of degree 1 has index 2
    @example((1, (Y**4 + Y.scale(2) + X).scale(F(3, 2)), (Y**3 + X).scale(F(-1, 5))))
    @example((1, ((X - Y) * (X + Y)).scale(F(1, 2)), ((X - Y) * X).scale(F(2, 3))))  # a common factor
    @example((1, MPoly.const(2, F(3, 2)), (Y**2).scale(F(1, 3)) + X))  # a constant operand
    def test_integer_sequence_equals_the_fraction_sequence(self, case):
        # the integer loop scales back to exactly what the Fraction loop computes, member of degree 1 included
        index, p, q = case
        res, linear = subresultants(p, q, index)
        assert (res, linear) == fraction_subresultants(p, q, index)
        assert_invariant(res, p.var_count - 1)
        for c in linear or []:
            assert_invariant(c, p.var_count - 1)

    @given(poly_triples(max_deg=3, max_terms=5), st.lists(MPC_PAIRS, min_size=3, max_size=3))
    def test_power_tables_keep_mpmath_evaluation_bit_identical(self, polys, point):
        n, a, _, _ = polys
        with mp.workprec(80):
            pt = [mp.mpc(mp.mpf(re) / 7, mp.mpf(im) / 3) for re, im in point[:n]]
            assert evaluator([a], use_mp=True)(pt) == [reference_evaluate(a, pt)]

    @given(evaluator_cases(NATIVE_COORDINATES))
    @example(([MPoly(2, {(1, 0): 1, (0, 2): F(-1, 3)}), MPoly.zero(2), MPoly.const(2, F(2, 7))], [0j, 0.0]))
    def test_evaluator_equals_the_term_by_term_loop_in_floats(self, case):
        polys, point = case
        assert evaluator(polys)(point) == [reference_evaluate(p, point, use_mp=False) for p in polys]

    @settings(max_examples=60)
    @given(evaluator_cases(MPC_PAIRS), st.sampled_from([53, 256]))
    @example(([MPoly(1, {(3,): F(1, 3), (1,): -1}), MPoly.zero(1)], [(0, 0)]), 256)
    def test_evaluator_equals_the_term_by_term_loop_in_mpmath(self, case, prec):
        polys, pairs = case
        with mp.workprec(prec):
            point = [mp.mpc(mp.mpf(re) / 7, mp.mpf(im) / 3) for re, im in pairs]
            at = evaluator(polys, use_mp=True)
            assert at(point) == [reference_evaluate(p, point) for p in polys]

    @pytest.mark.parametrize("use_mp", [False, True])
    def test_the_zero_polynomial_gives_an_exact_int_zero(self, use_mp):
        # roots_from_coeffs strips exact zeros, so zero coefficients must stay exact
        point = [mp.mpc(2, 1), mp.mpc(0)] if use_mp else [2 + 1j, 0.0]
        values = evaluator([MPoly.zero(2), MPoly.zero(2), X], use_mp)(point)
        assert [type(v) for v in values[:2]] == [int, int] and values[:2] == [0, 0]
        assert roots_from_coeffs(values[:2] + [1], 53).roots == [(0, 2)]

    def test_evaluator_rejects_a_point_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            evaluator([X, Y])([1.0])


# ---------------------------------------------------------------------------
# integer kernels against plain Fraction loops: products, powers, compose,
# the univariate remainder and gcd clear their operands to integers and make
# one Fraction per result term; these references never leave Fraction


def fraction_mul(a: MPoly, b: MPoly) -> MPoly:
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, F(0)) + ca * cb
    return MPoly(a.var_count, out)


def fraction_pow(a: MPoly, n: int) -> MPoly:
    out = MPoly.const(a.var_count, 1)
    for _ in range(n):
        out = fraction_mul(out, a)
    return out


def fraction_compose(p: MPoly, subs: list, inner_vars: int) -> MPoly:
    out = MPoly.zero(inner_vars)
    for expo, coeff in p.terms.items():
        term = MPoly.const(inner_vars, coeff)
        for s, e in zip(subs, expo):
            term = fraction_mul(term, fraction_pow(s, e))
        out = out + term  # MPoly addition adds Fractions
    return out


def fraction_rem(a: MPoly, b: MPoly) -> MPoly:
    """Long division of a by b in Q[t], one Fraction step per coefficient."""
    rem, bc = univ_coeffs(a), univ_coeffs(b)
    while len(rem) >= len(bc):
        factor, shift = rem[-1] / bc[-1], len(rem) - len(bc)
        for i, c in enumerate(bc):
            rem[shift + i] -= factor * c
        rem.pop()
    return MPoly(1, {(i,): c for i, c in enumerate(rem)})


def fraction_gcd(a: MPoly, b: MPoly) -> MPoly:
    """The Euclidean algorithm in Q[t] with fraction_rem, made monic."""
    while not b.is_zero():
        a, b = b, fraction_rem(a, b)
    if a.is_zero():
        return a
    return a.scale(1 / a.leading_term()[1])


def compose_cases():
    """(p, subs, k): p in 0-3 variables, and one substitution in k = 0-3 variables for each."""
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda nk: st.tuples(
            mpolys(nk[0], max_deg=3, max_terms=4),
            st.lists(mpolys(nk[1], max_deg=2, max_terms=3), min_size=nk[0], max_size=nk[0]),
            st.just(nk[1]),
        )
    )


UNIVARIATE = mpolys(1, max_deg=6, max_terms=6)


class TestIntegerKernelsAgainstFractions:
    @given(poly_triples(max_deg=3, max_terms=5))
    @example((2, MPoly.zero(2), X + MPoly.const(2, F(1, 3)), Y))
    @example((2, MPoly.const(2, F(-2, 7)), X.scale(F(3, 4)) + Y, Y))
    def test_product(self, polys):
        n, a, b, _ = polys
        got = a * b
        assert got == fraction_mul(a, b)
        assert_invariant(got, n)

    @given(st.integers(1, 3).flatmap(lambda n: mpolys(n, max_deg=2, max_terms=4)), st.integers(0, 5))
    @example(MPoly.zero(1), 0)
    @example(MPoly.zero(2), 3)
    @example(MPoly.const(1, F(-3, 2)), 4)
    def test_power(self, a, n):
        got = a**n
        assert got == fraction_pow(a, n)
        assert_invariant(got, a.var_count)

    @given(compose_cases())
    @example((MPoly.const(0, F(5, 3)), [], 0))
    @example((MPoly.zero(0), [], 0))
    @example((MPoly(2, {(2, 1): F(1, 2), (0, 0): 3}), [MPoly.const(0, F(2, 3)), MPoly.const(0, F(-1, 5))], 0))
    @example((MPoly(2, {(2, 1): F(1, 2)}), [MPoly.zero(1), T.scale(F(1, 3))], 1))
    @example((MPoly(1, {(3,): F(4, 9), (1,): 1}), [X.scale(F(3, 2)) + MPoly.const(2, F(1, 6))], 2))
    def test_compose(self, case):
        p, subs, k = case
        got = compose(p, subs)
        assert got == (fraction_compose(p, subs, k) if subs else p)  # no substitution: p, in 0 variables
        assert_invariant(got, k if subs else 0)

    @given(UNIVARIATE, UNIVARIATE)
    @example(MPoly.zero(1), MPoly.zero(1))
    @example(MPoly.zero(1), (T - MPoly.const(1, F(1, 2))).scale(F(-3, 7)))
    @example(MPoly.const(1, F(5, 2)), MPoly.zero(1))
    @example(((T - MPoly.const(1, 2)) ** 2).scale(F(2, 3)), (T**2 - MPoly.const(1, 4)).scale(F(-5, 4)))
    def test_gcd(self, a, b):
        got = univ_gcd(a, b)
        assert got == fraction_gcd(a, b)
        assert_invariant(got, 1)

    @given(UNIVARIATE, UNIVARIATE.filter(lambda b: not b.is_zero()))
    @example(MPoly.zero(1), T.scale(F(1, 2)))
    @example(T**3 + MPoly.const(1, F(1, 3)), MPoly.const(1, F(-2, 5)))
    @example(T.scale(F(7, 4)), T**2 + T)
    def test_remainder(self, a, b):
        got = _univ_rem(a, b)
        assert got == fraction_rem(a, b)
        assert_invariant(got, 1)
