import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import axis_x1_spec, axis_x2_spec, ex_graph_cubic_spec, map_spec, mpolys, pj, univariate_coeffs
from cnull import nullcert, propermaps
from cnull.errors import (
    ComponentNotInFiber,
    CycleDataUnavailable,
    InvalidInput,
    NoSolutionWithinCap,
    NotInIdeal,
    NotStrictlyRegular,
    SchemaError,
    VanishingHypothesisFailed,
)
from cnull.nullcert import (
    Certificate,
    certificate_from_json,
    certificate_to_json,
    certify_fallback,
    certify_general,
    certify_partial,
    certify_proper,
    certify_strictly_regular,
    cycle_degree,
    load_cycle_components,
    split_coeff,
    verify_certificate,
)
from cnull.polycore import MPoly, compose, total_degree, univ_from_coeffs, univ_gcd
from cnull.propermaps import geometric_degree, image_degree
from cnull.nullcert import _solve_exact
from cnull.variety import CAMap, load_map, load_variety, polynomial_map
from cnull import rng as _rng

F = Fraction
V2 = ["x1", "x2"]
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def mk2(terms):
    return MPoly(2, terms)


class TestSplitCoeff:
    def test_lowest_index_rule(self):
        a = mk2({(1, 1): 1, (2, 0): 1})  # y1 y2 + y1^2
        parts = split_coeff(a, 2)
        assert parts[0] == mk2({(0, 1): 1, (1, 0): 1})
        assert parts[1].is_zero()

    def test_cusp_coefficient(self):
        a = MPoly(1, {(1,): -1})  # -y1
        parts = split_coeff(a, 1)
        assert parts[0] == MPoly.const(1, -1)

    def test_not_in_ideal(self):
        a = mk2({(0, 2): 1})  # y2^2
        with pytest.raises(NotInIdeal):
            split_coeff(a, 1)

    def test_reassembly_on_random_ideal_members(self):
        rng = random.Random(31)
        y = [mk2({(1, 0): 1}), mk2({(0, 1): 1})]
        for _ in range(100):
            raw = MPoly(2, {
                (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-9, 9))
                for _ in range(rng.randint(1, 5))
            })
            member = raw * y[rng.randint(0, 1)]  # guaranteed in (y1, y2)
            if member.is_zero():
                continue
            parts = split_coeff(member, 2)
            back = MPoly(2, {})
            for yi, part in zip(y, parts):
                back = back + yi * part
            assert back == member


class TestCertifyProper:
    def test_cusp_certificate(self, cusp_fx, cusp_gyx):
        cert = certify_proper(cusp_fx, cusp_gyx, seed=0)
        assert cert.exponent == 2 and cert.verified
        assert len(cert.h_exprs) == 1
        assert cert.h_exprs[0] == MPoly.const(2, 1)  # h1 = 1 in (y1, t)
        assert verify_certificate(cusp_fx, cusp_gyx, cert)

    def test_parabola_certificate(self, parabola_fx, parabola_gy):
        cert = certify_proper(parabola_fx, parabola_gy, seed=0)
        assert cert.exponent == 1
        assert cert.h_exprs[0] == MPoly(2, {(1, 0): 1})  # h1 = y1
        assert verify_certificate(parabola_fx, parabola_gy, cert)

    def test_zero_g(self, cusp_fx, cusp):
        zero_g = load_map(cusp, map_spec(pj(["x", "y"], {})))
        cert = certify_proper(cusp_fx, zero_g, seed=0)
        assert cert.exponent == 2
        assert all(h.is_zero() for h in cert.h_exprs)
        assert verify_certificate(cusp_fx, zero_g, cert)

    def test_vanishing_failure(self, cusp_fx, cusp):
        g_one = load_map(cusp, map_spec(pj(["x", "y"], {(0, 0): 1, (1, 0): 1})))  # 1 + x
        with pytest.raises(VanishingHypothesisFailed):
            certify_proper(cusp_fx, g_one, seed=0)

    def test_vanishing_is_decided_exactly(self, cline):
        # g = f x^3 vanishes on the zero fiber x = 10^9/3, where |x^3| is about 3.7e25
        f = load_map(cline, map_spec(pj(["x"], {(1,): 3, (0,): -(10**9)})))
        g = load_map(cline, map_spec(pj(["x"], {(4,): 3, (3,): -(10**9)})))
        cert = certify_proper(f, g, seed=0, prec=128)
        assert cert.exponent == 1 and cert.verified
        y1 = MPoly(2, {(1, 0): 1})
        assert cert.h_exprs[0] == (y1 + MPoly.const(2, 10**9)).scale(F(1, 3)) ** 3  # h1 = x^3


    def test_affine_automorphism_with_a_large_constant(self):
        # f = (3 x1 - 10^12, x2) and g = f1 x1^6 + x2: the large constant leaves
        # the exact properness test alone, and the grid samples have heights past
        # any reconstruction bound
        X1, X2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
        f1 = X1.scale(3) - MPoly.const(2, 10**12)
        f, g = polynomial_map([f1, X2]), polynomial_map([f1 * X1**6 + X2])
        cert = certify_proper(f, g, seed=0)
        assert cert.exponent == 1 and cert.verified
        assert verify_certificate(f, g, cert)


class TestCertifyPartial:
    def test_plane_product(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(1, 0): 1}), pj(V2, {(0, 1): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 1): 1})))
        cert = certify_partial(f, 1, g, seed=0)
        assert cert.exponent == 1
        # h1 evaluates to x2 on the set: g = f1 * x2
        assert cert.h_exprs[0] == MPoly(3, {(0, 1, 0): 1})
        assert cert.h_exprs[1].is_zero()
        assert verify_certificate(f, g, cert)

    def test_full_ell_matches_proper(self, cusp_fx, cusp_gyx):
        cert = certify_partial(cusp_fx, 1, cusp_gyx, seed=0)
        proper = certify_proper(cusp_fx, cusp_gyx, seed=0)
        assert cert.exponent == proper.exponent
        assert cert.h_exprs == proper.h_exprs

    def test_not_in_ideal(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(1, 0): 1}), pj(V2, {(0, 1): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(0, 1): 1})))  # x2 misses {x1=0}
        with pytest.raises(NotInIdeal):
            certify_partial(f, 1, g, seed=0)


class TestCertifyGeneral:
    def test_graph_cubic_certificate(self, cubic_proj23, cubic_g):
        cert = certify_general(cubic_proj23, cubic_g, seed=0)
        assert cert.verified
        assert cert.exponent <= 3  # d(f) * deg f(A) = 1 * 3
        assert verify_certificate(cubic_proj23, cubic_g, cert)
        assert cert.theorem == "general" and "vanishing hypothesis" in cert.diagnostics

    def test_d_f_of_the_input_comes_from_the_image_slices(self, cubic_proj23, cubic_g, monkeypatch):
        # d(f) * deg f(A) is read from one slice count, so d(f) itself is never computed
        seen = []
        real = propermaps.geometric_degree

        def recorded(f, *args):
            seen.append(f)
            return real(f, *args)

        monkeypatch.setattr(propermaps, "geometric_degree", recorded)
        cert = certify_general(cubic_proj23, cubic_g, seed=0)
        assert "d(f)*deg f(A) = 3" in cert.diagnostics
        assert seen and all(f is not cubic_proj23 for f in seen)

    def test_square_map_is_not_overdetermined(self, cusp_fx, cusp_gyx):
        with pytest.raises(InvalidInput):
            certify_general(cusp_fx, cusp_gyx, seed=0)

    def test_zero_g(self, cubic_proj23, graph_cubic):
        zero_g = load_map(graph_cubic, map_spec(pj(["x1", "x2", "x3"], {})))
        cert = certify_general(cubic_proj23, zero_g, seed=0)
        assert cert.verified
        assert verify_certificate(cubic_proj23, zero_g, cert)

    def test_composite_degree_law(self, cubic_proj23):
        # d(pi o f) = d(f) * deg f(A) over 10 random draws
        d_f = geometric_degree(cubic_proj23, seed=0)
        deg_x = image_degree(cubic_proj23, seed=0)
        one = MPoly.const(cubic_proj23.domain.m, 1)
        assert all(den == one for _, den in cubic_proj23.components)  # so pi o f is sum alpha_j f_j
        hits = 0
        for attempt in range(10):
            gen = _rng.child_rng(17, f"epi-law:{attempt}")
            alphas = [_rng.rand_rational(gen, height=20) for _ in range(2)]
            if all(a == 0 for a in alphas):
                continue
            num, pull = MPoly.zero(cubic_proj23.domain.m), MPoly.zero(1)
            for alpha, (f_num, _), f_pull in zip(alphas, cubic_proj23.components, cubic_proj23.pullbacks):
                num, pull = num + f_num.scale(alpha), pull + f_pull.scale(alpha)
            composed = CAMap(cubic_proj23.domain, [(num, one)], [pull])
            assert geometric_degree(composed, seed=0) == d_f * deg_x
            hits += 1
        assert hits >= 9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "f_terms, g_terms, expected",
        [
            ([{2: 1}, {3: 1}], {1: 1}, 2),
            ([{4: 1}, {5: 1, 7: 1}], {2: 1, 3: 1}, 2),
            ([{4: 1}, {6: 1, 7: 1}], {1: 1}, 4),
            ([{2: 1, 0: -1}, {2: 2, 0: -2}], {2: 1, 0: -1}, 1),  # f(A) is a line
            ([{2: 1}, {3: 1}], {1: 1, 0: 1}, None),  # g(0) = 1 on f^-1(0) = {0}
        ],
    )
    def test_line_probes(self, cline, f_terms, g_terms, expected, seed):
        f = load_map(cline, map_spec(*(_line(terms) for terms in f_terms)))
        g = load_map(cline, map_spec(_line(g_terms)))
        if expected is None:
            with pytest.raises(VanishingHypothesisFailed):
                certify_general(f, g, seed=seed)
            return
        cert = certify_general(f, g, seed=seed)
        assert cert.exponent == expected and cert.theorem == "general"
        assert verify_certificate(f, g, cert)

    def test_hypothesis_holds_beyond_degree_cap_1(self, cline):
        # f^-1(0) = {0} lies in g^-1(0), yet no certificate has degree cap 1:
        # one fixed cap would turn this case into a false failure
        f = load_map(cline, map_spec(_line({4: 1}), _line({5: 1, 7: 1})))
        g = load_map(cline, map_spec(_line({2: 1, 3: 1})))
        with pytest.raises(NoSolutionWithinCap):
            certify_fallback(f, g, exponent=7, degree_cap=1)
        cert = certify_general(f, g, seed=0)
        assert cert.exponent == 2 and "degree cap 2" in cert.diagnostics

    def test_failed_hypothesis_skips_the_search(self, cline, monkeypatch):
        def search(*args):
            raise AssertionError("the search ran on a failed hypothesis")

        monkeypatch.setattr(nullcert, "certify_fallback", search)
        f = load_map(cline, map_spec(_line({2: 1}), _line({3: 1})))
        g = load_map(cline, map_spec(_line({1: 1, 0: 1})))
        with pytest.raises(VanishingHypothesisFailed):
            certify_general(f, g, seed=0)

    @settings(max_examples=15)
    @given(data=st.data())
    def test_certificate_or_exact_failure(self, cline, data):
        f_polys, g_poly = data.draw(_overdetermined_line_probe())
        f = load_map(cline, map_spec(*(pj(["x"], p.terms) for p in f_polys)))
        g = load_map(cline, map_spec(pj(["x"], g_poly.terms)))
        # f^-1(0) lies in g^-1(0) exactly when the fiber gcd D divides G^deg D
        fiber = univ_gcd(*f.pullbacks)
        e = total_degree(fiber)
        holds = e == 0 or total_degree(univ_gcd(fiber, g.pullbacks[0] ** e)) == e
        seed = data.draw(st.integers(0, 2))
        try:
            cert = certify_general(f, g, seed=seed)
        except VanishingHypothesisFailed:
            assert not holds
            return
        assert holds
        assert cert.exponent <= geometric_degree(f, seed=seed) * image_degree(f, seed=seed)
        loaded = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert, ["x"]))), ["x"])
        assert loaded.exponent == cert.exponent and loaded.h_exprs == cert.h_exprs
        assert verify_certificate(f, g, loaded)


def _line(terms):
    return pj(["x"], {(e,): c for e, c in terms.items()})


@st.composite
def _overdetermined_line_probe(draw):
    """Two components of degree <= 4 on the line, sharing a root r or not, and g with or without x - r."""
    root = univ_from_coeffs([draw(st.integers(-2, 2)), 1])
    shared = draw(st.booleans())
    cofactor = st.one_of(st.integers(-3, 3).filter(bool).map(lambda c: [c]), univariate_coeffs(3))
    if shared:
        f_polys = [root * univ_from_coeffs(draw(cofactor)) for _ in range(2)]
    else:
        f_polys = [univ_from_coeffs(draw(univariate_coeffs(4))) for _ in range(2)]
    g_poly = univ_from_coeffs(draw(cofactor))
    if draw(st.booleans()):
        g_poly = root * g_poly
    return f_polys, g_poly


def _combination(basis, x):
    total = MPoly.zero(2)
    for xi, b in zip(x, basis):
        total = total + b.scale(xi)
    return total


def _dense_solve(basis, rhs):
    """Reference: the same elimination updating every entry of every row."""
    keys = sorted(set(rhs.terms).union(*(b.terms for b in basis)))
    cols = len(basis)
    a = [[b.terms.get(e, F(0)) for b in basis] + [rhs.terms.get(e, F(0))] for e in keys]
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [v - a[i][c] * w for v, w in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
    if any(row[cols] != 0 for row in a[r:]):
        return None
    solution = [F(0)] * cols
    for row, col in pivots:
        solution[col] = a[row][cols]
    return solution


coefficient_vectors = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=6, max_size=6)


@st.composite
def rank_deficient_systems(draw):
    """(basis, rhs): a basis with members that combine others, in random order, and a consistent or random rhs.

    A random rhs over the basis support is mostly outside the span, so
    both the solution and the None answer are drawn.
    """
    base = draw(st.lists(mpolys(2, max_deg=3, max_terms=4), min_size=1, max_size=4))
    combos = draw(st.lists(coefficient_vectors, min_size=1, max_size=3))
    basis = base + [_combination(base, x) for x in combos]
    basis = [basis[i] for i in draw(st.permutations(range(len(basis))))]
    if draw(st.booleans()):
        return basis, _combination(basis, draw(st.lists(_SMALL_FRACTIONS, min_size=len(basis), max_size=len(basis))))
    support = sorted(set().union(*(b.terms for b in basis)))
    return basis, MPoly(2, {e: draw(_SMALL_FRACTIONS) for e in support})


_SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


class TestSolveExact:
    @settings(max_examples=150)
    @given(rank_deficient_systems())
    @example(([MPoly(2, {(1, 0): F(1, 2), (0, 1): 1}), MPoly(2, {(1, 0): 1, (0, 1): 2})], MPoly(2, {(1, 0): 1})))
    @example(([MPoly(2, {(1, 0): F(1, 3)}), MPoly.zero(2), MPoly(2, {(1, 0): F(-2, 9)})], MPoly(2, {(1, 0): F(5, 7)})))
    def test_rank_deficient_and_inconsistent_systems_match_the_fraction_elimination(self, system):
        # the integer elimination picks the same pivots and returns the same solution, or the same None
        basis, rhs = system
        solution = _solve_exact(basis, [rhs])[0]
        assert solution == _dense_solve(basis, rhs)
        if solution is not None:
            assert all(type(v) is F for v in solution)
            assert _combination(basis, solution) == rhs

    @given(st.lists(mpolys(2, max_deg=3, max_terms=4), min_size=1, max_size=6), coefficient_vectors)
    def test_consistent_system_is_solved(self, basis, x):
        rhs = _combination(basis, x)
        solution = _solve_exact(basis, [rhs])[0]
        assert solution is not None
        assert all(type(v) is F for v in solution)
        assert _combination(basis, solution) == rhs
        assert solution == _dense_solve(basis, rhs)

    @given(st.lists(mpolys(2, max_deg=3, max_terms=4), min_size=1, max_size=6), coefficient_vectors,
           st.fractions(min_value=1, max_value=4, max_denominator=4))
    def test_term_outside_every_basis_support_is_inconsistent(self, basis, x, c):
        # degrees of the basis stay <= 3 in each variable, so x^4 is in no support
        rhs = _combination(basis, x) + MPoly(2, {(4, 0): c})
        assert _solve_exact(basis, [rhs]) == [None]
        assert _dense_solve(basis, rhs) is None

    def test_rhs_in_the_support_but_not_the_span(self):
        x, y = MPoly(2, {(1, 0): 1}), MPoly(2, {(0, 1): 1})
        assert _solve_exact([x + y], [x]) == [None]
        assert _solve_exact([x + y, x - y], [x]) == [[F(1, 2), F(1, 2)]]


    @settings(max_examples=100)
    @given(rank_deficient_systems(), st.lists(coefficient_vectors, max_size=3), st.data())
    def test_several_right_hand_sides_solve_as_one_each(self, system, combos, data):
        # one elimination carrying every rhs: each solution is the one of its own elimination
        basis, rhs = system
        extra = mpolys(2, max_deg=4, max_terms=4)
        rhss = [rhs] + [_combination(basis, x) for x in combos] + data.draw(st.lists(extra, max_size=2))
        assert _solve_exact(basis, rhss) == [_dense_solve(basis, r) for r in rhss]


def _per_exponent_fallback(f, g, exponent, degree_cap):
    """(N, h) as the search found them one exponent at a time: the least N whose system solves, and its h_j."""
    subs = list(f.pullbacks) + [g.pullbacks[0]]
    monos = nullcert._monomials_up_to(len(subs), degree_cap)
    values = nullcert._monomial_values(monos, subs, f.domain.param.k)
    basis = [p * values[e] for p in f.pullbacks for e in monos]
    for N in range(1, exponent + 1):
        solution = _dense_solve(basis, g.pullbacks[0] ** N)
        if solution is not None:
            h = [{e: v for e, v in zip(monos, solution[j * len(monos):(j + 1) * len(monos)]) if v} for j in range(f.n)]
            return N, [MPoly(len(subs), terms) for terms in h]
    return None


_T = MPoly.variable(1, 0)
_AT_MOST_LINEAR = st.tuples(st.lists(st.integers(-3, 3), max_size=1), st.integers(-3, 3).filter(bool)).map(
    lambda t: t[0] + [t[1]]
)  # ascending coefficients of a polynomial of degree 0 or 1


class TestCertifyFallback:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 2), _AT_MOST_LINEAR, st.integers(1, 2), _AT_MOST_LINEAR, st.integers(1, 4), st.integers(1, 3),
    )
    def test_one_elimination_matches_the_search_by_exponent(self, a, u, b, w, exponent, cap):
        # f = t^a u(t) and g = t^b w(t) on the line; about half of these draws find a least N in 1 .. 3
        f = polynomial_map([_T**a * univ_from_coeffs(u)])
        g = polynomial_map([_T**b * univ_from_coeffs(w)])
        want = _per_exponent_fallback(f, g, exponent, cap)
        if want is None:
            with pytest.raises(NoSolutionWithinCap):
                certify_fallback(f, g, exponent, degree_cap=cap)
        else:
            cert = certify_fallback(f, g, exponent, degree_cap=cap)
            assert (cert.exponent, cert.h_exprs) == want

    def test_the_benchmark_call_gives_the_recorded_certificate(self):
        # graph_cubic, proj23 and g_sq_minus1 from fixtures/, exponent 2 and degree cap 6;
        # recorded with the elimination over the rationals
        def load(name):
            return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))

        variety = load_variety(load("graph_cubic"))
        f, g = load_map(variety, load("proj23")), load_map(variety, load("g_sq_minus1"))
        cert = certify_fallback(f, g, 2, degree_cap=6)
        assert certificate_to_json(cert, f.domain.ambient_vars) == {
            "N": 1,
            "diagnostics": "",
            "h": [
                {"terms": [{"c": "1", "e": [0, 0, 0]}], "vars": ["y1", "y2", "t"]},
                {"terms": [], "vars": ["y1", "y2", "t"]},
            ],
            "theorem": "fallback",
            "verified": True,
        }

    def test_graph_cubic_direct_identity(self, cubic_proj23, cubic_g):
        cert = certify_fallback(cubic_proj23, cubic_g, exponent=3, degree_cap=4)
        assert cert.verified and cert.exponent <= 3
        assert verify_certificate(cubic_proj23, cubic_g, cert)

    def test_cusp_low_cap(self, cusp_fx, cusp_gyx):
        cert = certify_fallback(cusp_fx, cusp_gyx, exponent=2, degree_cap=1)
        assert cert.exponent == 2
        assert cert.h_exprs[0] == MPoly.const(2, 1)

    def test_no_solution_for_unit(self, cusp_fx, cusp):
        g_one = load_map(cusp, map_spec(pj(["x", "y"], {(0, 0): 1})))
        with pytest.raises(NoSolutionWithinCap):
            certify_fallback(cusp_fx, g_one, exponent=3, degree_cap=3)

    def test_monotone_in_exponent(self, cusp_fx, cusp_gyx):
        for cap_exponent in (2, 3, 4):
            cert = certify_fallback(cusp_fx, cusp_gyx, exponent=cap_exponent, degree_cap=2)
            assert cert.verified and cert.exponent <= cap_exponent

    def test_basis_monomials_are_the_composed_monomials(self, cubic_proj23, cubic_g):
        # built incrementally, each basis monomial is still x^e composed with the substitutions
        subs = list(cubic_proj23.pullbacks) + list(cubic_g.pullbacks)
        monos = nullcert._monomials_up_to(len(subs), 4)
        values = nullcert._monomial_values(monos, subs, subs[0].var_count)
        assert list(values) == monos
        for expo in monos:
            assert values[expo] == compose(MPoly(len(subs), {expo: 1}), subs)


class TestVerifyCertificate:
    def test_cusp_true(self, cusp_fx, cusp_gyx):
        cert = Certificate(2, [MPoly.const(2, 1)], "proper", False)
        assert verify_certificate(cusp_fx, cusp_gyx, cert)

    def test_corrupted(self, cusp_fx, cusp_gyx):
        cert = Certificate(2, [MPoly.const(2, 2)], "proper", False)
        assert not verify_certificate(cusp_fx, cusp_gyx, cert)

    def test_zero_certificate(self, cusp_fx, cusp):
        zero_g = load_map(cusp, map_spec(pj(["x", "y"], {})))
        cert = Certificate(2, [MPoly(2, {})], "proper", False)
        assert verify_certificate(cusp_fx, zero_g, cert)

    def test_idempotent_reverification(self, cusp_fx, cusp_gyx, parabola_fx, parabola_gy):
        for f, g in [(cusp_fx, cusp_gyx), (parabola_fx, parabola_gy)]:
            cert = certify_proper(f, g, seed=0)
            assert cert.verified
            assert verify_certificate(f, g, cert)

    def test_json_roundtrip(self, cusp_fx, cusp_gyx):
        cert = certify_proper(cusp_fx, cusp_gyx, seed=0)
        obj = certificate_to_json(cert)
        back = certificate_from_json(obj)
        assert back.exponent == cert.exponent
        assert back.h_exprs == cert.h_exprs
        assert verify_certificate(cusp_fx, cusp_gyx, back)

    @pytest.mark.parametrize("claim", [True, "false"])
    def test_loaded_certificate_is_not_verified(self, cusp_fx, cusp_gyx, claim):
        obj = certificate_to_json(certify_proper(cusp_fx, cusp_gyx, seed=0))
        assert certificate_from_json({**obj, "verified": claim}).verified is False

    @pytest.mark.parametrize(
        "obj",
        [
            {"N": "two", "h": []},
            {"N": None, "h": []},
            {"N": True, "h": []},
            {"N": 2.9, "h": []},
            {"N": 1, "h": 5},
            {"N": 1, "h": [], "aux_forms": 5},
        ],
    )
    def test_malformed_shapes_raise_schema_error(self, obj):
        with pytest.raises(SchemaError):
            certificate_from_json(obj)

    @pytest.mark.parametrize("N", [-1, "-1"], ids=["int", "str"])
    def test_negative_exponent_is_a_schema_error(self, N):
        # g^N with N < 0 is no polynomial; N = 0 is
        with pytest.raises(SchemaError, match="nonnegative"):
            certificate_from_json({"N": N, "h": []})
        assert certificate_from_json({"N": 0, "h": []}).exponent == 0


class TestStrictlyRegular:
    def test_square_of_coordinate(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))  # x1^2
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))  # x1
        forms = [MPoly(2, {(0, 1): F(1)})]  # x2
        comps = [load_variety(axis_x2_spec())]
        cert = certify_strictly_regular(f, g, forms=forms, cycle=comps, seed=0)
        assert cert.exponent == 2 and cert.verified
        assert cert.h_exprs[0] == MPoly.const(2, 1)
        assert verify_certificate(f, g, cert)

    def test_coordinate_itself(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        comps = [load_variety(axis_x2_spec())]
        cert = certify_strictly_regular(f, g, forms=forms, cycle=comps, seed=0)
        assert cert.exponent == 1
        assert cert.h_exprs[0] == MPoly.const(2, 1)

    def test_cycle_override_below_the_completed_degree(self, plane2):
        # the double line x1^2 = 0 declared simple: cycle degree 1 under d = 2 of (x1^2, x2)
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        with pytest.raises(NotStrictlyRegular, match="below the completed map degree"):
            certify_strictly_regular(f, g, forms=forms, cycle=[(load_variety(axis_x2_spec()), 1)], seed=0)

    def test_auto_forms(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        comps = [load_variety(axis_x2_spec())]
        cert = certify_strictly_regular(f, g, cycle=comps, seed=0)
        assert cert.exponent == 2 and cert.verified

    def test_square_map_is_not_underdetermined(self, cusp_fx, cusp_gyx):
        with pytest.raises(InvalidInput):
            certify_strictly_regular(cusp_fx, cusp_gyx, seed=0)

    def test_missing_cycle_fails_before_the_completion_search(self, plane2, monkeypatch):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        calls = []
        monkeypatch.setattr(nullcert, "check_proper", lambda *args: calls.append(args))
        with pytest.raises(CycleDataUnavailable):
            certify_strictly_regular(f, g, seed=0)
        assert calls == []

    def test_no_proper_completion_within_the_retry_budget(self, plane2, monkeypatch):
        # f = 1: no affine form completes a constant component to a proper map
        f = load_map(plane2, map_spec(pj(V2, {(0, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        drawn = []

        def counted(completed, seed):
            drawn.append(completed.pullbacks[1])
            return propermaps.check_proper(completed, seed)

        monkeypatch.setattr(nullcert, "check_proper", counted)
        with pytest.raises(NotStrictlyRegular, match="retry budget"):
            certify_strictly_regular(f, g, cycle=[load_variety(axis_x2_spec())], seed=0)
        assert len(drawn) == len(set(drawn)) == 5

    def test_expressions_in_the_form_values(self, plane2):
        # g = x1 x2 on the double line x1^2 = 0: h1 needs the value v1 of the form x2
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 1): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        cert = certify_strictly_regular(f, g, forms=forms, cycle=[load_variety(axis_x2_spec())], seed=0)
        assert cert.exponent == 2 and cert.verified
        assert cert.aux_forms == forms
        back = certificate_from_json(certificate_to_json(cert, V2), V2)
        assert back.aux_forms == forms and verify_certificate(f, g, back)


class TestCycleDegree:
    def test_double_line(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))  # x1^2
        forms = [MPoly(2, {(0, 1): F(1)})]
        comps = [load_variety(axis_x2_spec())]
        data = cycle_degree(f, comps, forms, seed=0)
        assert data.total_degree == 2
        assert data.components[0][1] == 2 and data.components[0][2] == 1

    def test_simple_line(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        comps = [load_variety(axis_x2_spec())]
        data = cycle_degree(f, comps, forms, seed=0)
        assert data.total_degree == 1

    def test_component_not_in_fiber(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))  # x1
        forms = [MPoly(2, {(0, 1): F(1)})]
        comps = [load_variety(axis_x1_spec())]  # {x2 = 0} is not in the zero fiber
        with pytest.raises(ComponentNotInFiber):
            cycle_degree(f, comps, forms, seed=0)

    @pytest.mark.parametrize(
        "num, den, reason",
        [
            ({(1, 0): 1, (0, 0): 1}, {(0, 0): 1}, "map component does not vanish"),  # x1 + 1
            ({(2, 0): 1}, {(1, 0): 1}, "denominator vanishes identically"),  # x1^2 / x1
        ],
        ids=["component", "denominator"],
    )
    def test_map_that_does_not_vanish_on_the_component(self, plane2, num, den, reason):
        f = load_map(plane2, map_spec((pj(V2, num), pj(V2, den))))
        forms = [MPoly(2, {(0, 1): F(1)})]
        with pytest.raises(ComponentNotInFiber, match=reason):
            cycle_degree(f, [load_variety(axis_x2_spec())], forms, seed=0)

    @pytest.mark.parametrize("forms, reason", [
        ([], "exactly dim - components"),
        ([MPoly(2, {(0, 2): F(1)})], "affine"),
    ], ids=["count", "non-affine"])
    def test_completion_forms_that_do_not_fit(self, plane2, forms, reason):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        with pytest.raises(InvalidInput, match=reason):
            cycle_degree(f, [load_variety(axis_x2_spec())], forms, seed=0)

    def test_component_in_another_ambient_space(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        with pytest.raises(InvalidInput, match="ambient space"):
            cycle_degree(f, [load_variety(ex_graph_cubic_spec())], forms, seed=0)

    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("cubic", [{(3, 0): 1}, {(3, 0): 1, (2, 1): 1}])
    def test_other_fiber_component_is_not_counted(self, plane2, seed, cubic):
        # the zero fiber of x1^2 + x1^3 (or x1^2 (x1 + x2 + 1)) is {x1 = 0}, doubled,
        # and a second component that the perturbed count must leave out
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1, **cubic})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        comps = [load_variety(axis_x2_spec())]
        assert cycle_degree(f, comps, forms, seed=seed).total_degree == 2

    @pytest.mark.parametrize("seed", [0, 4])
    def test_completion_whose_fiber_point_escapes_is_not_strictly_regular(self, plane2, seed):
        # (x1^2 + x1^3 x2, x2): over y2 = 0 the root x1 = -1/y2 of the fiber escapes
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1, (3, 1): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        with pytest.raises(NotStrictlyRegular):
            cycle_degree(f, [load_variety(axis_x2_spec())], forms, seed=seed)

    def test_multiplicity_override(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        comps = [(load_variety(axis_x2_spec()), 2)]
        data = cycle_degree(f, comps, forms, seed=0)
        assert data.total_degree == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"components": 5},
            {"components": [{"variety": axis_x2_spec(), "multiplicity": True}]},
        ],
    )
    def test_malformed_components_raise_schema_error(self, obj):
        with pytest.raises(SchemaError):
            load_cycle_components(obj)

    def test_exponent_laws(self, cusp_fx, cusp_gyx, cubic_proj23, cubic_g):
        proper = certify_proper(cusp_fx, cusp_gyx, seed=0)
        assert proper.exponent == geometric_degree(cusp_fx, seed=0)
        general = certify_general(cubic_proj23, cubic_g, seed=0)
        target = geometric_degree(cubic_proj23, seed=0) * image_degree(cubic_proj23, seed=0)
        assert general.exponent <= target
