import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mpolys
from cnull import numroots
from cnull.errors import NonReal, NonZeroDimensional, NoReconstruction, PrecisionExhausted
from cnull.numroots import (
    cluster,
    rational_reconstruct,
    roots_from_coeffs,
    roots_univariate,
    solve_system_2,
)
from cnull.polycore import MPoly, sylvester_resultant

F = Fraction
T = MPoly(1, {(1,): 1})


def close(a, b, tol=1e-25):
    return abs(mp.mpc(a) - mp.mpc(b)) < tol


class TestRootsUnivariate:
    def test_two_simple_roots(self):
        rs = roots_univariate(T**2 - MPoly.const(1, 4))
        vals = sorted(rs.values(), key=lambda z: mp.re(z))
        assert len(vals) == 2
        assert close(vals[0], -2) and close(vals[1], 2)
        assert all(m == 1 for _, m in rs.roots)

    def test_double_root(self):
        p = (T - MPoly.const(1, 1)) ** 2
        rs = roots_univariate(p)
        assert len(rs.roots) == 1
        root, mult = rs.roots[0]
        assert mult == 2 and close(root, 1, tol=1e-15)

    def test_shifted(self):
        rs = roots_univariate(T**2 - MPoly.const(1, 9))
        vals = sorted(rs.values(), key=lambda z: mp.re(z))
        assert close(vals[0], -3) and close(vals[1], 3)

    def test_zero_root_multiplicity(self):
        p = T**3 * (T - MPoly.const(1, 2))
        rs = roots_univariate(p)
        by_mult = {m: v for v, m in rs.roots}
        assert set(by_mult) == {3, 1}
        assert close(by_mult[3], 0, tol=1e-15) and close(by_mult[1], 2)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            roots_univariate(MPoly.const(1, 3))

    def test_higher_degree_product_reconstruction(self):
        rng = random.Random(23)
        for _ in range(10):
            deg = rng.randint(2, 8)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)] + [F(1)]
            if all(c == 0 for c in coeffs[:-1]):
                coeffs[0] = F(1)
            rs = roots_from_coeffs(coeffs, 256)
            with mp.workprec(300):
                prod = [mp.mpc(1)]
                for root, mult in rs.roots:
                    for _ in range(mult):
                        prod = _mul_linear(prod, root)
                for got, want in zip(prod, coeffs):
                    assert abs(got - mp.mpf(want.numerator) / want.denominator) < max(
                        1e-20, rs.residual_bound * 1e6
                    )


def _mul_linear(coeffs, root):
    out = [mp.mpc(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += c * (-root)
        out[i + 1] += c
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _oracle_roots(coeffs):
    """Roots of an ascending integer coefficient list by mpmath.polyroots at 100 digits."""
    with mp.workdps(100):
        return list(mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=200))


def _integer_poly(degree):
    # ascending coefficients with a nonzero leading one
    return st.tuples(
        st.lists(st.integers(-20, 20), min_size=degree, max_size=degree),
        st.integers(-20, 20).filter(bool),
    ).map(lambda t: t[0] + [t[1]])


@st.composite
def _factored_polys(draw):
    """(coeffs, [(factor, power)]): a product A * B^m of integer polynomials.

    The degree is 3..16, and at most 8 when m > 1: the sweeps stall at a
    multiple root and run to their cap, so those cases cost the most.
    """
    m = draw(st.sampled_from([1, 2, 3]))
    b = draw(st.integers(1, 2).flatmap(_integer_poly))
    top = 16 if m == 1 else 8
    a_deg = draw(st.integers(max(1, 3 - m * (len(b) - 1)), top - m * (len(b) - 1)))
    a = draw(_integer_poly(a_deg))
    coeffs = a
    for _ in range(m):
        coeffs = _poly_mul(coeffs, b)
    return coeffs, [(a, 1), (b, m)]


class TestRootProperties:
    """Random integer polynomials against mpmath.polyroots on their factors."""

    @settings(max_examples=15)
    @given(_factored_polys())
    def test_roots_match_polyroots_with_multiplicity(self, case):
        coeffs, factors = case
        rs = roots_from_coeffs([F(c) for c in coeffs], 128)
        assert sum(m for _, m in rs.roots) == len(coeffs) - 1
        oracle = [(r, power) for factor, power in factors for r in _oracle_roots(factor)]
        with mp.workprec(300):
            for rep, mult in rs.roots:
                tol = mp.mpf(2) ** (-rs.prec // 4) * (1 + abs(rep))
                assert sum(power for r, power in oracle if abs(r - rep) <= tol) == mult

    @pytest.mark.parametrize(
        "coeffs,log_scale",
        [
            # 10^400 (x^3 - 2): no coefficient is a finite double
            ([F(-2 * 10**400), 0, 0, F(10**400)], 0),
            # 10^-400 x^3 - 2: the leading coefficient underflows to 0.0
            ([F(-2), 0, 0, F(1, 10**400)], 400),
        ],
    )
    def test_circle_start_when_doubles_cannot_hold_the_coefficients(self, coeffs, log_scale):
        with mp.workprec(276):
            cs = [numroots._to_mpc(c) for c in coeffs]
            deriv = [cs[i] * i for i in range(1, len(cs))]
            assert numroots._float_start(cs, deriv, [mp.mpc(1), mp.mpc(-1), mp.mpc(1j)]) is None
        rs = roots_from_coeffs(coeffs, 256)
        assert rs.prec == 256 and [m for _, m in rs.roots] == [1, 1, 1]
        with mp.workprec(276):
            # the roots are the cube roots of 2 * 10^log_scale
            scale = mp.cbrt(mp.mpf(10) ** log_scale)
            want = [scale * mp.cbrt(2) * mp.expjpi(mp.mpf(2 * k) / 3) for k in range(3)]
            for root in rs.values():
                assert min(abs(root - w) for w in want) < 1e-60 * scale


class TestAberthConvergence:
    def test_unconverged_rung_moves_up_the_ladder(self, monkeypatch):
        real = numroots._aberth

        def stalls_below_512(coeffs, prec):
            z, _ = real(coeffs, prec)
            return z, prec >= 512

        monkeypatch.setattr(numroots, "_aberth", stalls_below_512)
        rs = roots_from_coeffs([F(-2), F(1), F(0), F(1)], 128)
        assert rs.prec == 512 and len(rs.roots) == 3

    def test_unconverged_at_every_rung_exhausts_precision(self, monkeypatch):
        real = numroots._aberth
        monkeypatch.setattr(numroots, "_aberth", lambda coeffs, prec: (real(coeffs, prec)[0], False))
        with pytest.raises(PrecisionExhausted) as info:
            roots_from_coeffs([F(-2), F(1), F(0), F(1)], 256)
        assert info.value.exit_code == 3
        assert "did not converge" in str(info.value)

    def test_capped_sweeps_are_reported_unconverged(self):
        with mp.workprec(148):
            cs = [mp.mpc(c) for c in [5, -3, 1, 0, 2, -7, 1, 4, 0, 1]]
            deriv = [cs[i] * i for i in range(1, len(cs))]
            z = [mp.mpc(2) * mp.expjpi(mp.mpf(2 * k + 1) / 9) for k in range(9)]
            target = mp.mpf(2) ** -128
            assert not numroots._aberth_sweeps(cs, deriv, z, target, 2)
            assert not numroots._backward_stable(cs, z, target)

    def test_start_circle_has_the_size_of_the_roots(self, monkeypatch):
        # roots of modulus about 1e3 give coefficients up to about 1e24: a
        # start circle of that radius needed 68 mpmath sweeps here
        roots = [1001, -1002, 1010, -1020, 990, -985, 1040, -960]
        coeffs = [1]
        for r in roots:
            coeffs = _poly_mul(coeffs, [-r, 1])
        real = numroots._aberth_sweeps
        mp_stages = []

        def capped(coeffs, deriv, z, target, max_iter):
            if isinstance(target, float):  # the double-precision stage
                return real(coeffs, deriv, z, target, max_iter)
            mp_stages.append(real(coeffs, deriv, z, target, 5))
            return mp_stages[-1]

        monkeypatch.setattr(numroots, "_aberth_sweeps", capped)
        rs = roots_from_coeffs([F(c) for c in coeffs], 256)
        assert mp_stages == [True]
        assert sorted(int(mp.nint(z.real)) for z in rs.values()) == sorted(roots)
        assert all(close(z, mp.nint(z.real), 1e-60) for z in rs.values())

    def test_stalled_triple_root_counts_as_converged(self):
        # (3x - 1)^3 (x + 2): the sweeps stall at the triple root without
        # meeting the target, but every point is backward stable
        coeffs = _poly_mul(_poly_mul(_poly_mul([-1, 3], [-1, 3]), [-1, 3]), [2, 1])
        rs = roots_from_coeffs([F(c) for c in coeffs], 128)
        assert rs.prec == 128
        assert sorted(m for _, m in rs.roots) == [1, 3]


class TestCluster:
    def test_two_groups(self):
        pts = [mp.mpc(1.0), mp.mpc(1.0 + 1e-12), mp.mpc(5.0)]
        cl = cluster(pts, 1e-6)
        assert [c for _, c in cl] == [2, 1]

    def test_empty(self):
        assert cluster([], 0.1) == []

    def test_sqrt_pair(self):
        c = 7
        pts = [mp.sqrt(mp.mpc(c)), -mp.sqrt(mp.mpc(c))]
        assert len(cluster(pts, 1e-10)) == 2

    def test_conjugate_order_does_not_depend_on_precision(self):
        # (x^3 - x + 5)^2: the pair 0.952 +- 1.311i shares its real part up
        # to rounding noise, which must not decide the order of the pair
        coeffs = [F(c) for c in _poly_mul([5, -1, 0, 1], [5, -1, 0, 1])]
        orders = []
        for prec in (128, 256):
            roots = roots_from_coeffs(coeffs, prec).values()
            orders.append([(round(float(r.real), 9), round(float(r.imag), 9)) for r in roots])
        assert orders[0] == orders[1]


class TestRationalReconstruct:
    def test_third(self):
        with mp.workprec(256):
            v = mp.mpf(1) / 3
        assert rational_reconstruct(v, 10**6, 256) == F(1, 3)

    def test_minus_one(self):
        assert rational_reconstruct(mp.mpc(-1.0), 10**6, 256) == F(-1)

    def test_fiber_sample(self):
        with mp.workprec(256):
            v = -mp.sqrt(mp.mpf(2)) * mp.sqrt(mp.mpf(2))
        assert rational_reconstruct(v, 10**6, 256) == F(-2)

    def test_no_reconstruction(self):
        with mp.workprec(256):
            v = mp.sqrt(mp.mpf(2))
        with pytest.raises(NoReconstruction):
            rational_reconstruct(v, 10**4, 256)

    def test_non_real(self):
        with pytest.raises(NonReal):
            rational_reconstruct(mp.mpc(1, 1), 100, 256)

    def test_identity_on_small_heights(self):
        rng = random.Random(5)
        with mp.workprec(256):
            for _ in range(200):
                q = F(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
                v = mp.mpf(q.numerator) / q.denominator
                assert rational_reconstruct(v, 10**4, 256) == q


class TestSolveSystem2:
    def test_circle_line(self):
        x = MPoly(2, {(1, 0): 1})
        y = MPoly(2, {(0, 1): 1})
        circle = x**2 + y**2 - MPoly.const(2, 1)
        sols = solve_system_2(circle, x - y)
        assert len(sols) == 2
        with mp.workprec(300):
            want = mp.sqrt(mp.mpf(2)) / 2
            got = sorted((mp.re(a), mp.re(b)) for a, b in sols)
            assert abs(got[0][0] + want) < 1e-25 and abs(got[1][0] - want) < 1e-25
            for a, b in sols:
                assert abs(a - b) < 1e-25

    def test_axes(self):
        x = MPoly(2, {(1, 0): 1})
        y = MPoly(2, {(0, 1): 1})
        sols = solve_system_2(x, y)
        assert len(sols) == 1
        assert close(sols[0][0], 0, 1e-20) and close(sols[0][1], 0, 1e-20)

    def test_inconsistent(self):
        x = MPoly(2, {(1, 0): 1})
        sols = solve_system_2(x - MPoly.const(2, 1), x - MPoly.const(2, 2))
        assert sols == []

    @pytest.mark.parametrize("prec", [128, 256])
    def test_multiple_x_root_over_a_nonreduced_fiber(self, prec):
        # res_x has a triple root at x = -5/12, where p(x0, y) has the double root y = 0;
        # an x0 known only to a fraction of prec split that root into two points
        p = MPoly(2, {(1, 2): 1, (2, 0): -4, (1, 0): Fraction(-5, 3)})
        q = MPoly(2, {(0, 3): Fraction(-1, 2)})
        sols = solve_system_2(p, q, prec)
        assert len(sols) == 2
        with mp.workprec(prec):
            assert close(sols[0][0], mp.mpf(-5) / 12) and close(sols[0][1], 0)
            assert close(sols[1][0], 0) and close(sols[1][1], 0)

    def test_nonzero_dimensional(self):
        x = MPoly(2, {(1, 0): 1})
        y = MPoly(2, {(0, 1): 1})
        with pytest.raises(NonZeroDimensional):
            solve_system_2(x * y, x)

    def test_common_factor_free_of_y(self):
        # p = x(y - 1), q = x(y + 2): res_x = 0 only through the resultant in x
        x = MPoly(2, {(1, 0): 1})
        y = MPoly(2, {(0, 1): 1})
        one = MPoly.const(2, 1)
        with pytest.raises(NonZeroDimensional, match="free of y"):
            solve_system_2(x * (y - one), x * (y + one.scale(2)))

    @settings(max_examples=40)
    @given(mpolys(2, max_deg=2, max_terms=3), mpolys(2, max_deg=2, max_terms=3),
           mpolys(2, max_deg=1, max_terms=2))
    def test_raises_exactly_when_a_resultant_vanishes(self, a, b, h):
        # differential against both Sylvester resultants; h is a candidate common factor
        p, q = a * h, b * h
        assume(not p.is_zero() and not q.is_zero())
        assume(all(p.degree_in(i) or q.degree_in(i) for i in (0, 1)))
        vanishes = sylvester_resultant(p, q, 1).is_zero() or sylvester_resultant(p, q, 0).is_zero()
        try:
            solve_system_2(p, q, 128)
        except NonZeroDimensional:
            assert vanishes
        else:
            assert not vanishes

    @pytest.mark.parametrize(
        "pq,expected",
        [
            # fixed small systems checked against an independent Newton oracle
            (("x^2+y^2-1", "x-y"), 2),
            (("x^2-y", "y-1"), 2),
            (("x*y-1", "x-y"), 2),
            (("x^2+y^2-1", "x^2-y"), 4),
            (("x^3-y", "x-y"), 3),
            # p(x0, y) vanishes at x0 = 0, so q is solved there
            (("x*y", "x+y-1"), 2),
            # two y's over each x-root, where p(x0, y) vanishes
            (("x^2-1", "y^2-4"), 4),
        ],
    )
    def test_against_newton_oracle(self, pq, expected):
        p = _parse(pq[0])
        q = _parse(pq[1])
        sols = solve_system_2(p, q, 256)
        oracle = _newton_multistart_oracle(p, q)
        assert len(sols) == expected
        assert len(oracle) == expected
        # the oracle works at double precision; match at its resolution
        for s in sols:
            assert any(
                abs(s[0] - o[0]) + abs(s[1] - o[1]) < 1e-6 for o in oracle
            ), f"solution {s} not matched by oracle"


def _parse(text):
    # tiny test-only builder for the fixed oracle systems
    table = {
        "x^2+y^2-1": MPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1}),
        "x-y": MPoly(2, {(1, 0): 1, (0, 1): -1}),
        "x^2-y": MPoly(2, {(2, 0): 1, (0, 1): -1}),
        "y-1": MPoly(2, {(0, 1): 1, (0, 0): -1}),
        "x*y-1": MPoly(2, {(1, 1): 1, (0, 0): -1}),
        "x^3-y": MPoly(2, {(3, 0): 1, (0, 1): -1}),
        "x*y": MPoly(2, {(1, 1): 1}),
        "x+y-1": MPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}),
        "x^2-1": MPoly(2, {(2, 0): 1, (0, 0): -1}),
        "y^2-4": MPoly(2, {(0, 2): 1, (0, 0): -4}),
    }
    return table[text]


def _partial(p, index):
    out = {}
    for e, c in p.terms.items():
        if e[index] > 0:
            ne = list(e)
            ne[index] -= 1
            out[tuple(ne)] = c * e[index]
    return MPoly(2, out)


def _newton_multistart_oracle(p, q, starts=2000, iters=60):
    """Independent solver: damped Newton from many random complex starts."""
    from cnull.polycore import evaluate

    px, py = _partial(p, 0), _partial(p, 1)
    qx, qy = _partial(q, 0), _partial(q, 1)
    rng = random.Random(99)
    found = []
    for _ in range(starts):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ok = False
        for _ in range(iters):
            fv = evaluate(p, [x, y])
            gv = evaluate(q, [x, y])
            if abs(fv) + abs(gv) < 1e-13:
                ok = True
                break
            a, b = evaluate(px, [x, y]), evaluate(py, [x, y])
            c, d = evaluate(qx, [x, y]), evaluate(qy, [x, y])
            det = a * d - b * c
            if abs(det) < 1e-14:
                break
            dx = (fv * d - gv * b) / det
            dy = (a * gv - c * fv) / det
            x, y = x - dx, y - dy
            if abs(x) + abs(y) > 1e6:
                break
        if ok and all(abs(x - fx) + abs(y - fy) > 1e-6 for fx, fy in found):
            found.append((x, y))
    return [(mp.mpc(fx), mp.mpc(fy)) for fx, fy in found]
