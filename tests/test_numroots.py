import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import mpolys, univariate_coeffs
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
                    assert abs(got - mp.mpf(want.numerator) / want.denominator) < mp.mpf(2) ** -128


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

        def stalls_below_512(poly, prec, start=None):
            z, _ = real(poly, prec, start)
            return z, prec >= 512

        monkeypatch.setattr(numroots, "_aberth", stalls_below_512)
        rs = roots_from_coeffs([F(-2), F(1), F(0), F(1)], 128)
        assert rs.prec == 512 and len(rs.roots) == 3

    def test_unconverged_at_every_rung_exhausts_precision(self, monkeypatch):
        real = numroots._aberth
        monkeypatch.setattr(numroots, "_aberth", lambda poly, prec, start=None: (real(poly, prec, start)[0], False))
        with pytest.raises(PrecisionExhausted) as info:
            roots_from_coeffs([F(-2), F(1), F(0), F(1)], 256)
        assert info.value.exit_code == 3
        assert "did not converge" in str(info.value)

    def test_value_is_the_value_of_value_and_slope(self):
        # the residual checks read q(w) only, from the Horner loop without the derivative
        gen = random.Random(3)
        for degree in (1, 2, 5, 9):
            poly = numroots._scaled([F(gen.randint(-9, 9), gen.randint(1, 9)) for _ in range(degree)] + [F(1)], 128)
            for _ in range(20):
                wr, wi = (gen.randint(-(2 << poly.P), 2 << poly.P) for _ in range(2))
                assert numroots._value(poly, wr, wi) == numroots._value_and_slope(poly, wr, wi)[:2]

    def test_capped_sweeps_are_reported_unconverged(self):
        poly = numroots._scaled([F(c) for c in [5, -3, 1, 0, 2, -7, 1, 4, 0, 1]], 128)
        # start points on the circle |z| = 2, as integer points w = z / 2^s at 2^-P
        shift = poly.P - poly.s
        z = [2 * cmath.exp(1j * math.pi * (2 * k + 1) / 9) for k in range(9)]
        w = [(numroots._fixed(c.real, shift), numroots._fixed(c.imag, shift)) for c in z]
        assert not numroots._fixed_sweeps(poly, w, 2)
        assert not numroots._fixed_backward_stable(poly, w)

    def test_start_circle_has_the_size_of_the_roots(self, monkeypatch):
        # roots of modulus about 1e3 give coefficients up to about 1e24: a
        # start circle of that radius needed 68 mpmath sweeps here; the integer
        # stage starts from the double-precision stage and converges in 5
        roots = [1001, -1002, 1010, -1020, 990, -985, 1040, -960]
        coeffs = [1]
        for r in roots:
            coeffs = _poly_mul(coeffs, [-r, 1])
        real = numroots._fixed_sweeps
        stages = []

        def capped(poly, w, max_iter):
            stages.append(real(poly, w, 5))
            return stages[-1]

        monkeypatch.setattr(numroots, "_fixed_sweeps", capped)
        rs = roots_from_coeffs([F(c) for c in coeffs], 256)
        assert stages == [True]
        assert sorted(int(mp.nint(z.real)) for z in rs.values()) == sorted(roots)
        assert all(close(z, mp.nint(z.real), 1e-60) for z in rs.values())

    def test_stalled_triple_root_counts_as_converged(self):
        # (3x - 1)^3 (x + 2): the sweeps stall at the triple root without
        # meeting the target, but every point is backward stable
        coeffs = _poly_mul(_poly_mul(_poly_mul([-1, 3], [-1, 3]), [-1, 3]), [2, 1])
        rs = roots_from_coeffs([F(c) for c in coeffs], 128)
        assert rs.prec == 128
        assert sorted(m for _, m in rs.roots) == [1, 3]


    @pytest.mark.parametrize(
        "factors",
        [[[5, -1, 0, 1]] * 2, [[-2, 7]] * 4 + [[1, 1]], [[3, 1, 1]] * 3 + [[-5, 1]]],
        ids=["(x^3-x+5)^2", "(7x-2)^4(x+1)", "(x^2+x+3)^3(x-5)"],
    )
    def test_multiple_roots_stop_at_backward_stability(self, monkeypatch, factors):
        # the corrections stall at the rounding level short of 2^-256; the
        # backward-stability test every 8 sweeps ends the run long before the cap of 768
        coeffs = [1]
        for factor in factors:
            coeffs = _poly_mul(coeffs, factor)
        real = numroots._fixed_sweeps
        budget = []

        def counted(poly, w, max_iter):
            budget.append(max_iter)
            return real(poly, w, max_iter)

        monkeypatch.setattr(numroots, "_fixed_sweeps", counted)
        rs = roots_from_coeffs([F(c) for c in coeffs], 256)
        assert rs.prec == 256 and sum(m for _, m in rs.roots) == len(coeffs) - 1
        assert sum(budget) <= 64


def _mp_roots(coeffs, prec):
    """The mpmath stage the integer stage replaced, as a reference: (roots, rung).

    The same ladder, start, stopping rules, clustering and checks, on mp.mpc
    values at wp + 20 bits, with the module's _aberth_sweeps as the sweeps.
    Raises PrecisionExhausted where roots_from_coeffs must too.
    """
    coeffs = list(coeffs)
    while numroots._is_exact_zero(coeffs[-1]):
        coeffs.pop()
    zero_mult = 0
    while numroots._is_exact_zero(coeffs[zero_mult]):
        zero_mult += 1
    for wp in numroots.ladder_from(prec):
        with mp.workprec(wp + 20):
            full = [numroots._to_mpc(c) for c in coeffs]
            pts, converged = _mp_aberth(full[zero_mult:], wp) if len(coeffs) > zero_mult + 1 else ([], True)
            if not converged:
                continue
            tol = mp.mpf(2) ** (-wp // 4) * max([mp.mpf(1)] + [abs(z) for z in pts])
            clusters = _mp_cluster(pts, tol)
            if zero_mult:
                near = [i for i, (rep, _) in enumerate(clusters) if abs(rep) <= tol][:1]
                for i in near:
                    rep, count = clusters[i]
                    clusters[i] = (rep * count / (count + zero_mult), count + zero_mult)
                if not near:
                    clusters.append((mp.mpc(0), zero_mult))
                clusters.sort(key=lambda rc: numroots._root_key(rc[0], tol))
            lead, n = abs(full[-1]), len(full) - 1
            residual = max(abs(numroots._horner(full, rep)) / (lead * (1 + abs(rep)) ** n) for rep, _ in clusters)
            gaps = [abs(a - b) for i, (a, _) in enumerate(clusters) for b, _ in clusters[i + 1:]]
            if residual <= mp.mpf(2) ** (-wp // 8) and all(gap > 4 * tol for gap in gaps):
                return clusters, wp
    raise PrecisionExhausted("reference")


def _mp_aberth(cs, prec):
    d, lead = len(cs) - 1, cs[-1]
    if d == 1:
        return [-cs[0] / lead], True
    if d == 2:
        a, b, c = cs[2], cs[1], cs[0]
        disc = mp.sqrt(b * b - 4 * a * c)
        if mp.re(mp.conj(b) * disc) > 0:
            disc = -disc
        q = -(b - disc) / 2
        return [q / a, c / q if q != 0 else -b / a - q / a], True
    deriv = [cs[i] * i for i in range(1, d + 1)]
    radius = 2 * max(abs(cs[d - j] / lead) ** (mp.mpf(1) / j) for j in range(1, d + 1))
    z = [-cs[d - 1] / (d * lead) + radius * mp.expjpi(2 * (k + mp.mpf("0.354")) / d) for k in range(d)]
    warm = numroots._float_start(cs, deriv, z)
    if warm is not None:
        z = [mp.mpc(w) for w in warm]
    target, cap = mp.mpf(2) ** (-prec), max(200, 3 * prec)
    sizes = [abs(c) for c in cs]
    for done in range(0, cap, 8):
        if numroots._aberth_sweeps(cs, deriv, z, target, min(8, cap - done)) or all(
            abs(numroots._horner(cs, v)) <= target * numroots._horner(sizes, abs(v)) for v in z
        ):
            return z, True
    return z, False


def _mp_cluster(pts, tol):
    groups = []  # single linkage: a point joins, and merges, every group it is near
    for z in pts:
        near = [g for g in groups if any(abs(z - v) <= tol for v in g)]
        groups = [g for g in groups if g not in near] + [sum(near, []) + [z]]
    out = [(sum(g, mp.mpc(0)) / len(g), len(g)) for g in groups]
    return sorted(out, key=lambda rc: numroots._root_key(rc[0], tol))


_HEIGHT = 10**40


@st.composite
def _fraction_coeffs(draw):
    """Degree 3..16, Fraction coefficients of height up to 10^40, some low ones exactly zero."""
    d = draw(st.integers(3, 16))
    zeros = draw(st.integers(0, 2))
    part = st.builds(Fraction, st.integers(-_HEIGHT, _HEIGHT), st.integers(1, _HEIGHT))
    lead = st.builds(Fraction, st.integers(1, _HEIGHT), st.integers(1, _HEIGHT))
    return [Fraction(0)] * zeros + draw(st.lists(part, min_size=d - zeros, max_size=d)) + [draw(lead)]


@st.composite
def _mpc_coeffs(draw):
    """Degree 3..16, mpc coefficients at 256 bits before a leading 1."""
    d = draw(st.integers(3, 16))
    parts = draw(st.lists(st.tuples(st.integers(-_HEIGHT, _HEIGHT), st.integers(-_HEIGHT, _HEIGHT),
                                    st.integers(1, 10**20)), min_size=d, max_size=d))
    with mp.workprec(256):
        return [mp.mpc(mp.mpf(a) / c, mp.mpf(b) / c) for a, b, c in parts] + [1]


def _product(*factors):
    out = [1]
    for factor in factors:
        out = _poly_mul(out, factor)
    return [F(c) for c in out]


class TestIntegerStage:
    """roots_from_coeffs against the mpmath stage it replaced (_mp_roots)."""

    @staticmethod
    def _matches(coeffs, prec):
        try:
            want, rung = _mp_roots(coeffs, prec)
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                roots_from_coeffs(coeffs, prec)
            return
        got = roots_from_coeffs(coeffs, prec)
        assert got.prec == rung
        assert [m for _, m in got.roots] == [m for _, m in want]
        with mp.workprec(rung + 20):
            scale = max([1] + [abs(r) for r, _ in want])
            for (z, m), (r, _) in zip(got.roots, want):
                # simple roots to 2^-(prec - 16) relative to 1 + |r|; clusters in order, to their tolerance
                tol = mp.mpf(2) ** -(rung - 16) * (1 + abs(r)) if m == 1 else mp.mpf(2) ** (-rung // 4) * scale
                assert abs(z - r) <= tol

    @settings(max_examples=20, deadline=None)
    @given(_fraction_coeffs(), st.sampled_from([128, 256]))
    @example(_product([5, -1, 0, 1], [5, -1, 0, 1]), 256)  # (x^3 - x + 5)^2
    @example(_product(*[[-2, 7]] * 4, [1, 1]), 128)  # (7x - 2)^4 (x + 1)
    @example(_product(*[[3, 1, 1]] * 3, [-5, 1]), 256)  # (x^2 + x + 3)^3 (x - 5)
    @example(_product([0, 1], [0, 1], [-1, 3], [-1, 3], [2, 1]), 128)  # x^2 (3x - 1)^2 (x + 2)
    # roots 10^-20 apart merge into one cluster; 10^-6 apart they stay two
    @example(_product([-1, 1], [-(10**20 + 1), 10**20], [3, 1]), 128)
    @example(_product([-1, 1], [-(10**6 + 1), 10**6], [3, 1], [1, 0, 1]), 256)
    def test_fraction_coefficients(self, coeffs, prec):
        self._matches(coeffs, prec)

    @settings(max_examples=15, deadline=None)
    @given(_mpc_coeffs(), st.sampled_from([128, 256]))
    def test_mpc_coefficients(self, coeffs, prec):
        self._matches(coeffs, prec)


def _recorded_starts(monkeypatch, converged_at=lambda prec: True):
    """The start handed to every _aberth run from here on; converged_at(prec) overrides its verdict."""
    real = numroots._aberth
    starts = []

    def recorded(poly, prec, start=None):
        starts.append(start)
        w, converged = real(poly, prec, start)
        return w, converged and converged_at(prec)

    monkeypatch.setattr(numroots, "_aberth", recorded)
    return starts


def _points(rs):
    """One point per root of a RootSet: each representative, as often as it counts."""
    return [z for z, m in rs.roots for _ in range(m)]


CUBIC = [F(-2), F(1), F(0), F(1)]  # x^3 + x - 2, of roots 1 and (-1 +- i sqrt 7) / 2


class TestWarmStart:
    """roots_from_coeffs from given start points, as the second solve of a curve grid node."""

    def test_start_replaces_the_double_precision_stage(self, monkeypatch):
        start = _points(roots_from_coeffs(CUBIC, 128))
        cold = roots_from_coeffs(CUBIC, 256)
        floats = []
        real = numroots._float_start
        monkeypatch.setattr(numroots, "_float_start", lambda *args: floats.append(1) or real(*args))
        starts = _recorded_starts(monkeypatch)
        warm = roots_from_coeffs(CUBIC, 256, start)
        assert starts == [start] and floats == []
        assert warm.prec == cold.prec == 256
        assert [m for _, m in warm.roots] == [m for _, m in cold.roots] == [1, 1, 1]
        assert all(close(z, r, 1e-70) for z, r in zip(warm.values(), cold.values()))

    @pytest.mark.parametrize("length", [2, 4])
    def test_a_start_of_the_wrong_length_starts_cold(self, monkeypatch, length):
        start = (_points(roots_from_coeffs(CUBIC, 128)) * 2)[:length]
        cold = roots_from_coeffs(CUBIC, 256)
        starts = _recorded_starts(monkeypatch)
        assert roots_from_coeffs(CUBIC, 256, start) == cold
        assert starts == [None]

    def test_a_start_with_the_stripped_zero_roots_starts_cold(self, monkeypatch):
        # x^2 (x^3 + x - 2): the solve runs on the cubic, so only three points start it
        coeffs = [F(0), F(0)] + CUBIC
        five, three = _points(roots_from_coeffs(coeffs, 128)), _points(roots_from_coeffs(CUBIC, 128))
        assert len(five) == 5
        starts = _recorded_starts(monkeypatch)
        cold = roots_from_coeffs(coeffs, 256)
        assert roots_from_coeffs(coeffs, 256, five) == cold
        warm = roots_from_coeffs(coeffs, 256, three)
        assert starts == [None, None, three]
        assert [m for _, m in warm.roots] == [m for _, m in cold.roots] == [1, 1, 2, 1]

    def test_coincident_start_points_start_cold(self):
        # (x - 4)^3 from its 128-bit cluster, three times: from one point the corrections vanish
        # at once, and the run would stop at the start's error of about 1e-15
        coeffs = [F(-64), F(48), F(-12), F(1)]
        start = _points(roots_from_coeffs(coeffs, 128))
        assert len(start) == 3 and len(set(start)) == 1
        assert roots_from_coeffs(coeffs, 256, start) == roots_from_coeffs(coeffs, 256)

    def test_an_unconverged_first_rung_retries_the_next_rung_cold(self, monkeypatch):
        start = _points(roots_from_coeffs(CUBIC, 128))
        starts = _recorded_starts(monkeypatch, converged_at=lambda prec: prec > 256)
        rs = roots_from_coeffs(CUBIC, 256, start)
        assert starts == [start, None]
        assert rs.prec == 512 and len(rs.roots) == 3

    @settings(max_examples=40, deadline=None)
    @given(univariate_coeffs(8))
    @example([-1, 3, -3, 1])  # (x - 1)^3
    @example([4, 0, -4, 0, 1])  # (x^2 - 2)^2
    def test_warm_and_cold_runs_agree(self, coeffs):
        # the representatives of a 128-bit solve start a 256-bit one (a multiple root's, repeated,
        # start it cold): the counts are the cold run's, and the roots agree within the rung's
        # cluster tolerance
        coeffs = [F(c) for c in coeffs]
        assume(coeffs[0] != 0)
        cold = roots_from_coeffs(coeffs, 256)
        warm = roots_from_coeffs(coeffs, 256, _points(roots_from_coeffs(coeffs, 128)))
        assert warm.prec == cold.prec
        assert [m for _, m in warm.roots] == [m for _, m in cold.roots]
        with mp.workprec(warm.prec + 20):
            scale = max([1] + [abs(r) for r in cold.values()])
            tol = mp.mpf(2) ** (-warm.prec // 4) * scale
            for (z, m), (r, n) in zip(warm.roots, cold.roots):
                assert m == n and abs(z - r) <= tol


class TestCluster:
    # points are (re, im) integer pairs; here one unit of them is 2^-40
    def test_two_groups(self):
        pts = [(1 << 40, 0), ((1 << 40) + 1, 0), (5 << 40, 0)]
        cl = cluster(pts, 1 << 20)
        assert [c for _, c in cl] == [2, 1]
        assert cl[0][0] == (1 << 40, 0)  # the mean, rounded down

    def test_empty(self):
        assert cluster([], 1) == []

    def test_sqrt_pair(self):
        root = math.isqrt(7 << 80)  # sqrt(7) at 2^-40
        assert len(cluster([(root, 0), (-root, 0)], 1 << 10)) == 2

    def test_distance_is_euclidean(self):
        # (3, 4) is 5 from the origin: one cluster at tolerance 5, two at 4
        assert [c for _, c in cluster([(0, 0), (3, 4)], 5)] == [2]
        assert [c for _, c in cluster([(0, 0), (3, 4)], 4)] == [1, 1]

    def test_order_rounds_the_real_part_to_tol(self):
        # real parts 0 and 1 round to the same multiple of tol = 8: the imaginary part decides
        assert [p for p, _ in cluster([(1, 100), (0, -100)], 8)] == [(0, -100), (1, 100)]

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


def _fraction_reconstruct(v, height_bound, prec):
    """rational_reconstruct's continued fraction run on Fractions, as an independent reference."""
    re_part, im_part = v.real, v.imag
    tol = mp.mpf(2) ** (-prec // 2) * max(1, abs(re_part) + abs(im_part))
    if abs(im_part) > tol:
        raise NonReal("imaginary part")
    x, tol_f = (F(m) * F(2) ** e for m, e in (numroots._dyadic(part._mpf_) for part in (re_part, tol)))
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(x // 1), 1
    a = x - (x // 1)
    while True:
        cand = F(p_cur, q_cur)
        if abs(p_cur) <= height_bound and q_cur <= height_bound and abs(x - cand) <= tol_f:
            return cand
        if abs(p_cur) > height_bound or q_cur > height_bound:
            raise NoReconstruction("height")
        if a == 0:
            return cand
        x_next = 1 / a
        digit = int(x_next // 1)
        a = x_next - digit
        p_cur, p_prev = digit * p_cur + p_prev, p_cur
        q_cur, q_prev = digit * q_cur + q_prev, q_cur


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NoReconstruction, NonReal) as exc:
        return type(exc)


class TestRationalReconstructDifferential:
    @pytest.mark.parametrize("prec", [64, 128, 256, 512])
    def test_integer_convergents_equal_the_fraction_run(self, prec):
        # rationals of every height around the bound, with noise below, near and above the
        # tolerance, small imaginary parts, dyadic and huge values, and zero
        rng = random.Random(prec)
        cases = [(mp.mpc(0), 10), (mp.mpc(2) ** 300, 10**100), (mp.mpc(-2) ** -40, 10**20)]
        with mp.workprec(prec + 20):
            for _ in range(500):
                height = 10 ** rng.randint(1, prec // 8)
                top = height * rng.choice([1, 1, 10])
                q = F(rng.randint(-top, top), rng.randint(1, top))
                noise = mp.mpf(2) ** -rng.randint(prec // 2 - 8, prec // 2 + 8) * rng.choice([-1, 0, 1])
                imag = mp.mpf(2) ** -rng.randint(prec // 2 - 4, prec + 4) * rng.choice([0, 1])
                v = mp.mpc(mp.mpf(q.numerator) / q.denominator + noise, imag)
                cases.append((v, height))
                cases.append((mp.mpc(mp.mpf(rng.random()) * 10 ** rng.randint(-5, 20)), height))
        outcomes = [
            (_outcome(rational_reconstruct, v, h, prec), _outcome(_fraction_reconstruct, v, h, prec))
            for v, h in cases
        ]
        assert all(new == old for new, old in outcomes)
        assert {new if isinstance(new, type) else F for new, _ in outcomes} == {F, NoReconstruction, NonReal}


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
    from cnull.polycore import evaluator

    at = evaluator([p, q, _partial(p, 0), _partial(p, 1), _partial(q, 0), _partial(q, 1)])
    rng = random.Random(99)
    found = []
    for _ in range(starts):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ok = False
        for _ in range(iters):
            fv, gv, a, b, c, d = at([x, y])
            if abs(fv) + abs(gv) < 1e-13:
                ok = True
                break
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


@st.composite
def _small_mpc_coeffs(draw):
    """Degree 1..6, mpc coefficients with parts a/c, b/c at 256 bits before a leading 1."""
    d = draw(st.integers(1, 6))
    parts = draw(st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99), st.integers(1, 7)), min_size=d, max_size=d))
    with mp.workprec(256):
        return [mp.mpc(mp.mpf(a) / c, mp.mpf(b) / c) for a, b, c in parts] + [1]


class TestRootSetFixedPoint:
    """RootSet keeps its clusters in fixed point, and builds the mpc roots the solve used to build."""

    @settings(max_examples=25, deadline=None)
    @given(univariate_coeffs(8) | _small_mpc_coeffs(), st.sampled_from([128, 256]))
    def test_roots_round_as_the_mpc_they_replaced(self, coeffs, prec):
        rs = roots_from_coeffs(coeffs, prec)
        with mp.workprec(rs.prec + 20):
            want = [mp.mpc(mp.ldexp(re, rs.exp), mp.ldexp(im, rs.exp)) for (re, im), _ in rs.clusters]
        assert [z._mpc_ for z in rs.values()] == [z._mpc_ for z in want]
        assert [m for _, m in rs.roots] == [m for _, m in rs.clusters]

    def test_zero_roots_give_mpc_zero(self):
        rs = roots_from_coeffs([F(0), F(0), F(0), F(1)], 256)
        assert rs.roots == [(mp.mpc(0), 3)] and type(rs.roots[0][0]) is mp.mpc
        assert rs.values() == [mp.mpc(0)]
