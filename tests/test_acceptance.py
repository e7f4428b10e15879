"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line, runs at the stated tolerance (exact
equality unless noted), and enforces the stated runtime budget.
"""

import functools
import random
import time
from fractions import Fraction

from conftest import map_spec, pj
from cnull.charpoly import (
    build_charpoly,
    charpoly_resultant_oracle,
    growth_inclusion_check,
    ploski_delta,
)
from cnull.gradexp import grad_profile, theta, validate_inequality
from cnull.nullcert import (
    certify_general,
    certify_proper,
    certify_strictly_regular,
    split_coeff,
    verify_certificate,
)
from cnull.polycore import NEG_INF, MPoly, compose, distinct_root_count, total_degree
from cnull.propermaps import (
    fiber_poly,
    geometric_degree,
    graph_degree,
    growth_exponent,
)
from cnull.variety import load_map, load_variety

F = Fraction


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {label}")
                raise
            print(f"PASS criterion {num}: {label}")

        return inner

    return wrap


@criterion(1, "cusp certificate N=2, h1=1, exact identity, < 1 s")
def test_criterion_1_cusp_certificate(cusp_fx, cusp_gyx):
    start = time.monotonic()
    cert = certify_proper(cusp_fx, cusp_gyx, seed=0)
    elapsed = time.monotonic() - start
    assert cert.exponent == 2
    assert len(cert.h_exprs) == 1
    h_pullback = compose(cert.h_exprs[0], [cusp_fx.pullbacks[0], cusp_gyx.pullbacks[0]])
    assert h_pullback == MPoly.const(1, 1)
    # g^2(phi) - f(phi) * 1 = 0 exactly in the parameter ring
    assert (cusp_gyx.pullbacks[0] ** 2 - cusp_fx.pullbacks[0]).is_zero()
    assert cert.verified and verify_certificate(cusp_fx, cusp_gyx, cert)
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(2, "characteristic polynomial equals the resultant oracle on 7 fixtures, < 10 s")
def test_criterion_2_oracle_equivalence(
    cusp, cusp_fx, cusp_gyx, cusp_gy, parabola_fx, parabola_gy, cline
):
    start = time.monotonic()
    cline_f_t = load_map(cline, map_spec(pj(["x"], {(1,): 1})))
    cline_f_t2 = load_map(cline, map_spec(pj(["x"], {(2,): 1})))
    cline_g_t2 = load_map(cline, map_spec(pj(["x"], {(2,): 1})))
    cline_g_t3 = load_map(cline, map_spec(pj(["x"], {(3,): 1})))
    cusp_gsum = load_map(cusp, map_spec(pj(["x", "y"], {(1, 0): 1, (0, 1): 1})))
    fixtures = [
        (cusp_fx, cusp_gyx),
        (cusp_fx, cusp_gy),
        (cusp_fx, cusp_gsum),
        (parabola_fx, parabola_gy),
        (cline_f_t, cline_g_t2),
        (cline_f_t2, cline_g_t3),
        (cline_f_t, load_map(cline, map_spec(pj(["x"], {(1,): 1})))),
    ]
    assert len(fixtures) >= 5
    for f, g in fixtures:
        built = build_charpoly(f, g, seed=0)
        oracle = charpoly_resultant_oracle(f, g)
        assert built.d == oracle.d
        assert built.coeffs == oracle.coeffs  # exact rational equality
    cusp_P = build_charpoly(cusp_fx, cusp_gyx, seed=0)
    assert cusp_P.d == 2
    assert cusp_P.coeffs[0].is_zero() and cusp_P.coeffs[1] == MPoly(1, {(1,): -1})
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f} s"


@criterion(3, "graph-of-cubic fixture: geometric degree 1, two preimages of the origin")
def test_criterion_3_example_reproduction(cubic_proj23):
    assert geometric_degree(cubic_proj23, seed=0) == 1
    assert distinct_root_count(fiber_poly(cubic_proj23, [F(0), F(0)])) == 2


@criterion(4, "coefficient degree bounds hold on every fixture; cusp bounds (0, 1), tight at j=2")
def test_criterion_4_degree_bounds(cusp_fx, cusp_gyx, cusp_gy, parabola_fx, parabola_gy, cline):
    cline_f_t = load_map(cline, map_spec(pj(["x"], {(1,): 1})))
    cline_g_t2 = load_map(cline, map_spec(pj(["x"], {(2,): 1})))
    fixtures = [
        (cusp_fx, cusp_gyx),
        (cusp_fx, cusp_gy),
        (parabola_fx, parabola_gy),
        (cline_f_t, cline_g_t2),
    ]
    for f, g in fixtures:
        P = build_charpoly(f, g, seed=0)
        d = P.d
        growth = growth_exponent(g)
        spread = graph_degree(f, seed=0) - d + 1
        for j, a in enumerate(P.coeffs, start=1):
            bound = (F(j) * growth * spread).__floor__()
            deg = total_degree(a)
            assert deg == NEG_INF or deg <= bound
    P = build_charpoly(cusp_fx, cusp_gyx, seed=0)
    assert P.bounds == [0, 1]
    assert total_degree(P.coeffs[0]) == NEG_INF
    assert total_degree(P.coeffs[1]) == 1  # equality at j = 2


@criterion(5, "delta = 1/2 exactly; growth holds at q=1/2 and is violated at q=3/8, < 5 s")
def test_criterion_5_ploski(cusp_fx, cusp_gyx):
    start = time.monotonic()
    P = build_charpoly(cusp_fx, cusp_gyx, seed=0)
    assert ploski_delta(P) == F(1, 2)
    holds = growth_inclusion_check(P, F(1, 2), samples=1000, seed=0)
    assert holds.holds
    violated = growth_inclusion_check(P, F(3, 8), samples=1000, seed=0)
    assert not violated.holds
    assert violated.violation is not None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f} s"


@criterion(6, "gradient profile (2, 1, 1), theta = 1/2 validated, theta = 1 rejected")
def test_criterion_6_gradexp():
    f = MPoly(2, {(2, 0): 1, (0, 2): 1})
    mu, D = grad_profile(f, seed=0)
    assert (int(total_degree(f)), mu, D) == (2, 1, 1)
    exponent = theta(2, D, mu)
    assert exponent == F(1, 2)
    good = validate_inequality(f, exponent, seed=0)
    assert good.validated  # trend tolerance factor 2 across the top two shells
    bad = validate_inequality(f, F(1), seed=0)
    assert not bad.validated


@criterion(7, "degree equals the multiplicity sum over the fibers at 0 and 1")
def test_criterion_7_stoll(cusp_fx):
    # the multiplicity sum over a fiber is the degree of its fiber polynomial
    assert geometric_degree(cusp_fx, seed=0) == 2
    assert fiber_poly(cusp_fx, [F(0)]).degree_in(0) == fiber_poly(cusp_fx, [F(1)]).degree_in(0) == 2


@criterion(8, "strictly regular: cycle degree 2, certificate g^2 = 1*f; square-case law holds")
def test_criterion_8_strictly_regular(plane2, cusp_fx, parabola_fx):
    from conftest import axis_x2_spec

    f = load_map(plane2, map_spec(pj(["x1", "x2"], {(2, 0): 1})))
    g = load_map(plane2, map_spec(pj(["x1", "x2"], {(1, 0): 1})))
    forms = [MPoly(2, {(0, 1): F(1)})]
    comps = [load_variety(axis_x2_spec())]
    cert = certify_strictly_regular(f, g, forms=forms, cycle=comps, seed=0)
    assert cert.exponent == 2
    assert cert.h_exprs[0] == MPoly.const(2, 1)
    assert cert.verified and verify_certificate(f, g, cert)
    # square-case consistency: the cycle degree, the degree of the zero fiber polynomial,
    # equals the geometric degree
    square = load_map(
        plane2, map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1}))
    )
    for proper_map in (cusp_fx, parabola_fx, square):
        zero = [F(0)] * proper_map.n
        assert fiber_poly(proper_map, zero).degree_in(0) == geometric_degree(proper_map, seed=0)


@criterion(9, "overdetermined route yields a verified certificate with N <= 3 and diagnostics, < 30 s")
def test_criterion_9_general_with_fallback(cubic_proj23, cubic_g):
    start = time.monotonic()
    d_f = geometric_degree(cubic_proj23, seed=0)
    from cnull.propermaps import image_degree

    target = d_f * image_degree(cubic_proj23, seed=0)
    assert target == 3
    cert = certify_general(cubic_proj23, cubic_g, seed=0)
    assert cert.verified
    assert cert.exponent <= 3
    assert verify_certificate(cubic_proj23, cubic_g, cert)
    assert "vanishing" in cert.diagnostics
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f} s"


@criterion(10, "grid independence, degree inequality, re-verification, split reassembly")
def test_criterion_10_property_suites(
    cusp_fx, cusp_gyx, cusp_gy, parabola_fx, parabola_gy, cubic_proj23
):
    # grid independence: two disjoint random grids give the same exact polynomial
    P1 = build_charpoly(cusp_fx, cusp_gy, seed=101)
    P2 = build_charpoly(cusp_fx, cusp_gy, seed=202)
    assert P1.d == P2.d and P1.coeffs == P2.coeffs
    # geometric degree never exceeds the graph degree
    for f in (cusp_fx, parabola_fx, cubic_proj23):
        assert geometric_degree(f, seed=0) <= graph_degree(f, seed=0)
    # certificates re-verify idempotently
    for f, g in [(cusp_fx, cusp_gyx), (parabola_fx, parabola_gy)]:
        cert = certify_proper(f, g, seed=0)
        assert cert.verified
        assert verify_certificate(f, g, cert)
        assert verify_certificate(f, g, cert)
    # split reassembly on 100 random members of the ideal (y1, y2)
    rng = random.Random(1009)
    y = [MPoly(2, {(1, 0): 1}), MPoly(2, {(0, 1): 1})]
    checked = 0
    while checked < 100:
        raw = MPoly(
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-9, 9))
                for _ in range(rng.randint(1, 6))
            },
        )
        member = raw * y[rng.randint(0, 1)]
        if member.is_zero() or total_degree(member) > 6:
            continue
        parts = split_coeff(member, 2)
        back = MPoly(2, {})
        for yi, part in zip(y, parts):
            back = back + yi * part
        assert back == member
        checked += 1
