"""Arbitrary-precision numerics: complex roots, clustering, reconstruction.

Root finding is Aberth-Ehrlich simultaneous iteration run on a
doubling-precision ladder, in fixed point on a power-of-two root scale
(as in MPSolve).  Each rung converts the coefficients once into Gaussian
integers: the roots of p are 2^s times those of the monic
q(w) = p(2^s w) / (lead 2^(s d)), with 2^s read from the binary exponents
of Fujiwara's bound on the root moduli, so that q's coefficients have
modulus at most 1; q and the points w are (re, im) pairs of Python ints at
2^-P (see _scaled).  The iteration, its backward-stability test, the
clustering and the cluster checks all run on these integers, comparing
squared norms; mpmath only reads the inputs.  The RootSet returned keeps
the cluster representatives in that fixed point and builds them as mpc
on first read.  Unless the caller gives starting points, each run first
does the same iteration in double precision (Python complex) from a
circle of radius 2^s; that
stage only picks the starting points of the integer iteration, and when
it overflows or leaves the finite range the integer iteration starts
from the circle.  A caller's starting
points, such as the roots of a solve at a lower rung (MPSolve refines
its approximations the same way when it raises the precision; Bini and
Robol 2014), replace that stage on the first rung only.
The integer iteration stops when every correction is below 2^-prec, when
every point is a root of a polynomial within relative 2^-prec of the input
(tested every 8 sweeps), or at its sweep cap.  A run that reaches the cap
has not converged: its rung counts as ambiguous, and at the top of the
ladder PrecisionExhausted is raised.  Precision is expressed in bits;
results at a given precision are deterministic (no randomness enters the
iteration).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import NonReal, NonZeroDimensional, NoReconstruction, PrecisionExhausted
from .polycore import (
    MPoly,
    coeffs_in_var,
    drop_var,
    evaluator,
    exact_divide,
    sylvester_resultant,
    total_degree,
    univ_coeffs,
    univ_derivative,
    univ_gcd,
)

PREC_LADDER = (128, 256, 512, 1024)


@dataclass(frozen=True)
class RootSet:
    """Distinct roots with multiplicities, which sum to the degree, and the rung that found them.

    The roots stay in the fixed point of the solve: cluster i is the root
    (re + i im) 2^exp of multiplicity count, for ((re, im), count) =
    clusters[i].  roots, the pairs (mp.mpc, count), is built on first read,
    with each part rounded to prec + 20 bits.
    """

    clusters: list  # list of ((re, im), count), re and im ints
    exp: int
    prec: int

    @cached_property
    def roots(self) -> list:
        prec = self.prec + 20
        return [
            (mp.make_mpc((from_man_exp(re, self.exp, prec, "n"), from_man_exp(im, self.exp, prec, "n"))), count)
            for (re, im), count in self.clusters
        ]

    def values(self) -> list:
        return [r for r, _ in self.roots]


def ladder_from(prec: int):
    """The rungs of PREC_LADDER from the first one >= prec (the top rung when none is)."""
    start = next((i for i, p in enumerate(PREC_LADDER) if p >= prec), len(PREC_LADDER) - 1)
    return PREC_LADDER[start:]


def _to_mpc(value) -> mp.mpc:
    if isinstance(value, Fraction):
        return mp.mpc(mp.mpf(value.numerator) / mp.mpf(value.denominator))
    return mp.mpc(value)


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


# ---------------------------------------------------------------------------
# the scaled polynomial in Gaussian integers

_GUARD = 32  # bits of the fixed point beyond the rung's precision


@dataclass(frozen=True)
class _Scaled:
    """The monic q(w) = p(2^s w) / (lead 2^(s d)) of p, in Gaussian integers at 2^-P.

    A point w is held as the pair (re, im) of ints with w = (re + i im) 2^-P,
    and z = 2^s w is the matching root of p; one unit of z is 2^(P-s).
    """

    coeffs: list  # p's coefficients as given, for the double-precision stage
    desc: list  # q_{d-1} .. q_0 as (re, im) pairs
    sizes: list  # |q_d| .. |q_0|, rounded down
    s: int
    P: int
    wp: int


def _exact(c):
    """(re, im, den) with c = (re + i im) / den exactly and den > 0."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, 0, c.denominator
    if isinstance(c, mp.mpf):
        parts = (c._mpf_, mp.mpf(0)._mpf_)
    else:  # mpc(c) is exact for a Python float or complex
        parts = (c if isinstance(c, mp.mpc) else mp.mpc(c))._mpc_
    (rm, re), (jm, je) = (_dyadic(part) for part in parts)
    low = min(re, je, 0)
    return rm << (re - low), jm << (je - low), 1 << -low


def _dyadic(part):
    """(man, exp) with man 2^exp the value of an mpf tuple; ValueError when it is not finite."""
    sign, man, exp, _ = part
    man, exp = int(man), int(exp)  # gmpy2 backend hands out mpz
    if man == 0:
        if exp != 0:
            raise ValueError("non-finite value")
        return 0, 0
    return (-man if sign else man), exp


def _shift_div(n: int, e: int, m: int) -> int:
    """floor(n 2^e / m) for m > 0."""
    return (n << e) // m if e >= 0 else n // (m << -e)


def _scaled(coeffs, wp: int) -> _Scaled:
    """p's scaled monic polynomial for the rung wp; p's lead and constant term are nonzero.

    2^s is Fujiwara's bound 2 max_j |c_{d-j}/c_d|^(1/j) on the root moduli,
    rounded up to a power of two from the bit lengths of the ratios, so
    |q_{d-j}| <= 2^-j.  P = wp + _GUARD + max(s, 0) + e0: the absolute error
    in z stays below 2^-(wp+_GUARD), and e0 counts the bits by which |q_0|
    falls below 1, so that the backward-stability test also resolves
    roots far smaller than the scale.
    """
    parts = [_exact(c) for c in coeffs]
    d = len(parts) - 1
    ar, ai, ad = parts[-1]
    lead2 = ar * ar + ai * ai
    # c_j / c_d = (nr + i ni) / m exactly, and 2 log2 |c_j / c_d| within 1 of twice_log2[j]
    ratios = [((r * ar + i * ai) * ad, (i * ar - r * ai) * ad, den * lead2) for r, i, den in parts]
    twice_log2 = [(nr * nr + ni * ni).bit_length() - (m * m).bit_length() for nr, ni, m in ratios]
    s = 1 + max(-(-(twice_log2[d - j] + 1) // (2 * j)) for j in range(1, d + 1))
    e0 = max(0, -(-(2 * s * d - twice_log2[0] + 1) // 2))
    P = wp + _GUARD + max(s, 0) + e0
    q = [(_shift_div(nr, P + s * (j - d), m), _shift_div(ni, P + s * (j - d), m))
         for j, (nr, ni, m) in enumerate(ratios[:d])]
    sizes = [1 << P] + [math.isqrt(re * re + im * im) for re, im in reversed(q)]
    return _Scaled(coeffs=list(coeffs), desc=q[::-1], sizes=sizes, s=s, P=P, wp=wp)


def _value(poly: _Scaled, wr: int, wi: int):
    """q(w) as (re, im): _value_and_slope without the derivative."""
    P = poly.P
    pr, pi = 1 << P, 0
    for cr, ci in poly.desc:
        pr, pi = ((pr * wr - pi * wi) >> P) + cr, ((pr * wi + pi * wr) >> P) + ci
    return pr, pi


def _value_and_slope(poly: _Scaled, wr: int, wi: int):
    """q(w) and q'(w) as (re, im, re', im')."""
    P = poly.P
    pr, pi, dr, di = 1 << P, 0, 0, 0
    for cr, ci in poly.desc:
        dr, di = ((dr * wr - di * wi) >> P) + pr, ((dr * wi + di * wr) >> P) + pi
        pr, pi = ((pr * wr - pi * wi) >> P) + cr, ((pr * wi + pi * wr) >> P) + ci
    return pr, pi, dr, di


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration


def _aberth(poly: _Scaled, prec: int, start=None):
    """All roots of the scaled polynomial, as (re, im) points w at 2^-P.

    Returns (points, converged).  The integer iteration starts from the
    roots z in start, one per root, when they are given and fall on
    distinct points w (from coincident points its corrections vanish at
    once), and otherwise from the double-precision stage.  It stops when every
    correction of a sweep is below 2^-prec relative to 1 + |z|, or when
    every point is backward stable at 2^-prec, tested every _STABLE_EVERY
    sweeps: around a multiple root or a tight cluster the corrections stall
    at the rounding level and would run to the cap.  converged is False
    when the cap max(200, 3 prec) comes first.  Degrees 1 and 2 are solved
    in closed form.
    """
    d = len(poly.desc)
    P, s = poly.P, poly.s
    if d == 1:
        cr, ci = poly.desc[0]
        return [(-cr, -ci)], True
    if d == 2:
        return _quadratic(poly), True
    w = None if start is None else [_fixed_point(z, P - s) for z in start]
    if w is None or len(set(w)) < d:
        w = _start(poly)
    cap = max(200, 3 * prec)
    for done in range(0, cap, _STABLE_EVERY):
        sweeps = min(_STABLE_EVERY, cap - done)
        if _fixed_sweeps(poly, w, sweeps) or _fixed_backward_stable(poly, w):
            return w, True
    return w, False


_STABLE_EVERY = 8  # integer sweeps between two backward-stability tests


def _start(poly: _Scaled):
    """Start points w of the integer iteration, from the double-precision stage.

    That stage starts on the circle of radius 1 in w about the roots'
    centroid -q_{d-1}/d; when it overflows or leaves the finite range the
    integer iteration starts from the circle itself.
    """
    d, P, s = len(poly.desc), poly.P, poly.s
    center = complex(-poly.desc[0][0] / (d << P), -poly.desc[0][1] / (d << P))
    circle = [center + cmath.exp(2j * math.pi * (k + 0.354) / d) for k in range(d)]
    coeffs = poly.coeffs
    try:
        warm = _float_start(
            coeffs,
            [coeffs[i] * i for i in range(1, d + 1)],
            [complex(math.ldexp(c.real, s), math.ldexp(c.imag, s)) for c in circle],
        )
    except OverflowError:
        warm = None
    shift = P if warm is None else P - s
    return [(_fixed(c.real, shift), _fixed(c.imag, shift)) for c in warm or circle]


def _fixed_point(z, shift: int):
    """(floor(re z 2^shift), floor(im z 2^shift)) for an exact or mpmath number z."""
    re, im, den = _exact(z)
    return _shift_div(re, shift, den), _shift_div(im, shift, den)


def _fixed(x: float, shift: int) -> int:
    """floor(x 2^shift) for a finite float x."""
    n, den = x.as_integer_ratio()
    return _shift_div(n, shift, den)


def _quadratic(poly: _Scaled):
    """The two roots of w^2 + b w + c by the formula, with the sign that avoids cancellation."""
    P = poly.P
    (br, bi), (cr, ci) = poly.desc
    sr, si = _sqrt(br * br - bi * bi - (cr << (P + 2)), 2 * br * bi - (ci << (P + 2)))
    if br * sr + bi * si > 0:
        sr, si = -sr, -si
    qr, qi = (sr - br) >> 1, (si - bi) >> 1
    n = qr * qr + qi * qi
    if n == 0:
        return [(qr, qi), (-br - qr, -bi - qi)]
    return [(qr, qi), (((cr * qr + ci * qi) << P) // n, ((ci * qr - cr * qi) << P) // n)]


def _sqrt(x: int, y: int):
    """A square root of x + i y at 2^-2P, at 2^-P."""
    r = math.isqrt(x * x + y * y)
    if x >= 0:
        a = math.isqrt((r + x) >> 1)
        return (a, y // (2 * a)) if a else (0, 0)
    b = math.isqrt((r - x) >> 1) * (1 if y >= 0 else -1)
    return y // (2 * b), b


def _fixed_sweeps(poly: _Scaled, w, max_iter: int) -> bool:
    """Aberth-Ehrlich sweeps on the points w in place, in Gaussian integers.

    Stops when every correction of a sweep is below 2^-wp (1 + |z|), judged
    on squares as |corr|^2 2^(2 wp) < 1 + |z|^2 (returns True), or after
    max_iter sweeps (returns False).
    """
    P, d = poly.P, len(w)
    one = 1 << (P - poly.s)  # 1 in z
    unit, one2, two_p, two_wp = 1 << P, one * one, 2 * P, 2 * poly.wp
    for _ in range(max_iter):
        converged = True
        for i in range(d):
            wr, wi = w[i]
            pr, pi, dr, di = _value_and_slope(poly, wr, wi)
            if pr == 0 and pi == 0:
                continue
            nudge = max(1, (one + abs(wr) + abs(wi)) >> poly.wp)
            n = dr * dr + di * di
            if n == 0:
                w[i] = (wr + nudge, wi)
                converged = False
                continue
            # the Newton ratio p/p' and the sum of 1/(w_i - w_j)
            rr, ri = ((pr * dr + pi * di) << P) // n, ((pi * dr - pr * di) << P) // n
            sr = si = 0
            for j in range(d):
                if j != i:
                    xr, xi = wr - w[j][0], wi - w[j][1]
                    n = xr * xr + xi * xi
                    if n == 0:
                        xr, n = nudge, nudge * nudge
                    sr += (xr << two_p) // n
                    si -= (xi << two_p) // n
            er = unit - ((rr * sr - ri * si) >> P)
            ei = -((rr * si + ri * sr) >> P)
            n = er * er + ei * ei
            if n == 0:
                cr, ci = rr, ri
            else:
                cr, ci = ((rr * er + ri * ei) << P) // n, ((ri * er - rr * ei) << P) // n
            wr, wi = wr - cr, wi - ci
            w[i] = (wr, wi)
            if (cr * cr + ci * ci) << two_wp >= one2 + wr * wr + wi * wi:
                converged = False
        if converged:
            return True
    return False


def _fixed_backward_stable(poly: _Scaled, w) -> bool:
    """Every point is a root of a polynomial within relative 2^-wp of q.

    That is |q(w)| <= 2^-wp sum_j |q_j| |w|^j, compared on squares.  The
    sweeps around a multiple root stall at the rounding level, short of the
    target, with every point passing this test; a point that is still far
    from every root fails it.
    """
    P, two_wp = poly.P, 2 * poly.wp
    for wr, wi in w:
        pr, pi = _value(poly, wr, wi)
        r = math.isqrt(wr * wr + wi * wi)
        bound = 0
        for m in poly.sizes:
            bound = ((bound * r) >> P) + m
        if (pr * pr + pi * pi) << two_wp > bound * bound:
            return False
    return True


_FLOAT_TARGET = 2.0**-48  # relative correction at which the double-precision stage stops
_FLOAT_ITER = 100  # cap on its sweeps


def _float_start(coeffs, deriv, z):
    """Double-precision Aberth from the start points z; None when it leaves the finite range."""
    try:
        cs = [complex(c) for c in coeffs]
        ds = [complex(c) for c in deriv]
        zf = [complex(v) for v in z]
        if cs[-1] == 0 or not all(map(cmath.isfinite, cs + ds + zf)):
            return None
        _aberth_sweeps(cs, ds, zf, _FLOAT_TARGET, _FLOAT_ITER)
    except (OverflowError, ZeroDivisionError):
        return None
    return zf if all(map(cmath.isfinite, zf)) else None


def _aberth_sweeps(coeffs, deriv, z, target, max_iter) -> bool:
    """Aberth-Ehrlich sweeps on z in place, in the arithmetic of the inputs.

    Stops when the largest relative correction of a sweep is below target
    (returns True) or after max_iter sweeps (returns False).
    """
    d = len(z)
    for _ in range(max_iter):
        biggest = 0
        for i in range(d):
            pv = _horner(coeffs, z[i])
            if pv == 0:
                continue
            dv = _horner(deriv, z[i])
            if dv == 0:
                z[i] = z[i] + target * (1 + abs(z[i]))
                biggest = max(biggest, abs(z[i]) + 1)
                continue
            ratio = pv / dv
            s = 0
            for j in range(d):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = target * (1 + abs(z[i]))
                    s += 1 / diff
            denom = 1 - ratio * s
            corr = ratio if denom == 0 else ratio / denom
            z[i] = z[i] - corr
            rel = abs(corr) / (1 + abs(z[i]))
            if rel > biggest:
                biggest = rel
        if biggest < target:
            return True
    return False


def _root_key(z, tol):
    """Sort key of a computed root: its real part rounded to tol, then its imaginary part.

    Conjugate roots share their real part only up to rounding noise, so
    comparing the raw real parts would order them by that noise.
    """
    return (mp.nint(z.real / tol), z.imag)


# ---------------------------------------------------------------------------
# clusters


def cluster(points, tol: int):
    """Single-linkage clusters of (re, im) integer points at tolerance tol; representative is the mean.

    The mean is rounded down to integers.  Returns a list of
    (representative, count) sorted by _fixed_key of the representative, so
    the output is deterministic.
    """
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tol2 = tol * tol
    for i in range(n):
        xr, xi = points[i]
        for j in range(i + 1, n):
            dr, di = xr - points[j][0], xi - points[j][1]
            if dr * dr + di * di <= tol2:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    out = []
    for members in groups.values():
        count = len(members)
        out.append(((sum(p[0] for p in members) // count, sum(p[1] for p in members) // count), count))
    out.sort(key=lambda rc: _fixed_key(rc[0], tol))
    return out


def _fixed_key(point, tol: int):
    """_root_key of an integer point: its real part rounded to tol, then its imaginary part."""
    return ((2 * point[0] + tol) // (2 * tol), point[1])


def roots_from_coeffs(coeffs, prec: int = 256, start=None) -> RootSet:
    """Root set of an ascending coefficient list (Fraction or complex entries).

    Runs the precision ladder until clusters are unambiguously separated;
    a rung whose Aberth iteration did not converge counts as ambiguous.
    Zero leading/trailing coefficients (exactly zero, of any type) are stripped beforehand.
    Clusters are taken at tol = 2^-(wp/4) max(1, |z|), over all points z.
    start, approximate roots such as the representatives of a solve at a
    lower rung, replaces the double-precision stage on the first rung; it
    is ignored unless it holds one distinct point per root of the stripped
    polynomial, and a higher rung starts cold.  The stopping rule and the
    cluster checks decide the result either way.
    """
    coeffs = list(coeffs)
    while coeffs and _is_exact_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) <= 1:
        raise ValueError("nonconstant polynomial required")
    zero_mult = 0
    while _is_exact_zero(coeffs[zero_mult]):
        zero_mult += 1
    stripped = coeffs[zero_mult:]
    if len(stripped) == 1:
        return RootSet(clusters=[((0, 0), zero_mult)], exp=0, prec=ladder_from(prec)[0])
    if start is not None and len(start) != len(stripped) - 1:
        start = None
    for wp in ladder_from(prec):
        poly = _scaled(stripped, wp)
        pts, converged = _aberth(poly, wp, start)
        start = None
        if not converged:
            failure = "Aberth iteration did not converge"
            continue
        top = max(re * re + im * im for re, im in pts)
        tol = max(1 << (poly.P - poly.s), math.isqrt(top)) >> (wp // 4)
        clusters = cluster(pts, tol)
        if zero_mult:
            clusters = _merge_zero(clusters, zero_mult, tol)
        if _clusters_ok(poly, clusters, tol, zero_mult):
            return RootSet(clusters=clusters, exp=poly.s - poly.P, prec=wp)
        failure = "root clusters remain ambiguous"
    raise PrecisionExhausted(f"{failure} at 1024 bits")


def _merge_zero(clusters, zero_mult, tol):
    out = []
    absorbed = False
    for (re, im), count in clusters:
        if not absorbed and re * re + im * im <= tol * tol:
            total = count + zero_mult
            out.append(((re * count // total, im * count // total), total))
            absorbed = True
        else:
            out.append(((re, im), count))
    if not absorbed:
        out.append(((0, 0), zero_mult))
    out.sort(key=lambda rc: _fixed_key(rc[0], tol))
    return out


def _clusters_ok(poly: _Scaled, clusters, tol, zero_mult):
    """Whether the clusters are unambiguous: small residuals, well-separated representatives.

    The residual at z is |p(z)| / (|lead| (1 + |z|)^n) for p with its zero
    roots, of degree n; it must be at most 2^-(wp/8), and two representatives
    must be more than 4 tol apart.  With a = |w| 2^P, Q = q(w) 2^P and
    d = deg q, the residual is a^zero_mult |Q| 2^(P(d-1)) / (2^(P-s) + a)^n.
    """
    P, d = poly.P, len(poly.desc)
    one, n = 1 << (poly.P - poly.s), d + zero_mult
    for (wr, wi), _ in clusters:
        pr, pi = _value(poly, wr, wi)
        a = math.isqrt(wr * wr + wi * wi)
        num = a ** (2 * zero_mult) * (pr * pr + pi * pi) << (2 * P * (d - 1))
        den = (one + a) ** (2 * n)
        if num << (2 * (poly.wp // 8)) > den:
            return False
    for i in range(len(clusters)):
        (ar, ai), _ = clusters[i]
        for j in range(i + 1, len(clusters)):
            (br, bi), _ = clusters[j]
            if (ar - br) ** 2 + (ai - bi) ** 2 <= 16 * tol * tol:
                return False
    return True


def _is_exact_zero(c) -> bool:
    # of any type: in fixed point an unstripped zero constant term would leave a
    # multiple root at 0 where q(w) rounds to 0 far from it
    return c == 0


def roots_univariate(p: MPoly, prec: int = 256, start=None) -> RootSet:
    """All complex roots of a nonconstant univariate rational polynomial (start: see roots_from_coeffs)."""
    coeffs = univ_coeffs(p)
    if len(coeffs) <= 1:
        raise ValueError("nonconstant polynomial required")
    return roots_from_coeffs(coeffs, prec, start)


# ---------------------------------------------------------------------------
# rational reconstruction


def _mpf_ratio(x: mp.mpf) -> tuple[int, int]:
    """(N, D) with N / D the exact dyadic value of the mpf x and D a positive power of 2."""
    man, exp = _dyadic(x._mpf_)
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def rational_reconstruct(v, height_bound: int, prec: int = 256) -> Fraction:
    """Recover the rational of height <= height_bound within 2^(-prec/2) of v.

    Continued-fraction convergents p/q of the exact dyadic value N/D of
    v.real, by Euclid's algorithm in integers; the first convergent inside
    the tolerance TN/TD, |N q - p D| TD <= TN D q, is the minimal-height one.
    """
    # split into parts without reconverting (conversion rounds at ambient prec)
    if isinstance(v, mp.mpc):
        re_part, im_part = v.real, v.imag
    elif isinstance(v, mp.mpf):
        re_part, im_part = v, mp.mpf(0)
    else:
        re_part, im_part = mp.mpf(v), mp.mpf(0)
    scale = max(1, abs(re_part) + abs(im_part))
    tol = mp.mpf(2) ** (-prec // 2) * scale
    if abs(im_part) > tol:
        raise NonReal(f"imaginary part {im_part} exceeds tolerance")
    N, D = _mpf_ratio(re_part)
    TN, TD = _mpf_ratio(tol)
    # continued fraction of N/D: num/den is the next complete quotient; the last convergent is N/D
    p_prev, q_prev = 1, 0
    p_cur, q_cur = N // D, 1
    num, den = D, N % D
    while True:
        if abs(p_cur) > height_bound or q_cur > height_bound:
            raise NoReconstruction(
                f"no rational of height <= {height_bound} within tolerance"
            )
        if abs(N * q_cur - p_cur * D) * TD <= TN * D * q_cur:
            return Fraction(p_cur, q_cur)
        digit, rem = divmod(num, den)
        num, den = den, rem
        p_cur, p_prev = digit * p_cur + p_prev, p_cur
        q_cur, q_prev = digit * q_cur + q_prev, q_cur


# ---------------------------------------------------------------------------
# two-variable systems by resultant elimination


def solve_system_2(p: MPoly, q: MPoly, prec: int = 256) -> list:
    """All isolated common zeros of two rational polynomials in 2 variables.

    Eliminates y by the Sylvester resultant res_x.  The solution set is
    positive-dimensional exactly when p and q share a nonconstant factor:
    one involving y makes res_x zero, and one free of y (checked as the
    gcd in x of all y-coefficients of p and q) would make the resultant
    eliminating x zero.  At each root x0 of res_x one
    polynomial is solved for y: p(x0, y), or q(x0, y) where p(x0, .)
    vanishes numerically (both cannot vanish at a true root, since then p
    and q share a factor in x).  The pairs on which both
    residuals vanish are kept.  The x0 are the roots of the exact
    squarefree part of res_x: at a root of multiplicity m the roots of
    res_x itself come to about a fraction 1/m of prec, too coarse to tell
    a double root of p(x0, y) from two roots.
    """
    if p.var_count != 2 or q.var_count != 2:
        raise ValueError("two polynomials in 2 variables expected")
    if p.is_zero() or q.is_zero():
        raise NonZeroDimensional("a zero polynomial has a positive-dimensional zero set")
    for index in (1, 0):
        if p.degree_in(index) == 0 and q.degree_in(index) == 0:
            # both free of one variable: common zeros fill lines parallel to its axis
            if not univ_gcd(drop_var(p, index), drop_var(q, index)).is_constant():
                raise NonZeroDimensional("common one-variable factor")
            return []
    res_x = sylvester_resultant(p, q, 1)  # eliminate var 1 -> poly in var 0
    if res_x.is_zero():
        raise NonZeroDimensional("a resultant vanishes identically")
    py = coeffs_in_var(p, 1)
    qy = coeffs_in_var(q, 1)
    common = MPoly(1)
    for c in py + qy:
        common = univ_gcd(common, drop_var(c, 1))
    if not common.is_constant():
        raise NonZeroDimensional("common factor free of y")
    if res_x.is_constant():
        return []
    xset = roots_univariate(exact_divide(res_x, univ_gcd(res_x, univ_derivative(res_x))), prec)
    degree = max(total_degree(p), total_degree(q))
    solutions = []
    with mp.workprec(prec + 20):
        coeff_scale = max(
            [mp.mpf(1)]
            + [abs(_to_mpc(c)) for c in p.terms.values()]
            + [abs(_to_mpc(c)) for c in q.terms.values()]
        )
        tol = mp.mpf(2) ** (-prec // 4)
        py_at, qy_at, pq_at = (evaluator(polys, use_mp=True) for polys in (py, qy, [p, q]))
        for x0, _ in xset.roots:
            # the y-coefficients are free of y, and a zero one evaluates to an exact 0
            yc = py_at((x0, 0))
            if all(abs(c) <= tol * coeff_scale for c in yc):
                yc = qy_at((x0, 0))
            for y0 in _nonconst_roots(yc, prec):
                scale_pt = coeff_scale * (1 + abs(x0) + abs(y0)) ** degree
                if all(abs(v) <= tol * scale_pt for v in pq_at((x0, y0))):
                    solutions.append((x0, y0))
        solutions.sort(key=lambda s: _root_key(s[0], tol) + _root_key(s[1], tol))
    return solutions


def _nonconst_roots(coeffs, prec):
    cs = list(coeffs)
    scale = max([mp.mpf(0)] + [abs(c) for c in cs])
    if scale == 0:
        return []
    # drop numerically vanished leading coefficients (lc killed by x0)
    drop = scale * mp.mpf(2) ** (-prec // 2)
    while cs and abs(cs[-1]) <= drop:
        cs.pop()
    if len(cs) <= 1:
        return []
    rs = roots_from_coeffs(cs, prec)
    return rs.values()
