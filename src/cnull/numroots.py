"""Arbitrary-precision numerics: complex roots, clustering, reconstruction.

Root finding is Aberth-Ehrlich simultaneous iteration on mpmath complex
numbers, run on a doubling-precision ladder.  Each run first does the
same iteration in double precision (Python complex) from the same circle
start; that stage only picks the starting points of the mpmath
iteration, and when it overflows or leaves the finite range the mpmath
iteration starts from the circle.  The mpmath iteration stops when every
correction is below 2^-prec, or at its sweep cap.  A run that reaches
the cap with a point that is not a root of a polynomial within relative
2^-prec of the input has not converged: its rung counts as ambiguous,
and at the top of the ladder PrecisionExhausted is raised.  Precision is
expressed in bits; results at a given precision are deterministic (no
randomness enters the iteration).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import NonReal, NonZeroDimensional, NoReconstruction, PrecisionExhausted
from .polycore import (
    MPoly,
    coeffs_in_var,
    evaluate,
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
    """Distinct roots with multiplicities; multiplicities sum to the degree."""

    roots: list  # list of (mp.mpc, int)
    residual_bound: float
    prec: int

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


def _aberth(coeffs, prec: int):
    """All roots of the ascending coefficient list at the given precision.

    Returns (roots, converged).  converged is False when the mpmath
    iteration reached its cap before every correction fell below 2^-prec
    and some point is not backward stable at 2^-prec.
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    if d == 1:
        return [-coeffs[0] / lead], True
    if d == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = mp.sqrt(b * b - 4 * a * c)
        # pick the sign that avoids cancellation in the classic formula
        if mp.re(mp.conj(b) * disc) > 0:
            disc = -disc
        q = -(b - disc) / 2
        r1 = q / a
        r2 = c / q if q != 0 else -b / a - r1
        return [r1, r2], True
    deriv = [coeffs[i] * i for i in range(1, d + 1)]
    center = -coeffs[d - 1] / (d * lead)
    # Fujiwara's bound on the root moduli: the size of the roots, where the
    # largest coefficient ratio can overshoot it by many orders of magnitude
    radius = 2 * max(abs(coeffs[d - j] / lead) ** (mp.mpf(1) / j) for j in range(1, d + 1))
    z = [
        center + radius * mp.expjpi(2 * (k + mp.mpf("0.354")) / d)
        for k in range(d)
    ]
    warm = _float_start(coeffs, deriv, z)
    if warm is not None:
        z = [mp.mpc(w) for w in warm]
    target = mp.mpf(2) ** (-prec)
    converged = _aberth_sweeps(coeffs, deriv, z, target, max(200, 3 * prec))
    return z, converged or _backward_stable(coeffs, z, target)


def _backward_stable(coeffs, z, target) -> bool:
    """Every point is a root of a polynomial within relative target of coeffs.

    The sweeps around a multiple root stall at the rounding level, short of
    the target, with every point passing this test; a point that is still
    far from every root fails it.
    """
    sizes = [abs(c) for c in coeffs]
    return all(abs(_horner(coeffs, v)) <= target * _horner(sizes, abs(v)) for v in z)


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


def cluster(points, tol):
    """Single-linkage clusters at tolerance tol; representative is the mean.

    Returns a list of (representative, count) sorted by _root_key of the
    representative, so the output is deterministic.
    """
    pts = list(points)
    if not pts:
        return []
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i] - pts[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(pts[i])
    out = []
    for members in groups.values():
        rep = sum(members, mp.mpc(0)) / len(members)
        out.append((rep, len(members)))
    out.sort(key=lambda rc: _root_key(rc[0], tol))
    return out


def roots_from_coeffs(coeffs, prec: int = 256) -> RootSet:
    """Root set of an ascending coefficient list (Fraction or complex entries).

    Runs the precision ladder until clusters are unambiguously separated;
    a rung whose Aberth iteration did not converge counts as ambiguous.
    Exact zero leading/trailing coefficients are stripped beforehand.
    """
    coeffs = list(coeffs)
    while coeffs and _is_exact_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) <= 1:
        raise ValueError("nonconstant polynomial required")
    zero_mult = 0
    stripped = list(coeffs)
    while _is_exact_zero(stripped[0]):
        stripped.pop(0)
        zero_mult += 1
    for wp in ladder_from(prec):
        with mp.workprec(wp + 20):
            full = [_to_mpc(c) for c in coeffs]
            cs = [_to_mpc(c) for c in stripped]
            pts, converged = _aberth(cs, wp) if len(cs) > 1 else ([], True)
            if not converged:
                failure = "Aberth iteration did not converge"
                continue
            scale = max([mp.mpf(1)] + [abs(z) for z in pts])
            tol = mp.mpf(2) ** (-wp // 4) * scale
            clusters = cluster(pts, tol)
            if zero_mult:
                clusters = _merge_zero(clusters, zero_mult, tol)
            ok, residual = _clusters_ok(full, clusters, tol, wp)
            if ok:
                return RootSet(roots=clusters, residual_bound=float(residual), prec=wp)
            failure = "root clusters remain ambiguous"
    raise PrecisionExhausted(f"{failure} at 1024 bits")


def _merge_zero(clusters, zero_mult, tol):
    out = []
    absorbed = False
    for rep, count in clusters:
        if abs(rep) <= tol and not absorbed:
            out.append((rep * count / (count + zero_mult), count + zero_mult))
            absorbed = True
        else:
            out.append((rep, count))
    if not absorbed:
        out.append((mp.mpc(0), zero_mult))
    out.sort(key=lambda rc: _root_key(rc[0], tol))
    return out


def _clusters_ok(cs, clusters, tol, wp):
    lead = abs(cs[-1]) if cs else mp.mpf(1)
    residual = mp.mpf(0)
    for rep, _ in clusters:
        if cs and len(cs) > 1:
            r = abs(_horner(cs, rep)) / (lead * (1 + abs(rep)) ** (len(cs) - 1))
            residual = max(residual, r)
    if residual > mp.mpf(2) ** (-wp // 8):
        return False, residual
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            gap = abs(clusters[i][0] - clusters[j][0])
            if gap <= 4 * tol:
                return False, residual
    return True, residual


def _is_exact_zero(c) -> bool:
    return isinstance(c, (int, Fraction)) and c == 0


def roots_univariate(p: MPoly, prec: int = 256) -> RootSet:
    """All complex roots of a nonconstant univariate rational polynomial."""
    coeffs = univ_coeffs(p)
    if len(coeffs) <= 1:
        raise ValueError("nonconstant polynomial required")
    return roots_from_coeffs(coeffs, prec)


# ---------------------------------------------------------------------------
# rational reconstruction


def _mpf_to_fraction(x) -> Fraction:
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)  # conversion rounds at ambient precision; mpf passes through
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)  # gmpy2 backend hands out mpz
    if man == 0:
        if exp != 0:
            raise ValueError("non-finite value")
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def rational_reconstruct(v, height_bound: int, prec: int = 256) -> Fraction:
    """Recover the rational of height <= height_bound within 2^(-prec/2) of v.

    Continued-fraction convergents of the exact dyadic value of v.real;
    the first convergent inside the tolerance is the minimal-height one.
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
    x = _mpf_to_fraction(re_part)
    tol_f = _mpf_to_fraction(tol) if tol > 0 else Fraction(0)
    # continued fraction of x
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(x // 1), 1
    a = x - (x // 1)
    while True:
        cand = Fraction(p_cur, q_cur)
        if abs(p_cur) <= height_bound and q_cur <= height_bound and abs(x - cand) <= tol_f:
            return cand
        if abs(p_cur) > height_bound or q_cur > height_bound:
            raise NoReconstruction(
                f"no rational of height <= {height_bound} within tolerance"
            )
        if a == 0:
            return cand
        x_next = 1 / a
        digit = int(x_next // 1)
        a = x_next - digit
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
            if not univ_gcd(_drop_var(p, index), _drop_var(q, index)).is_constant():
                raise NonZeroDimensional("common one-variable factor")
            return []
    res_x = sylvester_resultant(p, q, 1)  # eliminate var 1 -> poly in var 0
    if res_x.is_zero():
        raise NonZeroDimensional("a resultant vanishes identically")
    py = coeffs_in_var(p, 1)
    qy = coeffs_in_var(q, 1)
    common = MPoly(1)
    for c in py + qy:
        common = univ_gcd(common, _drop_var(c, 1))
    if not common.is_constant():
        raise NonZeroDimensional("common factor free of y")
    if res_x.is_constant():
        return []
    rx = _drop_var(res_x, 1)
    xset = roots_univariate(exact_divide(rx, univ_gcd(rx, univ_derivative(rx))), prec)
    degree = max(total_degree(p), total_degree(q))
    solutions = []
    with mp.workprec(prec + 20):
        coeff_scale = max(
            [mp.mpf(1)]
            + [abs(_to_mpc(c)) for c in p.terms.values()]
            + [abs(_to_mpc(c)) for c in q.terms.values()]
        )
        tol = mp.mpf(2) ** (-prec // 4)
        for x0, _ in xset.roots:
            # the y-coefficients are free of y, and a zero one evaluates to an exact 0
            yc = [evaluate(c, (x0, 0)) for c in py]
            if all(abs(c) <= tol * coeff_scale for c in yc):
                yc = [evaluate(c, (x0, 0)) for c in qy]
            for y0 in _nonconst_roots(yc, prec):
                scale_pt = coeff_scale * (1 + abs(x0) + abs(y0)) ** degree
                if all(abs(evaluate(h, (x0, y0))) <= tol * scale_pt for h in (p, q)):
                    solutions.append((x0, y0))
        solutions.sort(key=lambda s: _root_key(s[0], tol) + _root_key(s[1], tol))
    return solutions


def _drop_var(p: MPoly, index: int) -> MPoly:
    keep = 1 - index
    return MPoly(1, {(e[keep],): c for e, c in p.terms.items()})


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
