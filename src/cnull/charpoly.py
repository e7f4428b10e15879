"""Characteristic polynomial of g relative to a proper map f.

The construction is numeric but self-certifying: fibers over a rational
sample grid are solved at working precision, the signed elementary
symmetric functions of the g-values are rationally reconstructed and
interpolated under the coefficient degree bounds, and the result is then
verified exactly, as the polynomial identity P(f(phi), g(phi)) = 0 in
the parameter ring.  A failed verification escalates the precision
ladder and is never returned silently.

An independent exact construction via a Sylvester resultant is provided
as an oracle for the curve case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import rng as _rng
from .errors import (
    CriticalSampleBudgetExhausted,
    ExactVerificationFailed,
    InconsistentSamples,
    NonMonicizable,
    NoReconstruction,
    PrecisionExhausted,
)
from .numroots import PREC_LADDER, rational_reconstruct, roots_from_coeffs
from .polycore import (
    MPoly,
    NEG_INF,
    coeffs_in_var,
    compose,
    evaluate,
    interpolate,
    poly_to_json,
    sylvester_resultant,
    total_degree,
    univ_coeffs,
)
from .propermaps import ProperMapProfile, fiber_points, growth_exponent, profile_map
from .variety import CAMap


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial t^d + a_1(y) t^(d-1) + ... + a_d(y)."""

    d: int
    coeffs: list[MPoly]  # a_1 .. a_d in the k image variables
    bounds: list[int] | None
    provenance: str
    y_vars: list[str]
    verified: bool = False

    @property
    def k(self) -> int:
        return self.coeffs[0].var_count if self.coeffs else 1

    def eval_t_poly(self, y_point):
        """Ascending t-coefficients of P(y_point, t)."""
        asc = [evaluate(a, y_point) for a in reversed(self.coeffs)]
        return asc + [1]


def coefficient_bounds(d: int, growth: Fraction, graph_deg: int) -> list[int]:
    """Per-coefficient degree bounds floor(j * B * (deg graph - d + 1))."""
    spread = graph_deg - d + 1
    return [math.floor(Fraction(j) * growth * spread) for j in range(1, d + 1)]


def charpoly_to_json(p: CharPoly) -> dict:
    return {
        "d": p.d,
        "coeffs": [poly_to_json(a, p.y_vars) for a in p.coeffs],
        "provenance": p.provenance,
        "bounds": list(p.bounds) if p.bounds is not None else None,
        "verified": p.verified,
    }


def verify_charpoly(P: CharPoly, f: CAMap, g: CAMap) -> bool:
    """Exact check of the identity P(f(phi), g(phi)) = 0 in the parameter ring."""
    fp = list(f.pullbacks)
    gp = g.pullbacks[0]
    acc = gp**P.d
    for j, a in enumerate(P.coeffs, start=1):
        acc = acc + compose(a, fp) * gp ** (P.d - j)
    return acc.is_zero()


def build_charpoly(
    f: CAMap,
    g: CAMap,
    seed: int = 0,
    prec: int = 256,
    profile: ProperMapProfile | None = None,
) -> CharPoly:
    """Characteristic polynomial by fiber sampling, reconstruction and interpolation.

    Fails hard (ExactVerificationFailed) if the exact identity does not
    hold after the precision ladder is exhausted; a successful return is
    always exactly verified.
    """
    param = f.domain.require_param()
    k = param.k
    if f.n != k:
        raise ValueError("the map must have as many components as the set has dimensions")
    if g.n != 1:
        raise ValueError("g must be a single-component map")
    prof = profile if profile is not None else profile_map(f, seed, prec)
    d = prof.d_f
    growth = growth_exponent(g)
    bounds = coefficient_bounds(d, growth, prof.graph_degree)
    last_error: Exception | None = None
    for wp in [p for p in PREC_LADDER if p >= prec]:
        try:
            P = _build_at_precision(f, g, d, bounds, seed, wp)
        except (NoReconstruction, InconsistentSamples, PrecisionExhausted) as exc:
            last_error = exc
            continue
        if verify_charpoly(P, f, g):
            return CharPoly(
                d=P.d,
                coeffs=P.coeffs,
                bounds=P.bounds,
                provenance=P.provenance,
                y_vars=P.y_vars,
                verified=True,
            )
        last_error = ExactVerificationFailed(
            "interpolated characteristic polynomial failed the exact identity"
        )
    if isinstance(last_error, (NoReconstruction, PrecisionExhausted)):
        raise last_error
    raise ExactVerificationFailed(
        "characteristic polynomial could not be certified on the precision ladder"
    ) from last_error


def _build_at_precision(f: CAMap, g: CAMap, d: int, bounds: list[int], seed: int, wp: int) -> CharPoly:
    k = f.domain.param.k
    bmax = max(bounds) if bounds else 0
    nodes = _noncritical_nodes(f, d, bmax + 1, seed, wp)
    gp = g.pullbacks[0]
    height = 10 ** max(6, wp // 16)
    samples: list[list] = [[] for _ in range(d)]
    with mp.workprec(wp + 20):
        for y in itertools.product(*nodes):
            tpoints = fiber_points(f, list(y), wp)
            if len(tpoints) != d:
                raise InconsistentSamples(
                    f"fiber over {y} has {len(tpoints)} points, expected {d}"
                )
            asc = _monic_from_roots([evaluate(gp, t) for t in tpoints])
            for j in range(1, d + 1):
                samples[j - 1].append((y, rational_reconstruct(asc[d - j], height, wp)))
    coeffs = []
    for j in range(1, d + 1):
        coeffs.append(interpolate(samples[j - 1], [bounds[j - 1]] * k))
    return CharPoly(
        d=d,
        coeffs=coeffs,
        bounds=list(bounds),
        provenance="interpolated",
        y_vars=[f"y{i + 1}" for i in range(k)],
        verified=False,
    )


def _noncritical_nodes(f: CAMap, d: int, need: int, seed: int, wp: int):
    """Distinct rational nodes per variable whose full grid avoids the critical locus."""
    k = f.domain.param.k
    gen = _rng.child_rng(seed, "charpoly-grid")
    span = list(range(-3 * (need + 2), 3 * (need + 2) + 1))
    gen.shuffle(span)
    for _ in range(10):
        axes = []
        pool = iter(span)
        try:
            for _axis in range(k):
                axes.append([Fraction(next(pool)) for _ in range(need)])
        except StopIteration:
            break
        if _grid_noncritical(f, axes, d, wp):
            return axes
        gen.shuffle(span)
    raise CriticalSampleBudgetExhausted("could not draw a grid clear of critical values")


def _grid_noncritical(f: CAMap, axes, d: int, wp: int) -> bool:
    return all(len(fiber_points(f, list(y), wp)) == d for y in itertools.product(*axes))


def _monic_from_roots(values):
    """Ascending coefficients of prod (X - v)."""
    coeffs = [mp.mpc(1)]
    for v in values:
        new = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] += c * (-v)
        coeffs = new
    return coeffs


# ---------------------------------------------------------------------------
# exact resultant construction (independent oracle, curve case)


def charpoly_resultant_oracle(f: CAMap, g: CAMap) -> CharPoly:
    """Exact characteristic polynomial as a normalized Sylvester resultant.

    Eliminates the curve parameter from (f(phi)(t) - y, s - g(phi)(t));
    requires the leading parameter coefficient of f(phi) - y to be free
    of y, which holds whenever f(phi) is a nonconstant polynomial.
    """
    param = f.domain.require_param()
    if param.k != 1 or f.n != 1 or g.n != 1:
        raise ValueError("resultant oracle covers single-component maps on curves")
    fp = f.pullbacks[0]
    gp = g.pullbacks[0]
    fp_c = univ_coeffs(fp)
    if len(fp_c) <= 1:
        raise ValueError("f pulls back to a constant; not proper")
    deg_f = len(fp_c) - 1
    # variables (t, y, s)
    def embed_t(p: MPoly) -> MPoly:
        return MPoly(3, {(e, 0, 0): c for (e,), c in p.terms.items()})

    y = MPoly(3, {(0, 1, 0): Fraction(1)})
    s = MPoly(3, {(0, 0, 1): Fraction(1)})
    res = sylvester_resultant(embed_t(fp) - y, s - embed_t(gp), 0)
    s_coeffs = coeffs_in_var(res, 2)
    if len(s_coeffs) - 1 != deg_f:
        raise NonMonicizable("resultant degree in the new variable is not deg f(phi)")
    lead = s_coeffs[-1]
    if not lead.is_constant():
        raise NonMonicizable("leading coefficient depends on y")
    lead_c = lead.constant_term()
    coeffs = []
    for j in range(1, deg_f + 1):
        a = s_coeffs[deg_f - j].scale(Fraction(1) / lead_c)
        coeffs.append(_project_to_y(a))
    P = CharPoly(
        d=deg_f,
        coeffs=coeffs,
        bounds=None,
        provenance="resultant",
        y_vars=["y1"],
        verified=False,
    )
    if not verify_charpoly(P, f, g):
        raise ExactVerificationFailed("resultant characteristic polynomial failed the exact identity")
    return CharPoly(P.d, P.coeffs, P.bounds, P.provenance, P.y_vars, verified=True)


def _project_to_y(a: MPoly) -> MPoly:
    out = {}
    for (et, ey, es), c in a.terms.items():
        if et or es:
            raise NonMonicizable("resultant coefficient still involves an eliminated variable")
        out[(ey,)] = c
    return MPoly(1, out)


# ---------------------------------------------------------------------------
# root growth


def ploski_delta(P: CharPoly) -> Fraction:
    """Max over nonzero coefficients of deg(a_j)/j; 0 when all vanish."""
    best = Fraction(0)
    for j, a in enumerate(P.coeffs, start=1):
        deg = total_degree(a)
        if deg == NEG_INF:
            continue
        best = max(best, Fraction(int(deg), j))
    return best


@dataclass(frozen=True)
class GrowthCheck:
    holds: bool
    q: Fraction
    witness_C: float | None
    violation: tuple | None  # ((x...), t) achieving the excess growth
    low_max: float
    high_max: float


def growth_inclusion_check(
    P: CharPoly,
    q: Fraction,
    R: float = 100.0,
    samples: int = 1000,
    seed: int = 0,
    prec: int = 256,
) -> GrowthCheck:
    """Sample test of the root-growth inclusion |t| <= C |x|^q for |x| >= R.

    Draws |x| log-uniform in [R, 10^4 R]; the inclusion holds when the
    max of |t|/|x|^q over the top half of the range does not exceed the
    bottom-half max by more than a factor 1.25.  On violation the sample
    achieving the top-half max is the witness.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if R <= 1:
        raise ValueError("R must exceed 1")
    gen = _rng.child_rng(seed, "growth")
    k = P.k
    q_f = float(q)
    mid = R * 100.0
    low_max = 0.0
    high_max = 0.0
    best = 0.0
    witness = None
    top_witness = None
    with mp.workprec(prec):
        for _ in range(samples):
            r = R * 10.0 ** (4 * gen.random())
            x = _sample_point_of_norm(gen, k, r)
            # identically-zero coefficients stay exact so zero roots strip fast
            asc = [evaluate(a, x) for a in reversed(P.coeffs)] + [1]
            rs = roots_from_coeffs(asc, prec)
            denom = mp.mpf(r) ** q_f
            for root, _ in rs.roots:
                ratio = float(abs(root) / denom)
                if ratio > best:
                    best = ratio
                    witness = (tuple(x), root)
                if r <= mid:
                    low_max = max(low_max, ratio)
                elif ratio > high_max:
                    high_max = ratio
                    top_witness = (tuple(x), root)
    holds = high_max <= 1.25 * low_max or (high_max == 0.0 and low_max == 0.0)
    return GrowthCheck(
        holds=holds,
        q=Fraction(q),
        witness_C=best if holds else None,
        violation=None if holds else top_witness,
        low_max=low_max,
        high_max=high_max,
    )


def _sample_point_of_norm(gen, k: int, r: float):
    # one dominant coordinate of modulus r with a random phase; the rest zero
    phase = mp.expjpi(2 * mp.mpf(gen.random()))
    point = [mp.mpc(0)] * k
    point[gen.randrange(k)] = r * phase
    return point


def bounds_table(P: CharPoly, growth: Fraction, graph_deg: int):
    """Rows (j, deg a_j, bound, ok) for the coefficient degree bounds."""
    rows = []
    bounds = coefficient_bounds(P.d, growth, graph_deg)
    for j, a in enumerate(P.coeffs, start=1):
        deg = total_degree(a)
        ok = deg == NEG_INF or deg <= bounds[j - 1]
        rows.append((j, deg, bounds[j - 1], ok))
    return rows
