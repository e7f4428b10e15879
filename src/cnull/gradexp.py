"""Gradient growth exponent for polynomials with proper gradient map.

For a polynomial f of degree d whose gradient is proper with geometric
degree mu and graph degree D, the exponent theta = 1/(d(D - mu + 1)) in
(0, 1/d] bounds |f(x)|^theta by a constant multiple of the gradient norm
for large x.  The profile (mu, D) treats the gradient as a map on C^m
with the identity parametrization: mu counts a generic fiber through
propermaps.fiber_count_at and D is propermaps.graph_degree, both exact
for m in {1, 2}.  The inequality itself is validated empirically on
norm shells and can only be falsified by sampling, never proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import rng as _rng
from .errors import (
    DivisionByZeroGradient,
    InconsistentFiberCounts,
    InvalidInput,
    NonZeroDimensional,
    NotProper,
)
from .polycore import MPoly, evaluate, total_degree
from .propermaps import check_growth, fiber_count_at, graph_degree
from .rng import child_rng
from .variety import polynomial_map


@dataclass(frozen=True)
class GradExpReport:
    d: int
    mu: int | None
    D: int | None
    theta: Fraction
    validated: bool
    max_ratio_C: float
    shells: list[tuple[float, float]]  # (norm scale, max ratio)


def gradient(f: MPoly) -> list[MPoly]:
    """Formal complex gradient (one partial derivative per variable)."""
    out = []
    for i in range(f.var_count):
        terms = {}
        for expo, coeff in f.terms.items():
            if expo[i] > 0:
                reduced = list(expo)
                reduced[i] -= 1
                key = tuple(reduced)
                terms[key] = terms.get(key, Fraction(0)) + coeff * expo[i]
        out.append(MPoly(f.var_count, terms))
    return out


def theta(d: int, D: int, mu: int) -> Fraction:
    """The exponent 1/(d(D - mu + 1)); requires d >= 1 and D >= mu >= 1."""
    if d < 1 or mu < 1 or D < mu:
        raise ValueError("need d >= 1 and D >= mu >= 1")
    return Fraction(1, d * (D - mu + 1))


def grad_profile(f: MPoly, seed: int = 0) -> tuple[int, int]:
    """(mu, D): generic fiber count of the gradient and its graph degree.

    Properness is validated by finite-fiber nondegeneracy plus norm
    growth sampling (propermaps.check_growth), not proved.  mu must agree
    over 3 draws of the value and the shear; D is the max of 3 slices.
    """
    m = f.var_count
    if m > 2:
        raise InvalidInput("gradient profiles implemented for at most 2 variables")
    grads = gradient(f)
    degs = [total_degree(g) for g in grads]
    finite = [d for d in degs if d != float("-inf")]
    if not finite or max(finite) < 1:
        raise NotProper("gradient is constant; fibers are not finite")
    grad_map = polynomial_map(grads)
    if m == 2:
        check_growth(grad_map, child_rng(seed, "proper2d"))
    mu_counts = []
    for draw in range(3):
        gen = child_rng(seed, f"mu:{draw}")
        try:
            mu_counts.append(fiber_count_at(grad_map, _rng.rand_rational_vector(gen, m), gen))
        except NonZeroDimensional as exc:
            raise NotProper("gradient fibers are not finite") from exc
    if len(set(mu_counts)) != 1:
        raise InconsistentFiberCounts(f"gradient fiber counts disagree: {mu_counts}")
    return mu_counts[0], graph_degree(grad_map, seed)


def validate_inequality(
    f: MPoly,
    theta_value: Fraction,
    shells=(10.0, 100.0, 1000.0, 10000.0),
    samples_per_shell: int = 200,
    seed: int = 0,
) -> GradExpReport:
    """Empirical check of |f(x)|^theta <= C |grad f(x)| on norm shells.

    Reports the per-shell maxima of the ratio; validated means the top
    two shells stay within a factor 2 of each other (a bounded-trend
    test), so at least two positive, increasing shells are needed.
    Samples with vanishing gradient are redrawn within a budget.  mu and
    D are left unset; gradexp_report attaches them.
    """
    theta_value = Fraction(theta_value)
    if not 0 < theta_value <= 1:
        raise InvalidInput("theta must lie in (0, 1]")
    if len(shells) < 2 or not all(0 < a < b for a, b in zip(shells, shells[1:])):
        raise InvalidInput("shells must be at least two positive, increasing norm scales")
    if samples_per_shell < 1:
        raise InvalidInput("samples_per_shell must be at least 1")
    grads = gradient(f)
    exponent = float(theta_value)
    gen = child_rng(seed, "shells")
    shell_rows = []
    overall = 0.0
    for scale in shells:
        best = 0.0
        produced = 0
        attempts = 0
        budget = 10 * samples_per_shell
        while produced < samples_per_shell:
            if attempts >= budget:
                raise DivisionByZeroGradient(
                    f"gradient vanished on too many samples at shell {scale}"
                )
            attempts += 1
            x = _complex_sphere_point(gen, f.var_count, scale)
            grad_norm = math.hypot(*(abs(evaluate(g, x)) for g in grads))
            if grad_norm == 0.0:
                continue
            produced += 1
            value = abs(evaluate(f, x))
            ratio = value**exponent / grad_norm
            best = max(best, ratio)
        shell_rows.append((float(scale), best))
        overall = max(overall, best)
    validated = shell_rows[-1][1] <= 2.0 * shell_rows[-2][1]
    return GradExpReport(
        d=int(total_degree(f)),
        mu=None,
        D=None,
        theta=theta_value,
        validated=validated,
        max_ratio_C=overall,
        shells=shell_rows,
    )


def _complex_sphere_point(gen, m: int, scale: float):
    while True:
        coords = [complex(gen.gauss(0.0, 1.0), gen.gauss(0.0, 1.0)) for _ in range(m)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in coords))
        if norm > 1e-9:
            return [c * (scale / norm) for c in coords]


def gradexp_report(f: MPoly, seed: int = 0, prec: int = 256, shells=(10.0, 100.0, 1000.0, 10000.0), samples_per_shell: int = 200) -> GradExpReport:
    """Full pipeline: profile, exponent, and shell validation.

    prec is not read: every step is exact or runs in double precision.
    It stays for callers that pass it, such as the benchmark workloads.
    """
    d = total_degree(f)
    if d == float("-inf") or d < 1:
        raise InvalidInput("polynomial must be nonconstant")
    mu, D = grad_profile(f, seed)
    exponent = theta(int(d), D, mu)
    report = validate_inequality(
        f, exponent, shells=shells, samples_per_shell=samples_per_shell, seed=seed
    )
    return replace(report, mu=mu, D=D)
