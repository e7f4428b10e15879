"""Gradient growth exponent for polynomials with proper gradient map.

For a polynomial f of degree d whose gradient is proper with geometric
degree mu and graph degree D, the exponent theta = 1/(d(D - mu + 1)) in
(0, 1/d] bounds |f(x)|^theta by a constant multiple of the gradient norm
for large x.  The profile (mu, D) treats the gradient as a map on C^m
with the identity parametrization and reads both numbers from
propermaps.profile_map, the properness check and degree profile of every
map, exact for m in {1, 2}.  The inequality itself is validated
empirically on the fixed norm shells |x| = 10, 100, 1000 and 10^4,
with 200 points on each, and can only be falsified by sampling, never
proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DivisionByZeroGradient, InvalidInput
from .polycore import MPoly, evaluator, total_degree
from .propermaps import profile_map
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

    Both come from propermaps.profile_map on the gradient map, which also
    checks properness exactly (NotProper when it fails).
    """
    if f.var_count > 2:
        raise InvalidInput("gradient profiles implemented for at most 2 variables")
    profile = profile_map(polynomial_map(gradient(f)), seed)
    return profile.d_f, profile.graph_degree


SHELLS = (10.0, 100.0, 1000.0, 10000.0)  # norm scales of the sampled shells
SAMPLES_PER_SHELL = 200


def validate_inequality(f: MPoly, theta_value: Fraction, seed: int = 0) -> GradExpReport:
    """Empirical check of |f(x)|^theta <= C |grad f(x)| on the norm shells SHELLS.

    Reports the per-shell maxima of the ratio over SAMPLES_PER_SHELL
    points each; validated means the top two shells stay within a factor
    2 of each other (a bounded-trend test).  Samples with vanishing
    gradient are redrawn within a budget.  mu and D are left unset;
    gradexp_report attaches them.
    """
    theta_value = Fraction(theta_value)
    if not 0 < theta_value <= 1:
        raise InvalidInput("theta must lie in (0, 1]")
    at = evaluator([*gradient(f), f])
    exponent = float(theta_value)
    gen = child_rng(seed, "shells")
    shell_rows = []
    for scale in SHELLS:
        best = 0.0
        produced = 0
        attempts = 0
        while produced < SAMPLES_PER_SHELL:
            if attempts >= 10 * SAMPLES_PER_SHELL:
                raise DivisionByZeroGradient(
                    f"gradient vanished on too many samples at shell {scale}"
                )
            attempts += 1
            x = _complex_sphere_point(gen, f.var_count, scale)
            *grad_values, value = at(x)
            grad_norm = math.hypot(*map(abs, grad_values))
            if grad_norm == 0.0:
                continue
            produced += 1
            ratio = abs(value) ** exponent / grad_norm
            best = max(best, ratio)
        shell_rows.append((scale, best))
    validated = shell_rows[-1][1] <= 2.0 * shell_rows[-2][1]
    return GradExpReport(
        d=int(total_degree(f)),
        mu=None,
        D=None,
        theta=theta_value,
        validated=validated,
        max_ratio_C=max(best for _, best in shell_rows),
        shells=shell_rows,
    )


def _complex_sphere_point(gen, m: int, scale: float):
    while True:
        coords = [complex(gen.gauss(0.0, 1.0), gen.gauss(0.0, 1.0)) for _ in range(m)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in coords))
        if norm > 1e-9:
            return [c * (scale / norm) for c in coords]


def gradexp_report(f: MPoly, seed: int = 0, prec: int = 256) -> GradExpReport:
    """Full pipeline: profile, exponent, and shell validation.

    prec is not read: every step is exact or runs in double precision.
    It stays for callers that pass it, such as the benchmark workloads.
    """
    d = total_degree(f)
    if d == float("-inf") or d < 1:
        raise InvalidInput("polynomial must be nonconstant")
    mu, D = grad_profile(f, seed)
    exponent = theta(int(d), D, mu)
    report = validate_inequality(f, exponent, seed=seed)
    return replace(report, mu=mu, D=D)
