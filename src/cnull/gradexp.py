"""Gradient growth exponent for polynomials with proper gradient map.

For a polynomial f of degree d whose gradient is proper with geometric
degree mu and graph degree D, the exponent theta = 1/(d(D - mu + 1)) in
(0, 1/d] bounds |f(x)|^theta by a constant multiple of the gradient norm
for large x.  The profile (mu, D) treats the gradient as a map on C^m
with the identity parametrization: mu counts a generic fiber through
propermaps.fiber_points, the one fiber slot for m in {1, 2}, and D
counts graph slices through the shared slicing loop.  The inequality
itself is validated empirically on norm shells and can only be
falsified by sampling, never proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import rng as _rng
from .errors import (
    DivisionByZeroGradient,
    NonZeroDimensional,
    NotProper,
    PrecisionExhausted,
)
from .polycore import MPoly, evaluate, total_degree
from .propermaps import fiber_points, graph_slice_count
from .rng import child_rng
from .variety import polynomial_map, slice_count


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


def grad_profile(f: MPoly, seed: int = 0, prec: int = 256) -> tuple[int, int]:
    """(mu, D): generic fiber count of the gradient and its graph degree.

    Properness is validated by finite-fiber nondegeneracy plus norm
    growth sampling, not proved; both counts must be stable over 3
    independent draws.
    """
    m = f.var_count
    if m > 2:
        raise ValueError("gradient profiles implemented for at most 2 variables")
    grads = gradient(f)
    degs = [total_degree(g) for g in grads]
    finite = [d for d in degs if d != float("-inf")]
    if not finite or max(finite) < 1:
        raise NotProper("gradient is constant; fibers are not finite")
    if m == 2:
        _growth_gate(grads, child_rng(seed, "proper2d"))
    grad_map = polynomial_map(grads)
    mu_counts = []
    for draw in range(3):
        y = _rng.rand_rational_vector(child_rng(seed, f"mu:{draw}"), m)
        try:
            mu_counts.append(len(fiber_points(grad_map, y, prec)))
        except NonZeroDimensional as exc:
            raise NotProper("gradient fibers are not finite") from exc
    if len(set(mu_counts)) != 1:
        raise PrecisionExhausted(f"gradient fiber counts disagree: {mu_counts}")
    D = slice_count(seed, "graph", lambda gen: graph_slice_count(grad_map, gen, prec))
    return mu_counts[0], D


def _growth_gate(grads: list[MPoly], gen):
    """Norm-growth sampling: the gradient must grow along parameter spheres."""
    dirs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)]
    dirs += [(gen.uniform(-1, 1), gen.uniform(-1, 1)) for _ in range(8)]
    mins = []
    for radius in (10.0, 1000.0):
        best = None
        for dx, dy in dirs:
            norm = math.hypot(dx, dy)
            if norm == 0:
                continue
            x = [complex(radius * dx / norm), complex(radius * dy / norm)]
            size = math.hypot(*(abs(evaluate(g, x)) for g in grads))
            best = size if best is None else min(best, size)
        mins.append(best)
    if mins[1] < max(4 * mins[0], 1e-9):
        raise NotProper("gradient norm does not grow along spheres")


def validate_inequality(
    f: MPoly,
    theta_value: Fraction,
    shells=(10.0, 100.0, 1000.0, 10000.0),
    samples_per_shell: int = 200,
    seed: int = 0,
    mu: int | None = None,
    D: int | None = None,
) -> GradExpReport:
    """Empirical check of |f(x)|^theta <= C |grad f(x)| on norm shells.

    Reports the per-shell maxima of the ratio; validated means the top
    two shells stay within a factor 2 of each other (a bounded-trend
    test).  Samples with vanishing gradient are redrawn within a budget.
    """
    theta_value = Fraction(theta_value)
    if not 0 < theta_value <= 1:
        raise ValueError("theta must lie in (0, 1]")
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
        mu=mu,
        D=D,
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
    """Full pipeline: profile, exponent, and shell validation."""
    d = total_degree(f)
    if d == float("-inf") or d < 1:
        raise ValueError("polynomial must be nonconstant")
    mu, D = grad_profile(f, seed, prec)
    exponent = theta(int(d), D, mu)
    return validate_inequality(
        f, exponent, shells=shells, samples_per_shell=samples_per_shell, seed=seed, mu=mu, D=D
    )
