"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent tuples to nonzero Fraction
coefficients.  Everything downstream (pullbacks along parametrizations,
characteristic polynomials, certificate identities) rides on this module,
so all its operations are exact but one: evaluator, the one numeric
entry point, evaluates polynomials at float, complex or mpmath points.
It rounds each coefficient once, correctly, at the precision in force
when it is made (double precision for floats), and is to be called
under that precision.  evaluate is exact, and refuses a numeric point.

Every MPoly keeps one invariant on its ``terms`` dict: the keys are
tuples of ``var_count`` nonnegative ints and the values are nonzero
``Fraction``s.  The public constructor ``MPoly(var_count, terms)`` (and
through it the JSON parser) validates and normalizes any input into this
form.  The operations of this module build their results from operands
that already hold it, so they use the trusted constructor ``MPoly._raw``,
which checks nothing; code that calls it must produce the invariant
itself.

Eliminations run over the integers: subresultants clears each operand
of its denominators once, runs the Brown-Collins sequence on integer
term dicts (every division exact), and scales its results back by powers
of the two denominators.  The term-dict helpers take Fraction or int
values, so MPoly and that loop share them.  So does interpolation, over
one denominator: grid_interpolant makes Fractions only for its results.

The canonical term order is graded lexicographic with variable 1 most
significant.  It fixes serialization, leading-term selection in exact
division, and the tie-break rule used by the certificate search.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, getitem, sub, truediv
from typing import Iterable, Sequence

from .errors import GridMalformed, InconsistentSamples, NotDivisible

# Degree of the zero polynomial; excluded from max/ratio computations.
NEG_INF = float("-inf")


def _grlex_key(expo: tuple[int, ...]) -> tuple:
    return (sum(expo), expo)


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms=None):
        if var_count < 0:
            raise ValueError("var_count must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for expo, coeff in items:
                expo = tuple(int(e) for e in expo)
                if len(expo) != var_count:
                    raise ValueError("exponent length does not match var_count")
                if any(e < 0 for e in expo):
                    raise ValueError("negative exponent")
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                acc = clean.get(expo, Fraction(0)) + coeff
                if acc == 0:
                    clean.pop(expo, None)
                else:
                    clean[expo] = acc
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, var_count: int, terms: dict) -> "MPoly":
        """Trusted constructor: takes ownership of `terms`, which must hold the invariant."""
        p = object.__new__(cls)
        object.__setattr__(p, "var_count", var_count)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(var_count: int) -> "MPoly":
        return MPoly(var_count)

    @staticmethod
    def const(var_count: int, value) -> "MPoly":
        return MPoly(var_count, {(0,) * var_count: Fraction(value)})

    @staticmethod
    def variable(var_count: int, index: int) -> "MPoly":
        """The polynomial x_index (0-based)."""
        if not 0 <= index < var_count:
            raise ValueError(f"variable index {index} out of range for {var_count} vars")
        expo = [0] * var_count
        expo[index] = 1
        return MPoly._raw(var_count, {tuple(expo): Fraction(1)})

    # -- predicates / views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.var_count, Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    def degree_in(self, index: int) -> int:
        """Degree in variable `index`; -1 convention is not used: 0 for constants, raises on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(e[index] for e in self.terms)

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "MPoly"):
        if self.var_count != other.var_count:
            raise ValueError(
                f"variable-count mismatch: {self.var_count} vs {other.var_count}"
            )

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            if expo in out:
                out[expo] += coeff
            else:
                out[expo] = coeff
        return MPoly._raw(self.var_count, _nonzero(out))

    def __sub__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        return MPoly._raw(self.var_count, _sub_terms(self.terms, other.terms))

    def __neg__(self) -> "MPoly":
        return MPoly._raw(self.var_count, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        return MPoly._raw(self.var_count, _mul_terms(self.terms, other.terms))

    def scale(self, value) -> "MPoly":
        value = Fraction(value)
        if value == 0:
            return MPoly._raw(self.var_count, {})
        return MPoly._raw(self.var_count, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        return MPoly._raw(self.var_count, _pow_terms(self.terms, n, {(0,) * self.var_count: Fraction(1)}))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.var_count == other.var_count
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.var_count, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MPoly({self.var_count}, {self.sorted_terms()!r})"


def _nonzero(terms: dict) -> dict:
    """`terms` without its zero values (the accumulation loops leave them in)."""
    if all(terms.values()):
        return terms
    return {e: c for e, c in terms.items() if c}


def _sub_terms(a: dict, b: dict) -> dict:
    """The difference of two term dicts, of Fraction or of int coefficients."""
    out = dict(a)
    for expo, coeff in b.items():
        if expo in out:
            out[expo] -= coeff
        else:
            out[expo] = -coeff
    return _nonzero(out)


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts, of Fraction or of int coefficients."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            expo = tuple(map(add, ea, eb))
            if expo in out:
                out[expo] += ca * cb
            else:
                out[expo] = ca * cb
    return _nonzero(out)


def _pow_terms(a: dict, n: int, one: dict) -> dict:
    """a**n for a term dict, by repeated squaring from the term dict one."""
    result = one
    while n:
        if n & 1:
            result = _mul_terms(result, a)
        n >>= 1
        if n:
            a = _mul_terms(a, a)
    return result


def evaluate(p: MPoly, point: Sequence) -> Fraction:
    """Evaluate exactly at a point of ints and Fractions; a numeric point goes to evaluator."""
    vals = list(point)
    if len(vals) != p.var_count:
        raise ValueError("point length does not match var_count")
    if not all(isinstance(v, (int, Fraction)) for v in vals):
        raise TypeError("evaluate is exact: evaluate a numeric point with evaluator")
    # powers[i][e] = vals[i]**e, each computed once per call
    powers: list[dict] = [{} for _ in vals]
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for i, e in enumerate(expo):
            if e:
                cache = powers[i]
                if e not in cache:
                    cache[e] = vals[i] ** e
                term *= cache[e]
        total += term
    return total


def evaluator(polys: Sequence[MPoly], use_mp: bool = False):
    """point -> [p(point) for p in polys], numerically; the one numeric evaluation.

    Each coefficient is converted once, here, by dividing its numerator by
    its denominator in the target arithmetic, so that it is correctly
    rounded: to a float, or with use_mp to an mpf at the mpmath precision
    in force when the evaluator is made.  Call it under that precision.
    The terms keep the canonical order, each point's coordinate powers are
    computed once for all of polys, and the zero polynomial gives the
    exact int 0.
    """
    if use_mp:
        import mpmath as mp

        def conv(q: Fraction):
            return mp.mpf(q.numerator) / mp.mpf(q.denominator)
    else:
        def conv(q: Fraction):
            return q.numerator / q.denominator

    polys = list(polys)
    n = polys[0].var_count if polys else 0
    slots: dict[tuple[int, int], int] = {}  # (variable, exponent) -> index into a point's powers
    compiled = []
    for p in polys:
        if p.var_count != n:
            raise ValueError("polynomials must share one var_count")
        terms = []
        for expo, coeff in p.sorted_terms():
            factors = []
            for i, e in enumerate(expo):
                if e:
                    factors.append(slots.setdefault((i, e), len(slots)))
            terms.append((conv(coeff), factors))
        compiled.append(terms)
    needed = list(slots)

    def at(point: Sequence) -> list:
        if len(point) != n:
            raise ValueError("point length does not match var_count")
        powers = [point[i] ** e for i, e in needed]
        out = []
        for terms in compiled:
            total = 0
            for term, factors in terms:
                for j in factors:
                    term = term * powers[j]
                total = total + term
            out.append(total)
        return out

    return at


def compose(p: MPoly, subs: Sequence[MPoly]) -> MPoly:
    """Substitute subs[i] for variable i; exact."""
    subs = list(subs)
    if len(subs) != p.var_count:
        raise ValueError("substitution length does not match var_count")
    if not subs:
        return MPoly._raw(0, dict(p.terms))
    inner_vars = subs[0].var_count
    for s in subs:
        if s.var_count != inner_vars:
            raise ValueError("substitution polynomials must share one var_count")
    # Cache powers of each substituted polynomial.
    one = MPoly.const(inner_vars, 1)
    pow_cache: list[dict[int, MPoly]] = [{0: one} for _ in range(p.var_count)]

    def power(i: int, e: int) -> MPoly:
        cache = pow_cache[i]
        if e not in cache:
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for k in range(best + 1, e + 1):
                acc = acc * subs[i]
                cache[k] = acc
        return cache[e]

    out: dict[tuple[int, ...], Fraction] = {}
    for expo, coeff in p.terms.items():
        term = one
        for i, e in enumerate(expo):
            if e:
                term = power(i, e) if term is one else term * power(i, e)
        for te, tc in term.terms.items():
            if te in out:
                out[te] += coeff * tc
            else:
                out[te] = coeff * tc
    return MPoly._raw(inner_vars, _nonzero(out))


def exact_divide(p: MPoly, q: MPoly) -> MPoly:
    """Return r with r*q == p, or raise NotDivisible.

    Single-divisor division in graded-lex order; the remainder is zero
    exactly when p lies in the principal ideal (q), so the first leading
    term not divisible by the leading term of q already decides.  The
    remainder's exponents wait in a heap, largest first; an exponent that
    cancelled since it was pushed is skipped when it comes up.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_compatible(q)
    return MPoly._raw(p.var_count, _divide_terms(p.terms, q.terms, truediv))


def _int_quotient(a: int, b: int) -> int:
    """a / b for integers b that divide a; NotDivisible otherwise."""
    quot, rem = divmod(a, b)
    if rem:
        raise NotDivisible("an integer coefficient does not divide")
    return quot


def _divide_terms(p: dict, q: dict, quotient) -> dict:
    """exact_divide on term dicts, with quotient(a, b) dividing one coefficient by another."""
    if not p:
        return {}
    lt_e = max(q, key=_grlex_key)
    lt_c = q[lt_e]
    rem = dict(p)
    quot: dict = {}
    heap = [_heap_key(e) for e in rem]
    heapq.heapify(heap)
    while rem:
        expo = heapq.heappop(heap)[1]
        if expo not in rem:
            continue
        coeff = rem[expo]
        if any(a < b for a, b in zip(expo, lt_e)):
            raise NotDivisible("remainder is nonzero")
        qe = tuple(map(sub, expo, lt_e))
        qc = quotient(coeff, lt_c)
        # each step's quotient term is below the previous one in the term order
        quot[qe] = qc
        for be, bc in q.items():
            ke = tuple(map(add, qe, be))
            if ke in rem:
                acc = rem[ke] - qc * bc
                if acc:
                    rem[ke] = acc
                else:
                    del rem[ke]
            else:
                rem[ke] = -qc * bc
                heapq.heappush(heap, _heap_key(ke))
    return quot


def _heap_key(expo: tuple[int, ...]) -> tuple:
    """A min-heap key that orders exponents by descending graded-lex order, with the exponent."""
    return (-sum(expo), tuple(-e for e in expo)), expo


def total_degree(p: MPoly):
    """Max exponent sum, or NEG_INF for the zero polynomial."""
    if p.is_zero():
        return NEG_INF
    return max(sum(e) for e in p.terms)


# ---------------------------------------------------------------------------
# univariate views and utilities


def univ_coeffs(p: MPoly) -> list[Fraction]:
    """Ascending coefficient list of a univariate polynomial."""
    if p.var_count != 1:
        raise ValueError("univariate polynomial expected")
    if p.is_zero():
        return []
    deg = max(e[0] for e in p.terms)
    out = [Fraction(0)] * (deg + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def univ_from_coeffs(coeffs: Iterable) -> MPoly:
    terms = {(i,): Fraction(c) for i, c in enumerate(coeffs)}
    return MPoly._raw(1, _nonzero(terms))


def univ_derivative(p: MPoly) -> MPoly:
    if p.var_count != 1:
        raise ValueError("univariate polynomial expected")
    return MPoly._raw(1, {(e - 1,): c * e for (e,), c in p.terms.items() if e > 0})


def univ_monic(p: MPoly) -> MPoly:
    _, lc = p.leading_term()
    return p.scale(1 / lc)


def univ_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Monic gcd in Q[t] by the Euclidean algorithm."""
    if p.var_count != 1 or q.var_count != 1:
        raise ValueError("univariate polynomials expected")
    a, b = p, q
    while not b.is_zero():
        a, b = b, _univ_rem(a, b)
    if a.is_zero():
        return a
    return univ_monic(a)


def _univ_rem(a: MPoly, b: MPoly) -> MPoly:
    bc = univ_coeffs(b)
    db = len(bc) - 1
    lc = bc[-1]
    rem = univ_coeffs(a)
    while len(rem) - 1 >= db and rem:
        da = len(rem) - 1
        factor = rem[-1] / lc
        for i in range(db + 1):
            rem[da - db + i] -= factor * bc[i]
        while rem and rem[-1] == 0:
            rem.pop()
    return univ_from_coeffs(rem)


def distinct_root_count(p: MPoly) -> int:
    """Number of distinct complex roots: degree of p / gcd(p, p')."""
    coeffs = univ_coeffs(p)
    if len(coeffs) <= 1:
        raise ValueError("nonconstant polynomial expected")
    g = univ_gcd(p, univ_derivative(p))
    return (len(coeffs) - 1) - (len(univ_coeffs(g)) - 1)


def squarefree_factors(p: MPoly) -> list[MPoly]:
    """Yun's squarefree decomposition: monic S_1, S_2, ... with p = c * prod S_i^i.

    The roots of S_i are the roots of p of multiplicity exactly i, and an
    S_i without roots is the constant 1; a nonzero constant p has none.
    """
    dp = univ_derivative(p)
    a = univ_gcd(p, dp)
    b, d = exact_divide(p, a), exact_divide(dp, a)
    factors = []
    while not b.is_constant():
        d = d - univ_derivative(b)
        s = univ_gcd(b, d)
        factors.append(s)
        b, d = exact_divide(b, s), exact_divide(d, s)
    return factors


class ResidueRing:
    """The residue ring Q[x]/(R) of a nonconstant univariate R, in integer arithmetic.

    A residue is a pair (c, den) of d = deg R integers and a positive
    integer: the class of (c[0] + c[1] x + ... + c[d-1] x^(d-1)) / den,
    with gcd(c, den) = 1, so each class has one residue whatever nonzero
    multiple of R the ring was built from (from_integers takes one with
    integer coefficients), and residues compare with ==.  R is held as
    primitive integers r with a positive leading coefficient, so reduction
    is integer pseudo-division and each operation normalizes by one gcd.
    A residue times a rational (scale) needs no reduction at all.  The inverse is
    the extended Euclidean algorithm on integer polynomials; traces and
    the characteristic polynomial make one Fraction per value.
    """

    def __init__(self, modulus: MPoly):
        coeffs = univ_coeffs(modulus)
        den = math.lcm(1, *(c.denominator for c in coeffs))
        self._set_modulus([c.numerator * (den // c.denominator) for c in coeffs])

    @classmethod
    def from_integers(cls, coeffs: list[int]) -> "ResidueRing":
        """Q[x]/(R) for R with ascending integer coefficients coeffs, the last one nonzero.

        Q[x]/(R) depends on R only up to a nonzero scalar: for a rational
        modulus, any integer multiple of it gives ResidueRing(modulus),
        residue for residue.
        """
        ring = object.__new__(cls)
        ring._set_modulus(coeffs)
        return ring

    def _set_modulus(self, coeffs: list[int]) -> None:
        """Hold R = coeffs as the primitive integer polynomial with a positive lead, and its traces."""
        d = len(coeffs) - 1
        if d < 1:
            raise ValueError("nonconstant modulus expected")
        content = math.gcd(*coeffs) if coeffs[-1] > 0 else -math.gcd(*coeffs)
        self.d, self._r = d, [c // content for c in coeffs]
        # lead^(d-1) * (power sums of the roots of R), from Newton's identities
        r, lead = self._r, self._r[d]
        sums = [d]  # sums[m] = lead^m * (sum of m-th powers of the roots)
        for m in range(1, d):
            acc = m * r[d - m] * lead ** (m - 1)
            acc += sum(r[d - i] * sums[m - i] * lead ** (i - 1) for i in range(1, m))
            sums.append(-acc)
        self._traces = [s * lead ** (d - 1 - m) for m, s in enumerate(sums)]
        self._trace_den = lead ** (d - 1)

    def element(self, coeffs: Sequence) -> tuple[list[int], int]:
        """The residue of the polynomial with ascending rational coefficients coeffs."""
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(1, *(c.denominator for c in coeffs))
        return self.reduce([int(c * den) for c in coeffs], den)

    def reduce(self, c: list[int], den: int) -> tuple[list[int], int]:
        """The residue of the integer polynomial c (consumed) over den > 0, by pseudo-division by R."""
        r, d = self._r, self.d
        lead = r[d]
        while len(c) > d:
            top = c.pop()
            if top:
                shift = len(c) - d
                if lead != 1:
                    c = [v * lead for v in c]
                    den *= lead
                for i in range(d):
                    c[shift + i] -= top * r[i]
        c += [0] * (d - len(c))
        g = math.gcd(den, *c)
        return [v // g for v in c], den // g

    def add(self, a, b):
        (ac, ad), (bc, bd) = a, b
        return self.reduce([x * bd + y * ad for x, y in zip(ac, bc)], ad * bd)

    def mul(self, a, b):
        (ac, ad), (bc, bd) = a, b
        w = [0] * (2 * self.d - 1)
        for i, x in enumerate(ac):
            if x:
                for j, y in enumerate(bc):
                    w[i + j] += x * y
        return self.reduce(w, ad * bd)

    def inverse(self, a):
        """The inverse of a, or None when a shares a root with R (zero included).

        By the extended Euclidean algorithm in integers, on R and the
        numerator c of a = c/den: a primitive remainder sequence that
        carries only c's cofactor u, with u*c = r mod R for each
        remainder r.  Each step is an integer pseudo-division of the pair
        (r, u), then divided by the common content of r and u.  a is a
        unit exactly when the last nonzero remainder is a constant k, and
        then a^-1 = den*u/k.
        """
        c, den = a
        (r0, u0), (r1, u1) = (self._r, []), (c[:], [1])
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) < 2:
                break
            lead, n = r1[-1], len(r1) - 1
            r, u = r0[:], u0[:]
            while len(r) > n:
                top = r.pop()
                if top:
                    shift = len(r) - n
                    r = [v * lead for v in r]
                    u = [v * lead for v in u] + [0] * (shift + len(u1) - len(u))
                    for i in range(n):
                        r[shift + i] -= top * r1[i]
                    for i, v in enumerate(u1):
                        u[shift + i] -= top * v
            g = math.gcd(*r, *u)
            (r0, u0), (r1, u1) = (r1, u1), ([v // g for v in r], [v // g for v in u])
        if not r1:  # a is zero, or the last nonzero remainder r0 is not constant
            return None
        sign = 1 if r1[0] > 0 else -1
        return self.reduce([sign * den * v for v in u1], abs(r1[0]))

    @staticmethod
    def scale(a, q):
        """q * a for a rational q, in O(d): no product of residues, no reduction."""
        (c, den), n = a, q.numerator
        c, den = [v * n for v in c], den * q.denominator
        g = math.gcd(den, *c)
        return [v // g for v in c], den // g

    def charpoly(self, a) -> list[Fraction]:
        """c_1 .. c_d with prod (s - a(x_i)) = s^d + c_1 s^(d-1) + ... + c_d over the roots x_i of R.

        The characteristic polynomial of multiplication by a, from the
        traces of its powers by Newton's identities, in integers: with
        L = den(a) * lead(R)^(d-1), each L*a(x_i) is an algebraic integer,
        so T_m = L^m Tr(a^m) and E_m = L^m e_m are integers for the
        elementary symmetric functions e_m of the a(x_i), and
        m E_m = sum_(i=1..m) (-1)^(i-1) E_(m-i) T_i divides by m exactly.
        """
        d, den, scale = self.d, a[1], self._trace_den  # scale = lead(R)^(d-1)
        sums, power = [], a
        for m in range(1, d + 1):
            c, power_den = power
            # L^m Tr(a^m), with Tr(a^m) = sum(c * traces) / (power_den * scale)
            trace = sum(x * t for x, t in zip(c, self._traces))
            sums.append(trace * den**m * scale ** (m - 1) // power_den)
            if m < d:
                power = self.mul(power, a)
        E = [1]
        for m in range(1, d + 1):
            E.append(sum((-1) ** (i - 1) * E[m - i] * sums[i - 1] for i in range(1, m + 1)) // m)
        L = den * scale
        return [Fraction((-1) ** m * E[m], L**m) for m in range(1, d + 1)]


# ---------------------------------------------------------------------------
# coefficient views in one distinguished variable, resultants


def coeffs_in_var(p: MPoly, index: int) -> list[MPoly]:
    """Ascending coefficients of p seen as univariate in variable `index`.

    Coefficients keep the same var_count with exponent 0 in `index`.
    """
    if p.is_zero():
        return []
    deg = max(e[index] for e in p.terms)
    buckets: list[dict] = [dict() for _ in range(deg + 1)]
    for expo, coeff in p.terms.items():
        stripped = list(expo)
        k = stripped[index]
        stripped[index] = 0
        buckets[k][tuple(stripped)] = coeff
    return [MPoly._raw(p.var_count, b) for b in buckets]


def drop_var(p: MPoly, index: int) -> MPoly:
    """p, free of variable `index`, as a polynomial in the other var_count - 1 variables."""
    return MPoly._raw(p.var_count - 1, {e[:index] + e[index + 1:]: c for e, c in p.terms.items()})


def subresultants(p: MPoly, q: MPoly, index: int) -> tuple[MPoly, list[MPoly] | None]:
    """The resultant of p and q in variable `index`, and the last member of degree 1 of their sequence.

    Both come from one subresultant polynomial remainder sequence (Collins
    1967; Brown and Traub 1971), by the Brown-Collins algorithm (Cohen,
    GTM 138, Alg. 3.3.7).  Every division in it is exact over an integral
    domain, so it runs over the integers: p and q are cleared of their
    denominators once, to ca*p and cb*q with integer coefficients, and
    the sequence takes integer polynomials in the other variables as its
    coefficients.  A subresultant of index j is homogeneous of degree
    deg q - j in the coefficients of p and deg p - j in those of q, so the
    results are scaled back exactly: the resultant (index 0) by
    ca^deg(q) * cb^deg(p), a remainder of degree 1 by
    ca^(deg q - j) * cb^(deg p - j) for its index j, and an operand of
    degree 1 is returned as given.  The resultant follows
    sylvester_resultant's convention.  The second value is the last
    member of degree 1 in the sequence p, q, remainders, as its ascending
    coefficients [s0, s1], or None when no member has degree 1.  Both
    are polynomials in the other var_count - 1 variables.  Every member
    is u*p + v*q with polynomial u and v, so where p and q share a root in
    the variable and s1 does not vanish, that root is -s0/s1.
    """
    (a, ca), (b, cb) = (_integer_coeffs(h, index) for h in (p, q))
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    m, n, k = len(a) - 1, len(b) - 1, p.var_count - 1  # deg p, deg q
    linear = next(((c, scale) for c, scale in ((b, cb), (a, ca)) if len(c) == 2), None)
    sign = 1
    if m < n:
        a, b = b, a
        sign = (-1) ** (m * n)
    one = {(0,) * k: 1}
    g = h = one
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        r = _pseudo_remainder(a, b, one)
        if not r:  # b divides a: a common factor
            res = {}
            break
        divisor = _mul_terms(g, _pow_terms(h, delta, one))
        a, b = b, [_divide_terms(c, divisor, _int_quotient) for c in r]
        g = a[-1]
        if delta:
            h = _divide_terms(_pow_terms(g, delta, one), _pow_terms(h, delta - 1, one), _int_quotient)
        if len(b) == 2:
            j = len(a) - 2  # b is the subresultant of index deg a - 1
            linear = b, ca ** (n - j) * cb ** (m - j)
    else:
        deg = len(a) - 1
        res = _divide_terms(_pow_terms(b[0], deg, one), _pow_terms(h, deg - 1, one), _int_quotient) if deg else h
    res = _from_integers(res, k, sign * ca**n * cb**m)
    return res, linear and [_from_integers(c, k, linear[1]) for c in linear[0]]


def _integer_coeffs(p: MPoly, index: int) -> tuple[list[dict], int]:
    """The ascending coefficients of den*p in variable `index`, without it, as integer term dicts, and den > 0."""
    den = math.lcm(1, *(c.denominator for c in p.terms.values()))
    out: list[dict] = [{} for _ in range(1 + max((e[index] for e in p.terms), default=-1))]
    for e, c in p.terms.items():
        out[e[index]][e[:index] + e[index + 1:]] = c.numerator * (den // c.denominator)
    return out, den


def _from_integers(terms: dict, var_count: int, den: int) -> MPoly:
    """The MPoly of an integer term dict over a nonzero den."""
    return MPoly._raw(var_count, {e: Fraction(c, den) for e, c in terms.items()})


def _pseudo_remainder(a: list[dict], b: list[dict], one: dict) -> list[dict]:
    """lc(b)^(deg a - deg b + 1) * a mod b, for ascending lists of integer term dicts with deg a >= deg b."""
    lead, db = b[-1], len(b) - 1
    r, steps = list(a), len(a) - db
    while len(r) > db:
        top = r.pop()
        shift = len(r) - db
        r = [_mul_terms(c, lead) for c in r]
        if top:
            for i, c in enumerate(b[:-1]):
                r[shift + i] = _sub_terms(r[shift + i], _mul_terms(top, c))
        steps -= 1
        while r and not r[-1]:
            r.pop()
    if not steps:
        return r
    scale = _pow_terms(lead, steps, one)
    return [_mul_terms(c, scale) for c in r]


def sylvester_resultant(p: MPoly, q: MPoly, index: int) -> MPoly:
    """Resultant of p and q with respect to variable `index`.

    Exact; the result is a polynomial in the other var_count - 1
    variables, in their order.  Follows the convention
    Res = lc(p)^deg(q) * prod q(roots of p), the determinant of the
    Sylvester matrix with the rows of p first, and equal to 1 when both
    are constant.
    """
    return subresultants(p, q, index)[0]


# ---------------------------------------------------------------------------
# interpolation on lower sets


def interpolate(samples, bound: int) -> MPoly:
    """grid_interpolant's polynomial; InconsistentSamples when a sample, or a repeated point, does not fit it."""
    if bound < 0:
        raise ValueError("negative degree bound")
    seen: dict[tuple, Fraction] = {}
    for point, value in samples:
        pt = tuple(c if type(c) is int else Fraction(c) for c in point)  # 2 and Fraction(2) hash alike
        val = Fraction(value)
        if seen.setdefault(pt, val) != val:
            raise InconsistentSamples(f"conflicting values at {pt}")
    result = grid_interpolant(seen.items(), bound)
    if result is None:
        raise InconsistentSamples("no interpolant within the degree bound matches all samples")
    return result


def grid_interpolant(samples, bound: int) -> MPoly | None:
    """The polynomial of total degree at most bound through the samples, or None.

    samples: (point, value) pairs with int or Fraction entries, one value
    per point.  Numbering each variable's coordinates in the order they
    first appear gives each point an index alpha; the indices must form a
    lower set that holds every alpha with |alpha| <= bound.  One pass of
    Newton divided differences over it (Dyn and Floater, 2014) gives the
    interpolant's coefficient c_alpha on prod_i prod_(m < alpha_i)
    (y_i - node_(i,m)), of degree |alpha|: the samples fit degree bound
    exactly when every c_alpha with |alpha| > bound vanishes.

    In integers throughout: axis i runs on the nodes B_i*node_(i,m), with
    B_i the lcm of their denominators (the coefficient of y_i^e is then
    multiplied by B_i^e), and the values over the lcm D of theirs.
    Level l along axis i multiplies by S_(i,l)/gap, S_(i,l) the lcm of
    that level's gaps, so c_alpha is over D * prod_i prod_(l <= alpha_i)
    S_(i,l).  The entries under the bound are put over the largest of
    these, one denominator, and Horner's rule gives the monomial form.
    """
    samples = list(samples)
    if len({len(pt) for pt, _ in samples}) != 1:
        raise GridMalformed("need samples at points of one length")
    k = len(samples[0][0])
    axes = [list(dict.fromkeys(pt[i] for pt, _ in samples)) for i in range(k)]
    index = [{c: m for m, c in enumerate(nodes)} for nodes in axes]
    values = {tuple(map(getitem, index, pt)): val for pt, val in samples}
    keys = sorted(values)
    lines = [_lines(keys, axis) for axis in range(k)]  # a lower set: each line holds 0 .. len - 1
    if any(line[-1][axis] != len(line) - 1 for axis in range(k) for line in lines[axis]):
        raise GridMalformed("the sample nodes do not form a lower set")
    if sum(sum(a) <= bound for a in keys) != math.comb(bound + k, k):
        raise GridMalformed(f"the sample nodes miss an index of total degree at most {bound}")
    den = math.lcm(*(v.denominator for v in values.values()))
    table = {a: v.numerator * (den // v.denominator) for a, v in values.items()}
    node_scales = [math.lcm(*(c.denominator for c in nodes)) for nodes in axes]
    xs = [[c.numerator * (b // c.denominator) for c in nodes] for nodes, b in zip(axes, node_scales)]
    dens = []  # dens[i][m]: prod_(l <= m) S_(i,l)
    for axis, x in enumerate(xs):
        gaps = [[x[m] - x[m - level] for m in range(level, len(x))] for level in range(1, len(x))]
        scales = [math.lcm(*level) for level in gaps]
        levels = [[scale // gap for gap in level] for scale, level in zip(scales, gaps)]
        dens.append([math.prod(scales[:m]) for m in range(len(x))])
        for line in lines[axis]:
            c = [table[a] for a in line]
            for level, mults in enumerate(levels[: len(c) - 1], 1):
                for m in range(len(c) - 1, level - 1, -1):
                    c[m] = (c[m] - c[m - 1]) * mults[m - level]
            table.update(zip(line, c))
    if any(table[a] for a in keys if sum(a) > bound):
        return None
    # each line of the lower set |alpha| <= bound is the start of a line of the table
    lines = [[line[: bound + 1 - sum(line[0])] for line in axis if sum(line[0]) <= bound] for axis in lines]
    tops = [len(max(axis, key=len)) - 1 for axis in lines]
    ups = [[d[top] // v for v in d[: top + 1]] for d, top in zip(dens, tops)]
    table = {a: table[a] * math.prod(map(getitem, ups, a)) for a in keys if sum(a) <= bound}
    for axis, x in enumerate(xs):
        for line in lines[axis]:
            c = [table[a] for a in line]
            acc = [c[-1]]
            for m in range(len(c) - 2, -1, -1):  # acc <- acc * (X - x[m]) + c[m]
                acc = [c[m] - x[m] * acc[0]] + [lo - x[m] * hi for lo, hi in zip(acc, acc[1:])] + [acc[-1]]
            table.update(zip(line, acc))
    den *= math.prod(d[top] for d, top in zip(dens, tops))
    powers = {a: math.prod(b**m for b, m in zip(node_scales, a)) for a in table}  # 1 on integer nodes
    return MPoly._raw(k, {a: Fraction(c * powers[a], den) for a, c in table.items() if c})


def _lines(keys: list, axis: int):
    """The lines of a sorted lower set along axis: its indices grouped by the others, ascending in axis."""
    lines: dict[tuple, list] = {}
    for a in keys:
        lines.setdefault(a[:axis] + a[axis + 1:], []).append(a)
    return lines.values()


# ---------------------------------------------------------------------------
# JSON form


def rat_to_str(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def poly_to_json(p: MPoly, var_names: Sequence[str]) -> dict:
    if len(var_names) != p.var_count:
        raise ValueError("var name count does not match var_count")
    return {
        "vars": list(var_names),
        "terms": [
            {"c": rat_to_str(c), "e": list(e)} for e, c in p.sorted_terms()
        ],
    }


def poly_from_json(obj, expected_vars: Sequence[str] | None = None) -> tuple[MPoly, list[str]]:
    from .errors import SchemaError

    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise SchemaError("polynomial JSON must have 'vars' and 'terms'")
    names = obj["vars"]
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise SchemaError("'vars' must be a list of strings")
    if len(set(names)) != len(names):
        raise SchemaError(f"'vars' repeats a name: {names}")
    if expected_vars is not None and list(names) != list(expected_vars):
        raise SchemaError(f"expected variables {list(expected_vars)}, got {names}")
    if not isinstance(obj["terms"], list):
        raise SchemaError("'terms' must be a list")
    terms = {}
    for item in obj["terms"]:
        if not isinstance(item, dict) or "c" not in item or "e" not in item:
            raise SchemaError("each term needs 'c' and 'e'")
        expo = item["e"]
        if not isinstance(expo, list) or len(expo) != len(names) or any(type(e) is not int or e < 0 for e in expo):
            raise SchemaError(f"bad exponent vector {expo}")
        try:
            coeff = Fraction(str(item["c"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational string {item['c']!r}") from exc
        expo = tuple(expo)
        terms[expo] = terms.get(expo, Fraction(0)) + coeff
    return MPoly(len(names), terms), list(names)
