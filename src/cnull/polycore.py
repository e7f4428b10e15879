"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent tuples to nonzero Fraction
coefficients.  Everything downstream (pullbacks along parametrizations,
characteristic polynomials, certificate identities) rides on this module,
so all operations here are exact; floats never enter.

Every MPoly keeps one invariant on its ``terms`` dict: the keys are
tuples of ``var_count`` nonnegative ints and the values are nonzero
``Fraction``s.  The public constructor ``MPoly(var_count, terms)`` (and
through it the JSON parser) validates and normalizes any input into this
form.  The operations of this module build their results from operands
that already hold it, so they use the trusted constructor ``MPoly._raw``,
which checks nothing; code that calls it must produce the invariant
itself.

The canonical term order is graded lexicographic with variable 1 most
significant.  It fixes serialization, leading-term selection in exact
division, and the tie-break rule used by the certificate search.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
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
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            if expo in out:
                out[expo] -= coeff
            else:
                out[expo] = -coeff
        return MPoly._raw(self.var_count, _nonzero(out))

    def __neg__(self) -> "MPoly":
        return MPoly._raw(self.var_count, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(map(add, ea, eb))
                if expo in out:
                    out[expo] += ca * cb
                else:
                    out[expo] = ca * cb
        return MPoly._raw(self.var_count, _nonzero(out))

    def scale(self, value) -> "MPoly":
        value = Fraction(value)
        if value == 0:
            return MPoly._raw(self.var_count, {})
        return MPoly._raw(self.var_count, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(self.var_count, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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


def evaluate(p: MPoly, point: Sequence):
    """Evaluate at a point.

    Exact (Fraction result) when every coordinate is an int or Fraction;
    otherwise computed in the arithmetic of the supplied values, with the
    rational coefficients converted by dividing numerator by denominator
    so the result is correctly rounded at the working precision.
    """
    vals = list(point)
    if len(vals) != p.var_count:
        raise ValueError("point length does not match var_count")
    exact = all(isinstance(v, (int, Fraction)) for v in vals)
    if exact:
        vals = [Fraction(v) for v in vals]
    # powers[i][e] = vals[i]**e, each computed once per call
    powers: list[dict] = [{} for _ in vals]

    def power(i: int, e: int):
        cache = powers[i]
        if e not in cache:
            cache[e] = vals[i] ** e
        return cache[e]

    if exact:
        total = Fraction(0)
        for expo, coeff in p.terms.items():
            term = coeff
            for i, e in enumerate(expo):
                if e:
                    term *= power(i, e)
            total += term
        return total
    import mpmath as mp

    use_mp = any(isinstance(v, (mp.mpf, mp.mpc)) for v in vals)

    def conv(q: Fraction):
        # divide in the target arithmetic so the result is correctly rounded
        if use_mp:
            return mp.mpf(q.numerator) / mp.mpf(q.denominator)
        return q.numerator / q.denominator

    total = 0
    for expo, coeff in p.sorted_terms():
        term = conv(coeff)
        for i, e in enumerate(expo):
            if e:
                term = term * power(i, e)
        total = total + term
    return total


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
    term not divisible by the leading term of q already decides.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_compatible(q)
    if p.is_zero():
        return MPoly._raw(p.var_count, {})
    lt_e, lt_c = q.leading_term()
    rem = dict(p.terms)
    quot: dict[tuple[int, ...], Fraction] = {}
    while rem:
        expo = max(rem, key=_grlex_key)
        coeff = rem[expo]
        if any(a < b for a, b in zip(expo, lt_e)):
            raise NotDivisible("remainder is nonzero")
        qe = tuple(map(sub, expo, lt_e))
        qc = coeff / lt_c
        # each step's quotient term is below the previous one in the term order
        quot[qe] = qc
        for be, bc in q.terms.items():
            ke = tuple(map(add, qe, be))
            if ke in rem:
                acc = rem[ke] - qc * bc
                if acc:
                    rem[ke] = acc
                else:
                    del rem[ke]
            else:
                rem[ke] = -qc * bc
    return MPoly._raw(p.var_count, quot)


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


# ---------------------------------------------------------------------------
# coefficient views in one distinguished variable, determinants, resultants


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


def det_bareiss(rows: list[list[MPoly]]) -> MPoly:
    """Exact determinant of a square MPoly matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    var_count = rows[0][0].var_count
    a = [list(r) for r in rows]
    sign = 1
    prev = MPoly.const(var_count, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pivot_row is None:
                return MPoly(var_count)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = exact_divide(num, prev) if k > 0 else num
            a[i][k] = MPoly(var_count)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def sylvester_resultant(p: MPoly, q: MPoly, index: int) -> MPoly:
    """Resultant of p and q with respect to variable `index`.

    Exact; the result has exponent 0 in the eliminated variable.  Follows
    the convention Res = lc(p)^deg(q) * prod q(roots of p), with the empty
    0x0 determinant equal to 1.
    """
    pc = coeffs_in_var(p, index)
    qc = coeffs_in_var(q, index)
    if not pc or not qc:
        raise ValueError("resultant of the zero polynomial")
    dp, dq = len(pc) - 1, len(qc) - 1
    n = dp + dq
    if n == 0:
        return MPoly.const(p.var_count, 1)
    zero = MPoly(p.var_count)
    rows: list[list[MPoly]] = []
    for i in range(dq):
        row = [zero] * n
        for j, c in enumerate(reversed(pc)):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [zero] * n
        for j, c in enumerate(reversed(qc)):
            row[i + j] = c
        rows.append(row)
    return det_bareiss(rows)


# ---------------------------------------------------------------------------
# interpolation on tensor grids


def interpolate(samples, degree_bounds: Sequence[int]) -> MPoly:
    """Unique polynomial matching the samples within per-variable bounds.

    samples: iterable of (point, value) with rational entries; the points
    must form a tensor-product grid with at least bound+1 distinct
    coordinates per variable.  Surplus grid nodes are used as exact
    consistency checks.
    """
    bounds = [int(b) for b in degree_bounds]
    if any(b < 0 for b in bounds):
        raise ValueError("negative degree bound")
    nvars = len(bounds)
    cleaned = []
    for point, value in samples:
        pt = tuple(Fraction(c) for c in point)
        if len(pt) != nvars:
            raise GridMalformed("sample point length does not match bounds")
        cleaned.append((pt, Fraction(value)))
    if not cleaned:
        raise GridMalformed("no samples")
    seen: dict[tuple, Fraction] = {}
    for pt, val in cleaned:
        if pt in seen and seen[pt] != val:
            raise InconsistentSamples(f"conflicting values at {pt}")
        seen[pt] = val
    result = grid_interpolant(seen.items(), bounds)
    for pt, val in seen.items():
        if evaluate(result, pt) != val:
            raise InconsistentSamples("no interpolant within the degree bounds matches all samples")
    return result


def grid_interpolant(samples, degree_bounds: Sequence[int]) -> MPoly:
    """The polynomial within the bounds through the first bound+1 nodes per variable.

    samples: (point, value) pairs with rational entries on a tensor-product
    grid, one value per point; nodes count in increasing order.  Unlike
    interpolate, the samples on the other nodes are not checked.
    """
    return _interp_rec(sorted(samples), list(degree_bounds))


def _interp_rec(samples: list[tuple[tuple, Fraction]], bounds: list[int]) -> MPoly:
    if len(bounds) == 1:
        nodes = [pt[0] for pt, _ in samples]
        values = [val for _, val in samples]
        return _newton_univariate(nodes, values, bounds[0])
    groups: dict[Fraction, list] = {}
    for pt, val in samples:
        groups.setdefault(pt[0], []).append((pt[1:], val))
    nodes = sorted(groups)
    if len(nodes) < bounds[0] + 1:
        raise GridMalformed(
            f"need {bounds[0] + 1} distinct coordinates in variable 1, got {len(nodes)}"
        )
    tails = {tuple(sorted(pt for pt, _ in g)) for g in groups.values()}
    if len(tails) != 1:
        raise GridMalformed("samples do not form a tensor-product grid")
    inner = {u: _interp_rec(sorted(groups[u]), bounds[1:]) for u in nodes}
    monomials: set[tuple[int, ...]] = set()
    for poly in inner.values():
        monomials.update(poly.terms)
    use = nodes[: bounds[0] + 1]
    out: dict[tuple[int, ...], Fraction] = {}
    for mono in sorted(monomials):
        coeff_vals = [inner[u].terms.get(mono, Fraction(0)) for u in use]
        head = _newton_univariate(use, coeff_vals, bounds[0])
        for (e,), c in head.terms.items():
            # monomials are distinct, so every expo is new
            out[(e,) + mono] = c
    return MPoly._raw(len(bounds), out)


def _newton_univariate(nodes, values, bound: int) -> MPoly:
    if len(nodes) < bound + 1:
        raise GridMalformed(f"need {bound + 1} distinct nodes, got {len(nodes)}")
    xs = list(nodes[: bound + 1])
    if len(set(xs)) != len(xs):
        raise GridMalformed("repeated interpolation nodes")
    ys = list(values[: bound + 1])
    # Divided differences, then expansion of the Newton form.
    coeffs = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = MPoly(1)
    basis = MPoly.const(1, 1)
    for i, c in enumerate(coeffs):
        poly = poly + basis.scale(c)
        if i < len(xs) - 1:
            basis = basis * MPoly(1, {(1,): Fraction(1), (0,): -xs[i]})
    return poly


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
