"""Stress cases beyond the basic fixtures."""

from fractions import Fraction

import mpmath as mp
import pytest

from conftest import map_spec, pj
from cnull.charpoly import build_charpoly, charpoly_resultant_oracle, verify_charpoly
from cnull.errors import NotInIdeal
from cnull.nullcert import (
    Certificate,
    certificate_from_json,
    certificate_to_json,
    certify_partial,
    certify_proper,
    verify_certificate,
)
from cnull.numroots import rational_reconstruct, roots_from_coeffs, roots_univariate
from cnull.polycore import MPoly, interpolate
from cnull.variety import load_map

F = Fraction
V2 = ["x1", "x2"]


class TestAberthStress:
    def test_triple_root_with_simple(self):
        t = MPoly(1, {(1,): 1})
        p = (t - MPoly.const(1, 1)) ** 3 * (t + MPoly.const(1, 2))
        rs = roots_univariate(p, 256)
        by_mult = {m: v for v, m in rs.roots}
        assert set(by_mult) == {3, 1}
        assert abs(by_mult[3] - 1) < 1e-9
        assert abs(by_mult[1] + 2) < 1e-30

    def test_fourth_roots_of_unity(self):
        rs = roots_from_coeffs([F(1), F(0), F(0), F(0), F(1)], 256)  # t^4 + 1
        assert len(rs.roots) == 4
        for root, mult in rs.roots:
            assert mult == 1
            assert abs(abs(root) - 1) < 1e-40

    def test_ten_integer_roots(self):
        t = MPoly(1, {(1,): 1})
        p = MPoly.const(1, 1)
        for i in range(1, 11):
            p = p * (t - MPoly.const(1, i))
        rs = roots_univariate(p, 256)
        assert len(rs.roots) == 10
        got = sorted(float(mp.re(r)) for r, _ in rs.roots)
        assert all(abs(g - w) < 1e-25 for g, w in zip(got, range(1, 11)))

    def test_reconstruct_near_boundary(self):
        with mp.workprec(300):
            v = mp.mpf(1) / 3 + mp.mpf(2) ** (-200)
        assert rational_reconstruct(v, 10**6, 256) == F(1, 3)


class TestInterpolateOverdetermined:
    def test_surplus_nodes_checked(self):
        # five nodes, bound 2: the first three determine, the rest must agree
        samples = [((F(c),), F(c * c - 3)) for c in range(5)]
        poly = interpolate(samples, 2)
        assert poly == MPoly(1, {(2,): 1, (0,): -3})

    def test_surplus_nodes_conflict(self):
        from cnull.errors import InconsistentSamples

        samples = [((F(c),), F(c * c)) for c in range(4)]
        samples.append(((F(4),), F(17)))  # should be 16
        with pytest.raises(InconsistentSamples):
            interpolate(samples, 2)


class TestTwoVariableCharpoly:
    @pytest.fixture()
    def shifted(self, plane2):
        # f = (x1^2 + x2, x2): fiber over (y1, y2) is t2 = y2, t1^2 = y1 - y2
        return load_map(
            plane2,
            map_spec(pj(V2, {(2, 0): 1, (0, 1): 1}), pj(V2, {(0, 1): 1})),
        )

    def test_cross_variable_coefficient(self, plane2, shifted):
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))  # x1
        P = build_charpoly(shifted, g, seed=0)
        assert P.d == 2
        assert P.coeffs[0].is_zero()
        assert P.coeffs[1] == MPoly(2, {(1, 0): -1, (0, 1): 1})  # -(y1 - y2)
        assert verify_charpoly(P, shifted, g)

    def test_proper_certificate_uses_both_components(self, plane2, shifted):
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        cert = certify_proper(shifted, g, seed=0)
        assert cert.exponent == 2
        # g^2 = f1 - f2 exactly: h1 = 1, h2 = -1
        assert cert.h_exprs[0] == MPoly.const(3, 1)
        assert cert.h_exprs[1] == MPoly.const(3, -1)
        assert verify_certificate(shifted, g, cert)

    def test_partial_rejects_when_g_misses(self, plane2, shifted):
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        with pytest.raises(NotInIdeal):
            certify_partial(shifted, 1, g, seed=0)


class TestAuxFormCertificates:
    def test_aux_verification(self, plane2):
        # g = x1^2 * x2 vanishes on {x1 = 0}; g = x2 * f with f = x1^2,
        # and x2 is the value of the completing form, the v1 symbol
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(2, 1): 1})))
        form = MPoly(2, {(0, 1): F(1)})  # x2
        h1 = MPoly(3, {(0, 1, 0): F(1)})  # v1 in symbols (y1, v1, t)
        cert = Certificate(1, [h1], "strictly_regular", False, aux_forms=[form])
        assert verify_certificate(f, g, cert)
        corrupted = Certificate(1, [MPoly(3, {(0, 1, 0): F(2)})], "strictly_regular", False, aux_forms=[form])
        assert not verify_certificate(f, g, corrupted)

    def test_aux_json_roundtrip(self, plane2):
        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(2, 1): 1})))
        form = MPoly(2, {(0, 1): F(1)})
        cert = Certificate(1, [MPoly(3, {(0, 1, 0): F(1)})], "strictly_regular", True, aux_forms=[form])
        obj = certificate_to_json(cert, V2)
        assert obj["aux_forms"]
        back = certificate_from_json(obj, V2)
        assert back.aux_forms == [form]
        assert verify_certificate(f, g, back)


class TestHigherDegreeOracle:
    def test_quintic_value_on_cusp(self, cusp, cusp_fx):
        g = load_map(cusp, map_spec(pj(["x", "y"], {(1, 1): 1})))  # x*y pulls to t^5
        built = build_charpoly(cusp_fx, g, seed=0)
        oracle = charpoly_resultant_oracle(cusp_fx, g)
        assert built.coeffs == oracle.coeffs
        assert built.coeffs[0].is_zero()
        assert built.coeffs[1] == MPoly(1, {(5,): -1})  # a2 = -y^5


class TestRotatedCompletion:
    def test_diagonal_form(self, plane2):
        from conftest import axis_x2_spec
        from cnull.nullcert import certify_strictly_regular
        from cnull.variety import load_variety

        f = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1})))
        form = MPoly(2, {(1, 0): F(1), (0, 1): F(1)})  # x1 + x2
        comps = [load_variety(axis_x2_spec())]
        cert = certify_strictly_regular(f, g, forms=[form], cycle=comps, seed=0)
        assert cert.exponent == 2 and cert.verified
        assert verify_certificate(f, g, cert)


class TestHigherLocalMultiplicity:
    def test_cube_cover(self, cline):
        from cnull.propermaps import fiber_poly, geometric_degree, local_multiplicity

        f = load_map(cline, map_spec(pj(["x"], {(3,): 1})))  # t -> t^3
        assert geometric_degree(f, seed=0) == 3
        assert local_multiplicity(f, [F(0)]) == 3
        assert local_multiplicity(f, [F(1)]) == 1
        assert fiber_poly(f, [F(0)]).degree_in(0) == fiber_poly(f, [F(1)]).degree_in(0) == 3
