import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import map_spec, pj
from cnull import rng
from cnull.cli import main
from cnull.errors import (
    DegenerateSlice,
    GeneratorNotAnnihilated,
    InconsistentFiberCounts,
    NotCAlgebraic,
    ParamRequired,
    SchemaError,
)
from cnull.polycore import MPoly
from cnull.variety import (
    curve_degree,
    curve_generic_degree,
    degree_by_slicing,
    load_map,
    load_variety,
)

F = Fraction
T = MPoly(1, {(1,): 1})
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestLoadVariety:
    def test_cusp(self, cusp):
        assert cusp.m == 2 and cusp.k == 1
        assert len(cusp.generators) == 1

    def test_parabola(self, parabola):
        assert parabola.m == 2 and parabola.k == 1

    def test_not_annihilated(self):
        bad = {
            "ambient_vars": ["x", "y"],
            "dim": 1,
            "generators": [pj(["x", "y"], {(0, 1): 1, (1, 0): -1})],  # y - x
            "param": {
                "vars": ["t"],
                "components": [pj(["t"], {(1,): 1}), pj(["t"], {(1,): 1, (0,): 1})],
            },
        }
        with pytest.raises(GeneratorNotAnnihilated):
            load_variety(bad)

    def test_schema_error(self):
        with pytest.raises(SchemaError):
            load_variety({"ambient_vars": ["x"], "dim": 0})

    @pytest.mark.parametrize("dim", [True, 1.0])
    def test_dim_that_is_not_an_integer_raises_schema_error(self, dim):
        with pytest.raises(SchemaError):
            load_variety({"ambient_vars": ["x"], "dim": dim})

    @pytest.mark.parametrize(
        "change",
        [{"generators": 5}, {"generators": None}, {"param": 5}, {"param": "t"}, {"param": ["t"]}],
    )
    def test_malformed_shapes_raise_schema_error(self, change):
        spec = {"ambient_vars": ["x"], "dim": 1, "generators": [], **change}
        with pytest.raises(SchemaError):
            load_variety(spec)

    @pytest.mark.parametrize("change", [{}, {"param": None}], ids=["absent", "null"])
    def test_a_variety_without_a_parametrization_is_rejected(self, change):
        spec = {"ambient_vars": ["x"], "dim": 1, "generators": [], **change}
        with pytest.raises(ParamRequired):
            load_variety(spec)

    @pytest.mark.parametrize("components", [5, None, {"num": 1}])
    def test_map_components_must_be_a_list(self, cusp, components):
        with pytest.raises(SchemaError):
            load_map(cusp, {"components": components})

    def test_membership(self, cusp):
        assert cusp.contains([F(4), F(8)])
        assert not cusp.contains([F(1), F(2)])


class TestOneToOne:
    @pytest.mark.parametrize(
        "components,degree",
        [
            ([T], 1),
            ([T**2, T**3], 1),  # the cusp
            ([T**2], 2),  # the line x = t^2
            ([T**2, T**4], 2),  # the parabola through (t^2, t^4)
            ([T**3 + T, (T**3 + T) ** 2], 3),
        ],
    )
    def test_generic_degree(self, components, degree):
        assert curve_generic_degree(components, [3, 7, F(5, 2)]) == degree

    def test_a_point_over_a_node_is_passed_over(self):
        # t -> (t^2 - 1, t^3 - t) has its node over t = +-1: the fiber gcd there is t^2 - 1,
        # and t^3 - t = t (t^2 - 1) is not in Q[t^2 - 1], so t0 = 1 fails and t0 = 3 certifies 1
        components = [T**2 - MPoly.const(1, 1), T**3 - T]
        assert curve_generic_degree(components, [1, 3]) == 1
        with pytest.raises(InconsistentFiberCounts):
            curve_generic_degree(components, [1, -1])

    def test_every_curve_fixture_loads(self):
        for path in sorted(FIXTURES.glob("*.json")):
            spec = json.loads(path.read_text(encoding="utf-8"))
            if spec.get("dim") == 1:
                assert load_variety(spec).k == 1


class TestPullback:
    def test_gyx_is_t(self, cusp_gyx):
        assert cusp_gyx.pullbacks == [T]

    def test_fx_is_t_squared(self, cusp_fx):
        assert cusp_fx.pullbacks == [T**2]

    def test_pole_rejected(self, cusp):
        one_over_x = map_spec((pj(["x", "y"], {(0, 0): 1}), pj(["x", "y"], {(1, 0): 1})))
        with pytest.raises(NotCAlgebraic):
            load_map(cusp, one_over_x)


class TestDegreeBySlicing:
    def test_cusp_is_cubic(self, cusp):
        assert degree_by_slicing(cusp) == 3

    def test_parabola(self, parabola):
        assert degree_by_slicing(parabola) == 2

    def test_line(self, diag_line):
        assert degree_by_slicing(diag_line) == 1

    def test_surface_raises(self, capsys):
        surface = FIXTURES / "surface_xz2.json"
        with pytest.raises(ParamRequired):
            degree_by_slicing(load_variety(json.loads(surface.read_text())))
        assert main(["degree", "--variety", str(surface)]) == 4
        assert "ParamRequired" in capsys.readouterr().err

    def test_constant_curve_has_no_generic_slice(self):
        with pytest.raises(DegenerateSlice):
            curve_degree([MPoly.const(1, 2), MPoly.zero(1)])

    def test_draws_nothing(self, cusp, monkeypatch):
        def fail(*args):
            raise AssertionError("a random stream was drawn")

        monkeypatch.setattr(rng, "child_rng", fail)
        assert degree_by_slicing(cusp) == 3

    def test_brute_force_oracle(self, cusp):
        # count roots of lam1 t^2 + lam2 t^3 - c by expanding the cubic formula
        # discriminant: a generic cubic has 3 distinct roots
        import random

        from cnull.numroots import roots_from_coeffs

        rng = random.Random(4)
        for _ in range(5):
            lam1, lam2 = rng.randint(1, 9), rng.randint(1, 9)
            c = rng.randint(1, 9)
            rs = roots_from_coeffs([F(-c), F(0), F(lam1), F(lam2)], 256)
            assert len(rs.roots) == 3
