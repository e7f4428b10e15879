from fractions import Fraction

import pytest

from conftest import map_spec, pj
from cnull.errors import DegenerateSlice, GeneratorNotAnnihilated, NotCAlgebraic, SchemaError
from cnull.polycore import MPoly
from cnull.rng import child_rng
from cnull.variety import (
    degree_by_slicing,
    load_map,
    load_variety,
    sample_point,
    slice_count,
)

F = Fraction
T = MPoly(1, {(1,): 1})


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

    @pytest.mark.parametrize(
        "change",
        [{"generators": 5}, {"generators": None}, {"param": 5}, {"param": "t"}, {"param": ["t"]}],
    )
    def test_malformed_shapes_raise_schema_error(self, change):
        spec = {"ambient_vars": ["x"], "dim": 1, "generators": [], **change}
        with pytest.raises(SchemaError):
            load_variety(spec)

    @pytest.mark.parametrize("components", [5, None, {"num": 1}])
    def test_map_components_must_be_a_list(self, cusp, components):
        with pytest.raises(SchemaError):
            load_map(cusp, {"components": components})

    def test_membership(self, cusp):
        assert cusp.contains([F(4), F(8)])
        assert not cusp.contains([F(1), F(2)])


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
        assert degree_by_slicing(cusp, seed=0) == 3

    def test_parabola(self, parabola):
        assert degree_by_slicing(parabola, seed=0) == 2

    def test_line(self, diag_line):
        assert degree_by_slicing(diag_line, seed=0) == 1

    def test_seed_stable(self, cusp, parabola):
        assert {degree_by_slicing(cusp, seed=s) for s in range(10)} == {3}
        assert {degree_by_slicing(parabola, seed=s) for s in range(10)} == {2}

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


class TestSliceCount:
    def test_max_of_the_first_three_generic_counts(self):
        counts = iter([None, 4, None, 2, 7, 9])
        assert slice_count(0, "test", lambda gen: next(counts)) == 7
        assert next(counts) == 9  # no draw after the third generic one

    def test_draw_i_uses_salt_i(self):
        seen = []

        def count(gen):
            seen.append(gen.random())
            return 1

        slice_count(3, "test", count)
        assert seen == [child_rng(3, f"test:{i}").random() for i in range(3)]

    def test_degenerate_after_fifteen_draws(self):
        seen = []

        def count(gen):
            seen.append(gen)
            return None

        with pytest.raises(DegenerateSlice):
            slice_count(0, "test", count)
        assert len(seen) == 15


class TestSamplePoint:
    def test_on_variety(self, cusp):
        for seed in range(10):
            pt = sample_point(cusp, seed)
            assert cusp.contains(pt)

    def test_exactness(self, parabola):
        pt = sample_point(parabola, 3)
        assert pt[1] == pt[0] ** 2

    def test_known_values(self, cusp):
        # phi(t) = (t^2, t^3) exactly on rational draws
        pt = sample_point(cusp, 0)
        assert isinstance(pt[0], F)
        from cnull.polycore import evaluate

        comps = cusp.param.components
        assert [evaluate(c, [F(2)]) for c in comps] == [F(4), F(8)]
        assert [evaluate(c, [F(0)]) for c in comps] == [F(0), F(0)]
