import json
from fractions import Fraction

import pytest

from conftest import counted_evaluator, pj
from cnull import gradexp, polycore
from cnull.cli import main
from cnull.errors import DivisionByZeroGradient, NotProper
from cnull.gradexp import (
    grad_profile,
    gradexp_report,
    gradient,
    theta,
    validate_inequality,
)
from cnull.polycore import MPoly

F = Fraction

SUM_SQ = MPoly(2, {(2, 0): 1, (0, 2): 1})  # x1^2 + x2^2
PROD = MPoly(2, {(1, 1): 1})  # x1 x2
SQ1 = MPoly(1, {(2,): 1})  # x^2
X1, X2 = MPoly.variable(2, 0), MPoly.variable(2, 1)


class TestGradient:
    def test_sum_of_squares(self):
        assert gradient(SUM_SQ) == [MPoly(2, {(1, 0): 2}), MPoly(2, {(0, 1): 2})]

    def test_product(self):
        assert gradient(PROD) == [MPoly(2, {(0, 1): 1}), MPoly(2, {(1, 0): 1})]

    def test_constant(self):
        assert gradient(MPoly.const(2, 5)) == [MPoly(2, {}), MPoly(2, {})]


class TestGradProfile:
    def test_sum_of_squares(self):
        assert grad_profile(SUM_SQ, seed=0) == (1, 1)

    def test_univariate_square(self):
        assert grad_profile(SQ1, seed=0) == (1, 1)

    def test_linear_not_proper(self):
        with pytest.raises(NotProper):
            grad_profile(MPoly(2, {(1, 0): 1}), seed=0)

    def test_seed_stability(self):
        assert {grad_profile(SUM_SQ, seed=s) for s in range(10)} == {(1, 1)}
        assert {grad_profile(SQ1, seed=s) for s in range(10)} == {(1, 1)}

    def test_product_profile(self):
        mu, D = grad_profile(PROD, seed=0)
        assert D >= mu >= 1

    def test_a_draw_on_a_critical_value_does_not_block_consensus(self):
        # (3 x1^2, 3 x2^2) has 4 points over a generic value; at this seed one
        # draw lands on a critical value and counts 2
        assert grad_profile(X1**3 + X2**3, seed=6) == (4, 4)

    def test_non_dominant_gradient_is_not_proper(self, capsys, tmp_path):
        # f = (x1 + 2 x2)^2: the gradient 2 (x1 + 2 x2) (1, 2) has a line as
        # image and lines as fibers over it
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(pj(["x1", "x2"], {(2, 0): 1, (1, 1): 4, (0, 2): 4})))
        assert main(["gradexp", "--poly", str(path)]) == 2
        assert "NotProper" in capsys.readouterr().err

    def test_quartic_univariate(self):
        # f = x^4: f' = 4x^3: mu = 3, graph is a cubic curve: D = 3
        f = MPoly(1, {(4,): 1})
        mu, D = grad_profile(f, seed=0)
        assert (mu, D) == (3, 3)


class TestTheta:
    def test_half(self):
        assert theta(2, 1, 1) == F(1, 2)

    def test_ninth(self):
        assert theta(3, 3, 1) == F(1, 9)

    def test_upper_endpoint(self):
        for d in (1, 2, 5):
            for mu in (1, 2):
                assert theta(d, mu, mu) == F(1, d)

    def test_range(self):
        for d in range(1, 5):
            for mu in range(1, 4):
                for D in range(mu, mu + 4):
                    value = theta(d, D, mu)
                    assert 0 < value <= F(1, d)

    def test_invalid(self):
        with pytest.raises(ValueError):
            theta(2, 1, 2)  # D < mu


class TestValidateInequality:
    def test_one_evaluator_per_call_and_no_evaluate_in_the_loop(self, monkeypatch):
        built, points, visits = [], [], []
        monkeypatch.setattr(gradexp, "evaluator", counted_evaluator(built, points))
        for module in (polycore, gradexp):
            monkeypatch.setattr(module, "evaluate", lambda p, y: visits.append(y), raising=False)
        for calls in (1, 2):
            validate_inequality(SUM_SQ, F(1, 2), seed=calls)
            assert built == [[*gradient(SUM_SQ), SUM_SQ]] * calls
            # 4 shells of 200 points: the gradient of x1^2 + x2^2 vanishes only at 0
            assert len(points) == 800 * calls
        assert visits == []

    def test_gradient_vanishing_everywhere_exhausts_the_redraws(self, tmp_path):
        with pytest.raises(DivisionByZeroGradient):
            validate_inequality(MPoly.const(2, 3), F(1, 2), seed=0)
        path = tmp_path / "const.json"
        path.write_text(json.dumps(pj(["x1", "x2"], {(0, 0): 3})))
        assert main(["gradexp", "--poly", str(path), "--theta", "1/2"]) == 3

    def test_sum_of_squares_at_half(self):
        report = validate_inequality(SUM_SQ, F(1, 2), seed=0)
        assert report.validated
        # |f|^(1/2) <= ||x|| and ||grad f|| = 2||x|| on each shell
        assert report.max_ratio_C <= 0.5 + 1e-9

    def test_univariate_exact_ratio(self):
        report = validate_inequality(SQ1, F(1, 2), seed=0)
        assert report.validated
        for _, ratio in report.shells:
            assert abs(ratio - 0.5) < 1e-12

    def test_univariate_fails_at_one(self):
        report = validate_inequality(SQ1, F(1), seed=0)
        assert not report.validated

    def test_doubled_theta_fails(self):
        mu, D = grad_profile(SQ1, seed=0)
        good = theta(2, D, mu)
        assert validate_inequality(SQ1, good, seed=0).validated
        assert not validate_inequality(SQ1, 2 * good, seed=0).validated


class TestPipeline:
    def test_sum_of_squares_report(self):
        report = gradexp_report(SUM_SQ, seed=0)
        assert (report.d, report.mu, report.D) == (2, 1, 1)
        assert report.theta == F(1, 2)
        assert report.validated
        assert len(report.shells) == 4

    def test_report_invariants(self):
        for f in (SUM_SQ, SQ1, MPoly(1, {(4,): 1})):
            report = gradexp_report(f, seed=0)
            assert report.D >= report.mu
            assert 0 < report.theta <= F(1, report.d)
