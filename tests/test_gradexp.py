from fractions import Fraction

import pytest

from cnull import gradexp
from cnull.errors import InconsistentFiberCounts, InvalidInput, NotProper
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

    def test_disagreeing_mu_counts_are_a_genericity_failure(self, monkeypatch):
        counts = iter([1, 2, 1])
        monkeypatch.setattr(gradexp, "fiber_count_at", lambda *args: next(counts))
        with pytest.raises(InconsistentFiberCounts):
            grad_profile(SUM_SQ, seed=0)

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

    @pytest.mark.parametrize(
        "options",
        [
            {"shells": (10.0,)},
            {"shells": (100.0, 10.0)},
            {"shells": (10.0, 10.0)},
            {"shells": (-10.0, 10.0)},
            {"samples_per_shell": 0},
        ],
    )
    def test_unusable_sampling_options_raise(self, options):
        with pytest.raises(InvalidInput):
            validate_inequality(SQ1, F(1, 2), seed=0, **options)


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
