"""Tests for poly-log fitting and the bootstrap exponent CI."""

import math

import pytest

from repro.analysis.complexity_fit import PolylogModel, fit_polylog
from repro.claims.fitting import ExponentCI, bootstrap_exponent_ci
from repro.errors import ConfigurationError

SIZES = (16, 32, 64, 128, 256)


def power_law(exponent, loglog_power=0, coefficient=3.0):
    model = PolylogModel(exponent, loglog_power)
    return [coefficient * model.basis(n) for n in SIZES]


class TestPolylogModel:
    def test_basis_plain_log(self):
        assert PolylogModel(2.0).basis(16) == pytest.approx(16.0)

    def test_basis_with_loglog(self):
        assert PolylogModel(1.0, 1).basis(16) == pytest.approx(8.0)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            PolylogModel(1.0).basis(2)

    def test_labels(self):
        assert PolylogModel(1.0).label == "log n"
        assert PolylogModel(2.0).label == "log^2 n"
        assert PolylogModel(2.0, 1).label == "log^2 n loglog n"


class TestFitPolylog:
    def test_recovers_exact_power(self):
        fit = fit_polylog(SIZES, power_law(2.0))
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.model.label == "log^2 n"
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.residual == pytest.approx(0.0, abs=1e-18)

    def test_prefers_loglog_model_when_data_has_one(self):
        fit = fit_polylog(SIZES, power_law(2.0, loglog_power=1))
        assert fit.model.loglog_power == 1
        assert fit.model.label == "log^2 n loglog n"

    def test_candidates_cover_full_grid(self):
        fit = fit_polylog(SIZES, power_law(1.0))
        assert len(fit.candidates) == 16  # 8 log powers x 2 loglog powers
        labels = [label for label, _ in fit.candidates]
        assert "log^3 n" in labels and "log n loglog n" in labels

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_polylog([16], [1.0])  # one size
        with pytest.raises(ConfigurationError):
            fit_polylog([16, 32], [1.0])  # misaligned
        with pytest.raises(ConfigurationError):
            fit_polylog([2, 16], [1.0, 2.0])  # n < 4
        with pytest.raises(ConfigurationError):
            fit_polylog([16, 32], [1.0, 0.0])  # non-positive value


class TestBootstrapExponentCI:
    def samples(self, exponent=2.0, trials=5, jitter=0.05):
        return {
            n: [
                PolylogModel(exponent).basis(n)
                * (1.0 + jitter * ((t % 3) - 1))
                for t in range(trials)
            ]
            for n in SIZES
        }

    def test_deterministic_given_seed(self):
        samples = self.samples()
        first = bootstrap_exponent_ci(samples, seed=11)
        second = bootstrap_exponent_ci(samples, seed=11)
        assert (first.low, first.high) == (second.low, second.high)

    def test_ci_contains_true_exponent(self):
        ci = bootstrap_exponent_ci(self.samples(exponent=2.0), seed=1)
        assert ci.contains(2.0)
        assert ci.low <= ci.estimate <= ci.high

    def test_noise_free_samples_collapse(self):
        ci = bootstrap_exponent_ci(self.samples(jitter=0.0), seed=0)
        assert ci.width == pytest.approx(0.0, abs=1e-12)
        assert ci.estimate == pytest.approx(2.0, abs=1e-9)

    def test_more_confidence_never_narrower(self):
        samples = self.samples(jitter=0.2)
        narrow = bootstrap_exponent_ci(samples, confidence=0.5, seed=2)
        wide = bootstrap_exponent_ci(samples, confidence=0.99, seed=2)
        assert wide.width >= narrow.width

    def test_validation(self):
        samples = self.samples()
        with pytest.raises(ConfigurationError):
            bootstrap_exponent_ci(samples, confidence=1.0)
        with pytest.raises(ConfigurationError):
            bootstrap_exponent_ci(samples, resamples=0)
        with pytest.raises(ConfigurationError):
            bootstrap_exponent_ci({16: [1.0, 2.0]})  # one size cell

    def test_empty_cells_dropped(self):
        samples = dict(self.samples())
        samples[512] = []
        ci = bootstrap_exponent_ci(samples, seed=0)
        assert isinstance(ci, ExponentCI)

    def test_width_property(self):
        ci = ExponentCI(
            estimate=1.0, low=0.5, high=1.5, confidence=0.95, resamples=10
        )
        assert ci.width == pytest.approx(1.0)
        assert ci.contains(0.5) and not ci.contains(1.6)
