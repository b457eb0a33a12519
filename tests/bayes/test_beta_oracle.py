"""Oracle test: the ``repro.bayes.beta`` functions against scipy.stats.

``repro.bayes.beta`` calls the ``scipy.special`` ufuncs directly instead
of going through ``scipy.stats.beta``.  The swap is only sound if it is
bit-identical, so ``sf``, ``cdf``, ``ppf``, ``mean`` and ``logpdf`` are
compared bitwise (``view(np.int64)``) against ``scipy.stats.beta``, which
stays in the tests as the reference and nowhere else.  ``pdf`` is
``exp(logpdf)`` where scipy evaluates the density directly, so it is
checked with a tolerance.
"""

import numpy as np
import pytest
from scipy import stats

from repro.bayes import beta
from repro.bayes.attributes import AvailabilityAssessor, ResponsivenessAssessor
from repro.bayes.beta import TruncatedBeta

#: Confidence levels the assessors turn into ``ppf(1.0 - level)``.
CONFIDENCE_LEVELS = (0.5, 0.9, 0.95, 0.99, 0.999)

#: Largest posterior count: a long assessment stream's success total.
MAX_COUNT = 200_000

POINTS = 20_000


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_bitwise(actual, expected) -> None:
    actual_bits, expected_bits = bits(actual), bits(expected)
    assert actual_bits.shape == expected_bits.shape
    mismatched = np.flatnonzero(actual_bits != expected_bits)
    assert mismatched.size == 0, (
        f"{mismatched.size} mismatches, first at index {mismatched[0]}"
    )


def shape_params(rng: np.random.Generator, regime: str):
    """(a, b) arrays: continuous prior shapes or posterior counts."""
    if regime == "prior":
        return rng.uniform(0.1, 50.0, POINTS), rng.uniform(0.1, 50.0, POINTS)
    # Beta(1, 1) prior plus integer success / failure counts.
    return (
        1.0 + rng.integers(0, MAX_COUNT + 1, POINTS),
        1.0 + rng.integers(0, MAX_COUNT + 1, POINTS),
    )


def unit_points(rng: np.random.Generator) -> np.ndarray:
    """Points in [0, 1], both endpoints and the assessor quantiles."""
    points = rng.random(POINTS)
    points[:100] = 0.0
    points[100:200] = 1.0
    levels = [1.0 - level for level in CONFIDENCE_LEVELS]
    points[200:200 + 10 * len(levels)] = np.repeat(levels, 10)
    return points


REGIMES = ("prior", "posterior")


@pytest.mark.parametrize("regime", REGIMES)
class TestBitIdenticalToScipyStats:
    def test_sf(self, regime):
        rng = np.random.default_rng(101)
        a, b = shape_params(rng, regime)
        x = unit_points(rng)
        assert_bitwise(beta.sf(x, a, b), stats.beta.sf(x, a, b))

    def test_cdf(self, regime):
        rng = np.random.default_rng(202)
        a, b = shape_params(rng, regime)
        x = unit_points(rng)
        assert_bitwise(beta.cdf(x, a, b), stats.beta.cdf(x, a, b))

    def test_ppf(self, regime):
        rng = np.random.default_rng(303)
        a, b = shape_params(rng, regime)
        q = unit_points(rng)
        assert_bitwise(beta.ppf(q, a, b), stats.beta.ppf(q, a, b))

    def test_mean(self, regime):
        rng = np.random.default_rng(404)
        a, b = shape_params(rng, regime)
        assert_bitwise(beta.mean(a, b), stats.beta.mean(a, b))

    def test_logpdf(self, regime):
        rng = np.random.default_rng(505)
        a, b = shape_params(rng, regime)
        x = unit_points(rng)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert_bitwise(
                beta.logpdf(x, a, b), stats.beta.logpdf(x, a, b)
            )

    def test_pdf_close(self, regime):
        rng = np.random.default_rng(606)
        a, b = shape_params(rng, regime)
        x = unit_points(rng)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            actual = beta.pdf(x, a, b)
            expected = stats.beta.pdf(x, a, b)
        # exp() turns the log's last-ulp error into a relative error that
        # grows with |logpdf|; deep-tail densities underflow differently.
        assert np.allclose(
            actual, expected, rtol=1e-6, atol=1e-300, equal_nan=True
        )


class TestScalarCalls:
    """The assessors' per-checkpoint calls pass Python scalars."""

    @pytest.mark.parametrize("level", CONFIDENCE_LEVELS)
    def test_assessor_quantiles(self, level):
        for a, b in [(1.0, 1.0), (3.0, 1.0), (1.0 + MAX_COUNT, 2.0),
                     (0.5, 40.0), (1.0 + 9_990, 11.0)]:
            frozen = stats.beta(a, b)
            q = 1.0 - level
            assert_bitwise(beta.ppf(q, a, b), frozen.ppf(q))
            assert_bitwise(beta.sf(level, a, b), frozen.sf(level))
            assert_bitwise(beta.mean(a, b), frozen.mean())

    def test_availability_assessor_matches_frozen_reference(self):
        assessor = AvailabilityAssessor(prior_alpha=2.0, prior_beta=3.0)
        assessor.observe_many(responded=1_234, missed=17)
        frozen = stats.beta(2.0 + 1_234, 3.0 + 17)
        for level in CONFIDENCE_LEVELS:
            assert_bitwise(assessor.confidence(level), frozen.sf(level))
            assert_bitwise(
                assessor.lower_bound(level), frozen.ppf(1.0 - level)
            )
        assert_bitwise(assessor.posterior_mean(), frozen.mean())

    def test_responsiveness_assessor_matches_frozen_reference(self):
        assessor = ResponsivenessAssessor(deadline=0.5)
        for latency in (0.1, 0.2, 0.7, 0.4, 0.9, 0.3):
            assessor.observe(latency)
        frozen = stats.beta(1.0 + 4, 1.0 + 2)
        for target in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert_bitwise(assessor.confidence(target), frozen.sf(target))
        assert_bitwise(assessor.posterior_mean(), frozen.mean())


class TestTruncatedBetaReference:
    """The rescaled prior keeps scipy's bits through the affine map."""

    def test_cdf_and_ppf(self):
        prior = TruncatedBeta(20, 20, upper=0.002)
        reference = stats.beta(20, 20)
        edges = np.linspace(0.0, 0.002, 1001)
        assert_bitwise(prior.cdf(edges), reference.cdf(edges / 0.002))
        q = np.array([0.0, 0.01, 0.5, 0.99, 1.0])
        assert_bitwise(prior.ppf(q), 0.002 * reference.ppf(q))

    def test_grid_weights(self):
        prior = TruncatedBeta(2, 3, upper=0.01, lower=0.001)
        edges = np.linspace(0.001, 0.01, 65)
        unit = np.clip((edges - 0.001) / (0.01 - 0.001), 0.0, 1.0)
        mass = np.diff(stats.beta(2, 3).cdf(unit))
        assert_bitwise(prior.grid_weights(64), mass / mass.sum())
