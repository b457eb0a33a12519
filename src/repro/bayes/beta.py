"""Beta distribution functions and truncated (range-scaled) Beta priors.

The paper defines its pfd priors as Beta distributions *"defined in the
range [0, 0.002]"* (Scenario 1) or *"[0, 0.01]"* (Scenario 2): a standard
Beta on [0, 1] linearly rescaled onto ``[lower, upper]``.

This is the one module that knows about scipy.  Its module-level
functions evaluate the standard Beta(a, b) on [0, 1] with the
``scipy.special`` ufuncs that scipy's own Beta distribution object calls,
so they return the same bits without building frozen distributions:

* ``sf`` calls ``betaincc(a, b, x)``;
* ``cdf`` calls ``betainc(a, b, x)``;
* ``ppf`` calls ``betaincinv(a, b, q)``;
* ``mean`` is ``a / (a + b)``;
* ``logpdf`` is ``xlog1py(b - 1, -x) + xlogy(a - 1, x) - betaln(a, b)``;
* ``pdf`` is ``exp(logpdf)``.

``scipy.special`` is imported inside each function on first use, not at
module level, so experiments that never assess confidence start without
paying for the scipy import.  :class:`TruncatedBeta` applies the affine
change of variable on top of these functions and exposes exactly the
operations the assessors need: pdf on a grid, cdf, inverse cdf, mean and
sampling.
"""

from typing import Optional

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_positive


def sf(x, a, b):
    """P(X > x) for X ~ Beta(a, b): ``scipy.special.betaincc``."""
    import scipy.special

    return scipy.special.betaincc(a, b, x)


def cdf(x, a, b):
    """P(X <= x) for X ~ Beta(a, b): ``scipy.special.betainc``."""
    import scipy.special

    return scipy.special.betainc(a, b, x)


def ppf(q, a, b):
    """Inverse cdf of Beta(a, b): ``scipy.special.betaincinv``."""
    import scipy.special

    return scipy.special.betaincinv(a, b, q)


def mean(a, b):
    """E[X] for X ~ Beta(a, b)."""
    return a / (a + b)


def logpdf(x, a, b):
    """Log-density of Beta(a, b) at *x* in [0, 1] (scipy's own formula)."""
    import scipy.special

    return (
        scipy.special.xlog1py(b - 1.0, -x)
        + scipy.special.xlogy(a - 1.0, x)
        - scipy.special.betaln(a, b)
    )


def pdf(x, a, b):
    """Density of Beta(a, b) at *x* in [0, 1], as ``exp(logpdf)``."""
    return np.exp(logpdf(x, a, b))


class TruncatedBeta:
    """Beta(alpha, beta) rescaled to the interval ``[lower, upper]``.

    If ``X ~ Beta(alpha, beta)`` on [0, 1] then this distribution is that
    of ``lower + (upper - lower) * X``.

    Example (the paper's Scenario 1 old-release prior):

    >>> prior_a = TruncatedBeta(20, 20, upper=0.002)
    >>> round(prior_a.mean, 6)
    0.001
    """

    def __init__(
        self,
        alpha: float,
        beta: float,
        upper: float,
        lower: float = 0.0,
    ):
        self.alpha = check_positive(alpha, "alpha")
        self.beta = check_positive(beta, "beta")
        if not 0.0 <= lower < upper:
            raise ValidationError(
                f"need 0 <= lower < upper, got [{lower!r}, {upper!r}]"
            )
        self.lower = float(lower)
        self.upper = float(upper)
        self._width = self.upper - self.lower

    @property
    def mean(self) -> float:
        """E[X] = lower + width * alpha / (alpha + beta)."""
        return self.lower + self._width * self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        a, b = self.alpha, self.beta
        unit_var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return self._width ** 2 * unit_var

    def _to_unit(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lower) / self._width

    def pdf(self, x) -> np.ndarray:
        """Density at *x* (zero outside the support)."""
        unit = self._to_unit(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = pdf(unit, self.alpha, self.beta) / self._width
        return np.where((unit >= 0.0) & (unit <= 1.0), dens, 0.0)

    def logpdf(self, x) -> np.ndarray:
        """Log-density at *x* (-inf outside the support)."""
        unit = self._to_unit(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            logdens = logpdf(unit, self.alpha, self.beta) - np.log(
                self._width
            )
        return np.where(
            (unit >= 0.0) & (unit <= 1.0), logdens, -np.inf
        )

    def cdf(self, x) -> np.ndarray:
        """P(X <= x)."""
        unit = np.clip(self._to_unit(x), 0.0, 1.0)
        return cdf(unit, self.alpha, self.beta)

    def ppf(self, q) -> np.ndarray:
        """Inverse cdf: the paper's percentiles (e.g. ``ppf(0.99)``)."""
        return self.lower + self._width * ppf(q, self.alpha, self.beta)

    def sample(
        self, rng: np.random.Generator, size: Optional[int] = None
    ):
        """Draw samples using *rng*."""
        draws = rng.beta(self.alpha, self.beta, size=size)
        return self.lower + self._width * draws

    def grid(self, points: int) -> np.ndarray:
        """Cell-midpoint grid over the support, for quadrature."""
        if points <= 0:
            raise ValidationError(f"points must be > 0: {points!r}")
        edges = np.linspace(self.lower, self.upper, points + 1)
        return 0.5 * (edges[:-1] + edges[1:])

    def grid_weights(self, points: int) -> np.ndarray:
        """Prior probability mass of each midpoint cell (sums to 1).

        Computed from cdf differences rather than pdf × width so that very
        peaked priors (e.g. Beta(20, 20)) lose no mass to discretisation.
        """
        edges = np.linspace(self.lower, self.upper, points + 1)
        mass = np.diff(self.cdf(edges))
        total = mass.sum()
        if total <= 0.0:
            raise ValidationError("prior mass vanished on the grid")
        return mass / total

    def __repr__(self) -> str:
        return (
            f"TruncatedBeta(alpha={self.alpha!r}, beta={self.beta!r}, "
            f"range=[{self.lower!r}, {self.upper!r}])"
        )
