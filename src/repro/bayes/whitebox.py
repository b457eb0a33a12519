"""White-box (two-release) Bayesian inference — paper eq. (2)-(6).

Two releases run side by side behind the managed-upgrade middleware; on
each demand the monitoring subsystem records which of the Table-1 events
occurred.  Given counts ``(r1, r2, r3)`` in ``N`` demands the posterior

    f(pA, pB, pAB | N, r1, r2, r3)
        proportional to  f(pA, pB, pAB) * L(N, r1, r2, r3 | pA, pB, pAB)

is evaluated on a dense tensor grid; the likelihood is multinomial over
the four cell probabilities

    p11 = pAB,  p10 = pA - pAB,  p01 = pB - pAB,  p00 = 1 - pA - pB + pAB.

Marginal posteriors (eq. 3-5) come from summing the grid; confidences
(eq. 6) and percentiles from cumulative sums.  The reparameterisation
``pAB = q * min(pA, pB)``, ``q ~ U(0, 1)`` makes the paper's indifference
prior a product measure on the grid.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import InferenceError
from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec, WhiteBoxPrior


#: Height, in pA rows, of the slabs the posterior is evaluated in.  At the
#: default grid a 4-row slab of (B, Q) float64 cells is ~330 KB, so the
#: multiply/add/max passes over a slab stay in L2 cache.
SLAB_ROWS = 4


def _log_in_place(values: np.ndarray) -> np.ndarray:
    """Replace *values* by log(values), with -inf (not nan) for
    non-positive entries; returns *values*."""
    invalid = ~(values > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(values, out=values)
    np.copyto(values, -np.inf, where=invalid)
    return values


class WhiteBoxAssessor:
    """Sequentially updatable trivariate posterior over (pA, pB, pAB).

    Parameters
    ----------
    prior:
        The :class:`WhiteBoxPrior` (truncated-Beta marginals plus the
        uniform-conditional coincidence prior).
    grid:
        Grid resolution; the default resolves the paper's scenarios.

    Example
    -------
    >>> from repro.bayes import TruncatedBeta, WhiteBoxPrior, JointCounts
    >>> prior = WhiteBoxPrior(TruncatedBeta(20, 20, upper=2e-3),
    ...                       TruncatedBeta(2, 3, upper=2e-3))
    >>> assessor = WhiteBoxAssessor(prior)
    >>> assessor.observe(JointCounts(both_fail=1, only_first_fails=4,
    ...                              only_second_fails=2, both_succeed=9993))
    >>> 0 < assessor.confidence_b(1.5e-3) <= 1
    True
    """

    def __init__(self, prior: WhiteBoxPrior, grid: GridSpec = GridSpec()):
        self.prior = prior
        self.grid = grid

        self._pa = prior.marginal_a.grid(grid.n_pa)  # (A,)
        self._pb = prior.marginal_b.grid(grid.n_pb)  # (B,)
        q_edges = np.linspace(0.0, 1.0, grid.n_q + 1)
        self._q = 0.5 * (q_edges[:-1] + q_edges[1:])  # (Q,)

        log_wa = _log_in_place(prior.marginal_a.grid_weights(grid.n_pa))
        log_wb = _log_in_place(prior.marginal_b.grid_weights(grid.n_pb))
        log_wq = -np.log(grid.n_q)
        self._log_prior = (
            log_wa[:, None, None] + log_wb[None, :, None] + log_wq
        )  # (A, B, 1) broadcastable over Q
        self._shape = (grid.n_pa, grid.n_pb, grid.n_q)
        self._slabs = [
            slice(start, start + SLAB_ROWS)
            for start in range(0, grid.n_pa, SLAB_ROWS)
        ]

        # The (A, B, Q) grids are built on first use: log p11, p10, p01,
        # p00 when a non-zero count needs them, pAB for the pAB queries.
        self._pab: Optional[np.ndarray] = None
        self._log_cells: List[Optional[np.ndarray]] = [None] * 4

        # log prior + r1 log p11 + r2 log p10 + r3 log p01 for the
        # failure counts in ``_partial_key``; it depends on counts only,
        # so it outlives reset() / replace_counts().
        self._partial: Optional[np.ndarray] = None
        self._partial_key: Optional[Tuple[int, int, int]] = None

        self._counts = JointCounts()
        self._mass: Optional[np.ndarray] = None  # reused output buffer
        self._mass_valid = False
        self._pab_sort_index: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # observation management
    # ------------------------------------------------------------------

    @property
    def counts(self) -> JointCounts:
        """All observations folded in so far."""
        return self._counts

    def observe(self, counts: JointCounts) -> None:
        """Accumulate new joint observations."""
        self._counts = self._counts + counts
        self._mass_valid = False

    def replace_counts(self, counts: JointCounts) -> None:
        """Set the *cumulative* counts directly (used by the runner).

        The multinomial likelihood depends only on cumulative counts, so a
        sequential study can jump between checkpoints without replaying
        increments.
        """
        self._counts = counts
        self._mass_valid = False

    def reset(self) -> None:
        """Drop all observations, reverting to the prior."""
        self._counts = JointCounts()
        self._mass_valid = False

    # ------------------------------------------------------------------
    # posterior evaluation
    # ------------------------------------------------------------------

    def _cell_probabilities(self, index: int, rows: slice) -> np.ndarray:
        """p11 = pAB, p10, p01 or p00 (index 0-3) on the grid rows *rows*."""
        pa3 = self._pa[rows, None, None]
        pb3 = self._pb[None, :, None]
        pab = self._q[None, None, :] * np.minimum(pa3, pb3)
        if index == 0:
            return pab
        if index == 1:
            return pa3 - pab
        if index == 2:
            return pb3 - pab
        return 1.0 - pa3 - pb3 + pab

    def _pab_grid(self) -> np.ndarray:
        """pAB = q * min(pA, pB) on the (A, B, Q) grid, built once."""
        if self._pab is None:
            self._pab = self._cell_probabilities(0, slice(None))
        return self._pab

    def _log_cell(self, index: int) -> np.ndarray:
        """log p11, p10, p01 or p00 (index 0-3) on the grid, built once,
        slab by slab so that no whole-grid pAB is needed."""
        grid = self._log_cells[index]
        if grid is None:
            grid = np.empty(self._shape)
            for rows in self._slabs:
                grid[rows] = _log_in_place(
                    self._cell_probabilities(index, rows)
                )
            self._log_cells[index] = grid
        return grid

    def _partial_sum(self, failures: Tuple[int, int, int]) -> np.ndarray:
        """log prior + r1 log p11 + r2 log p10 + r3 log p01, memoised on
        ``failures = (r1, r2, r3)``.

        Summed slab by slab into one reused buffer, in the order the
        terms are listed, skipping zero counts — each cell sees the same
        float operations as the whole-grid expression
        ``(((P + 0) + r1 L11) + r2 L10) + r3 L01``.
        """
        partial = self._partial
        if partial is not None and self._partial_key == failures:
            return partial
        self._partial_key = None
        if partial is None:
            partial = self._partial = np.empty(self._shape)
        # Multiply only the terms with non-zero exponents: with r=0 a cell
        # probability of exactly zero is still admissible (0^0 = 1).
        terms = [
            (count, self._log_cell(index))
            for index, count in enumerate(failures)
            if count
        ]
        scratch = np.empty((SLAB_ROWS,) + self._shape[1:])
        for rows in self._slabs:
            block = partial[rows]
            # P + 0, not a copy: the whole-grid form's sign of zero.
            np.add(self._log_prior[rows], 0.0, out=block)
            product = scratch[: len(block)]
            for count, log_cell in terms:
                np.multiply(count, log_cell[rows], out=product)
                np.add(block, product, out=block)
        self._partial_key = failures
        return partial

    def _posterior(self) -> np.ndarray:
        """The normalised posterior mass on the grid (a reused buffer).

        Bit-identical to the whole-grid evaluation
        ``m = exp(log_post - log_post.max()); m /= m.sum()`` with
        ``log_post = partial + r4 log p00``: the elementwise steps run
        slab by slab in place, and the two reductions whose result
        depends on summation order (the total here and the marginal
        sums) stay whole-array calls on the same contiguous array.
        """
        mass = self._mass
        if mass is not None and self._mass_valid:
            return mass
        r1, r2, r3, r4 = self._counts.as_tuple()
        partial = self._partial_sum((r1, r2, r3))
        log_p00 = self._log_cell(3) if r4 else None
        if mass is None:
            mass = self._mass = np.empty(self._shape)
        scratch = np.empty((SLAB_ROWS,) + self._shape[1:])
        peak = -np.inf
        for rows in self._slabs:
            block = mass[rows]
            if log_p00 is None:
                np.copyto(block, partial[rows])
            else:
                product = scratch[: len(block)]
                np.multiply(r4, log_p00[rows], out=product)
                np.add(partial[rows], product, out=block)
            peak = max(peak, float(block.max()))
        if not np.isfinite(peak):
            raise InferenceError(
                "posterior vanished everywhere: the observations are "
                "impossible under the prior's support"
            )
        for rows in self._slabs:
            block = mass[rows]
            np.subtract(block, peak, out=block)
            np.exp(block, out=block)
        mass /= mass.sum()
        self._mass_valid = True
        return mass

    # ------------------------------------------------------------------
    # marginals (paper eq. 3-5)
    # ------------------------------------------------------------------

    def marginal_a(self) -> Tuple[np.ndarray, np.ndarray]:
        """(grid, mass) of the old release's pfd posterior — eq. (4)."""
        return self._pa.copy(), self._posterior().sum(axis=(1, 2))

    def marginal_b(self) -> Tuple[np.ndarray, np.ndarray]:
        """(grid, mass) of the new release's pfd posterior — eq. (5)."""
        return self._pb.copy(), self._posterior().sum(axis=(0, 2))

    def marginal_ab(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted pAB values, mass) of the coincident-failure posterior —
        eq. (3).  pAB varies cell-by-cell, so the marginal is reported over
        the sorted flattened grid."""
        if self._pab_sort_index is None:
            self._pab_sort_index = np.argsort(self._pab_grid(), axis=None)
        flat_mass = self._posterior().ravel()[self._pab_sort_index]
        flat_values = self._pab_grid().ravel()[self._pab_sort_index]
        return flat_values, flat_mass

    # ------------------------------------------------------------------
    # confidences (eq. 6) and percentiles
    # ------------------------------------------------------------------

    @staticmethod
    def _confidence(values: np.ndarray, mass: np.ndarray, target: float) -> float:
        return float(mass[values <= target].sum())

    @staticmethod
    def _percentile(
        values: np.ndarray, mass: np.ndarray, level: float
    ) -> float:
        if not 0.0 < level < 1.0:
            raise InferenceError(f"level must be in (0,1): {level!r}")
        cumulative = np.cumsum(mass)
        index = int(np.searchsorted(cumulative, level))
        index = min(index, len(values) - 1)
        return float(values[index])

    def confidence_a(self, target: float) -> float:
        """P(pA <= target | observations)."""
        values, mass = self.marginal_a()
        return self._confidence(values, mass, target)

    def confidence_b(self, target: float) -> float:
        """P(pB <= target | observations)."""
        values, mass = self.marginal_b()
        return self._confidence(values, mass, target)

    def confidence_ab(self, target: float) -> float:
        """P(pAB <= target | observations) — system coincident failure."""
        values, mass = self.marginal_ab()
        return self._confidence(values, mass, target)

    def percentile_a(self, level: float) -> float:
        """T with P(pA <= T) = level (e.g. the paper's TA99%)."""
        values, mass = self.marginal_a()
        return self._percentile(values, mass, level)

    def percentile_b(self, level: float) -> float:
        """T with P(pB <= T) = level (e.g. the paper's TB99%)."""
        values, mass = self.marginal_b()
        return self._percentile(values, mass, level)

    def percentile_ab(self, level: float) -> float:
        """T with P(pAB <= T) = level."""
        values, mass = self.marginal_ab()
        return self._percentile(values, mass, level)

    def checkpoint_summary(
        self,
        levels_a: Sequence[float] = (),
        levels_b: Sequence[float] = (),
        targets_b: Sequence[float] = (),
    ) -> Tuple[List[float], List[float], List[float]]:
        """All of one checkpoint's queries from one posterior evaluation.

        Returns ``(percentiles_a, percentiles_b, confidences_b)`` for the
        requested levels/targets.  Each single-release marginal mass is
        reduced from the posterior grid exactly once and reused for every
        query — the same reductions, in the same order, as calling
        :meth:`percentile_a` / :meth:`percentile_b` / :meth:`confidence_b`
        individually, so the results are bit-identical; but a sequential
        study's checkpoint loop pays one grid reduction per marginal
        instead of one per query.
        """
        posterior = self._posterior()
        mass_a = posterior.sum(axis=(1, 2))
        mass_b = posterior.sum(axis=(0, 2))
        return (
            [self._percentile(self._pa, mass_a, level) for level in levels_a],
            [self._percentile(self._pb, mass_b, level) for level in levels_b],
            [self._confidence(self._pb, mass_b, t) for t in targets_b],
        )

    # ------------------------------------------------------------------
    # point summaries
    # ------------------------------------------------------------------

    def posterior_mean_a(self) -> float:
        """Posterior E[pA]."""
        values, mass = self.marginal_a()
        return float(np.dot(values, mass))

    def posterior_mean_b(self) -> float:
        """Posterior E[pB]."""
        values, mass = self.marginal_b()
        return float(np.dot(values, mass))

    def posterior_mean_ab(self) -> float:
        """Posterior E[pAB] — expected 1-out-of-2 system pfd."""
        return float(np.sum(self._pab_grid() * self._posterior()))

    def __repr__(self) -> str:
        return (
            f"WhiteBoxAssessor(grid={self.grid!r}, counts="
            f"{self._counts.as_tuple()!r})"
        )
