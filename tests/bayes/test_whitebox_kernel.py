"""Bitwise oracle for the white-box posterior kernel.

``WhiteBoxAssessor`` evaluates the eq. (2)-(6) posterior from lazily
built likelihood grids, a memoised failure-count partial sum and slab-wise
in-place passes.  :class:`ReferenceAssessor` keeps the whole-grid formula
that kernel replaced — every grid built eagerly, one fresh array per term
— and every public query must agree with it bit for bit
(``view(np.int64)``), across observation sequences that skip zero terms,
revisit earlier failure counts, use grids whose ``n_pa`` is not a
multiple of the slab height, and make the posterior vanish.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes.beta import TruncatedBeta
from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.whitebox import SLAB_ROWS, WhiteBoxAssessor
from repro.common.errors import InferenceError
from repro.experiments.scenarios import scenario_1, scenario_2


def _safe_log(values):
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values)
    return np.where(values > 0.0, logs, -np.inf)


class ReferenceAssessor(WhiteBoxAssessor):
    """The whole-grid posterior: eager grids, one temporary per term."""

    def __init__(self, prior, grid=GridSpec()):
        super().__init__(prior, grid)
        pa3 = self._pa[:, None, None]
        pb3 = self._pb[None, :, None]
        pab = self._q[None, None, :] * np.minimum(pa3, pb3)
        self._reference_pab = pab
        self._log_p11 = _safe_log(pab)
        self._log_p10 = _safe_log(pa3 - pab)
        self._log_p01 = _safe_log(pb3 - pab)
        self._log_p00 = _safe_log(1.0 - pa3 - pb3 + pab)
        self._cached = (None, None)

    def _pab_grid(self):
        return self._reference_pab

    def _posterior(self):
        if self._cached[0] == self._counts:
            return self._cached[1]
        r1, r2, r3, r4 = self._counts.as_tuple()
        log_post = self._log_prior + np.zeros_like(self._log_p11)
        if r1:
            log_post = log_post + r1 * self._log_p11
        if r2:
            log_post = log_post + r2 * self._log_p10
        if r3:
            log_post = log_post + r3 * self._log_p01
        if r4:
            log_post = log_post + r4 * self._log_p00
        peak = log_post.max()
        if not np.isfinite(peak):
            raise InferenceError("posterior vanished everywhere")
        mass = np.exp(log_post - peak)
        mass /= mass.sum()
        self._cached = (self._counts, mass)
        return mass


def impossible_prior():
    """Both pfds in [0.99, 1]: p00 = 1 - pA - pB + pAB < 0 on every grid
    cell, so any both-succeed count makes the posterior vanish."""
    return WhiteBoxPrior(
        TruncatedBeta(2, 2, upper=1.0, lower=0.99),
        TruncatedBeta(2, 2, upper=1.0, lower=0.99),
    )


PRIORS = {
    "scenario-1": scenario_1().prior,
    "scenario-2": scenario_2().prior,
    "impossible": impossible_prior(),
}

#: Few values per count, zero included, so that a sequence revisits
#: earlier (r1, r2, r3) keys and the memoised partial is reused,
#: replaced and reused again.
COUNTS = st.builds(
    JointCounts,
    both_fail=st.sampled_from([0, 1, 3]),
    only_first_fails=st.sampled_from([0, 2, 35]),
    only_second_fails=st.sampled_from([0, 1, 25]),
    both_succeed=st.sampled_from([0, 7, 1000, 49_925]),
)

OPERATION = st.one_of(
    st.tuples(st.just("replace_counts"), COUNTS),
    st.tuples(st.just("observe"), COUNTS),
    st.tuples(st.just("reset")),
)
OPERATIONS = st.lists(OPERATION, min_size=1, max_size=8)

LEVELS = (0.5, 0.9, 0.99)


def bits(value):
    return np.asarray(value, dtype=np.float64).view(np.int64)


def queries(assessor):
    """Every public query of one posterior state (or the error it
    raises)."""
    try:
        pa, mass_a = assessor.marginal_a()
        pb, mass_b = assessor.marginal_b()
        pab, mass_ab = assessor.marginal_ab()
        mid_a = pa[len(pa) // 2]
        mid_b = pb[len(pb) // 2]
        mid_ab = pab[len(pab) // 2]
        summary = assessor.checkpoint_summary(
            levels_a=LEVELS, levels_b=LEVELS, targets_b=(mid_b, 1e-3)
        )
        return {
            "marginal_a": (pa, mass_a),
            "marginal_b": (pb, mass_b),
            "marginal_ab": (pab, mass_ab),
            "confidence_a": assessor.confidence_a(mid_a),
            "confidence_b": assessor.confidence_b(mid_b),
            "confidence_ab": assessor.confidence_ab(mid_ab),
            "percentile_a": [assessor.percentile_a(x) for x in LEVELS],
            "percentile_b": [assessor.percentile_b(x) for x in LEVELS],
            "percentile_ab": [assessor.percentile_ab(x) for x in LEVELS],
            "checkpoint_summary": summary,
            "posterior_mean_a": assessor.posterior_mean_a(),
            "posterior_mean_b": assessor.posterior_mean_b(),
            "posterior_mean_ab": assessor.posterior_mean_ab(),
        }
    except InferenceError:
        return "vanished"


def assert_same_bits(kernel, reference):
    got, want = queries(kernel), queries(reference)
    if want == "vanished" or got == "vanished":
        assert got == want
        return
    assert got.keys() == want.keys()
    for name in want:
        flat_got = _flatten(got[name])
        flat_want = _flatten(want[name])
        assert len(flat_got) == len(flat_want), name
        for g, w in zip(flat_got, flat_want):
            assert np.array_equal(bits(g), bits(w)), name


def _flatten(value):
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _flatten(item)]
    return [value]


def replay(prior_name, grid, operations):
    kernel = WhiteBoxAssessor(PRIORS[prior_name], grid)
    reference = ReferenceAssessor(PRIORS[prior_name], grid)
    assert_same_bits(kernel, reference)
    for operation in operations:
        for assessor in (kernel, reference):
            getattr(assessor, operation[0])(*operation[1:])
        assert kernel.counts == reference.counts
        assert_same_bits(kernel, reference)


def test_small_grids_do_not_fill_whole_slabs():
    for grid in (GridSpec(7, 5, 4), GridSpec(161, 9, 4)):
        assert grid.n_pa % SLAB_ROWS


@given(
    prior_name=st.sampled_from(sorted(PRIORS)),
    grid=st.sampled_from([GridSpec(7, 5, 4), GridSpec(161, 9, 4)]),
    operations=OPERATIONS,
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_bitwise(prior_name, grid, operations):
    replay(prior_name, grid, operations)


@given(
    prior_name=st.sampled_from(["scenario-1", "scenario-2"]),
    operations=st.lists(OPERATION, min_size=2, max_size=3),
)
@settings(max_examples=3, deadline=None)
def test_kernel_matches_reference_on_default_grid(prior_name, operations):
    replay(prior_name, GridSpec(), operations)


def test_partial_is_reused_replaced_and_reused_again():
    # A deterministic walk through the memo's states on top of the
    # property test: same key (reuse), new key (replace), old key again.
    grid = GridSpec(161, 9, 4)
    sequence = [
        ("replace_counts", JointCounts(0, 2, 1, 100)),
        ("replace_counts", JointCounts(0, 2, 1, 200)),
        ("replace_counts", JointCounts(1, 2, 1, 300)),
        ("reset",),
        ("replace_counts", JointCounts(0, 2, 1, 400)),
        ("observe", JointCounts(0, 0, 0, 5)),
    ]
    replay("scenario-1", grid, sequence)


def test_vanished_posterior_raises_and_recovers():
    kernel = WhiteBoxAssessor(impossible_prior(), GridSpec(7, 5, 4))
    kernel.replace_counts(JointCounts(0, 0, 0, 1))
    with pytest.raises(InferenceError, match="vanished"):
        kernel.percentile_b(0.99)
    with pytest.raises(InferenceError, match="vanished"):
        kernel.checkpoint_summary(levels_b=(0.99,))
    kernel.reset()
    reference = ReferenceAssessor(impossible_prior(), GridSpec(7, 5, 4))
    assert_same_bits(kernel, reference)
