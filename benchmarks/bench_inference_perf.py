"""Performance benchmarks: the inference hot paths.

The managed upgrade re-evaluates the white-box posterior at every
checkpoint; these micro-benchmarks keep its cost visible:

* building an assessor and answering its first query (the likelihood
  grids are built on first use);
* one posterior update after the failure counts moved + percentile
  query at the default grid;
* a steady-state checkpoint, where only the both-succeed count moved
  (the memoised failure-count partial sum is reused);
* a black-box update;
* a full sequential 50k-demand assessment at the benchmark grid.
"""

import itertools

from repro.bayes.beta import TruncatedBeta
from repro.bayes.blackbox import BlackBoxAssessor
from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec
from repro.bayes.runner import SequentialAssessment
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.bayes.detection import PerfectDetection
from repro.experiments.scenarios import scenario_1

import numpy as np

COUNTS = JointCounts(15, 35, 25, 49_925)
#: Same demands, one more both-fail: different failure counts.
OTHER_COUNTS = JointCounts(16, 35, 25, 49_924)


def test_whitebox_construction(benchmark):
    prior = scenario_1().prior

    def build_and_query():
        assessor = WhiteBoxAssessor(prior, GridSpec(160, 160, 64))
        assessor.replace_counts(COUNTS)
        return assessor.percentile_b(0.99)

    result = benchmark(build_and_query)
    assert 0.0 < result < 0.002


def test_whitebox_update_and_percentile(benchmark):
    assessor = WhiteBoxAssessor(scenario_1().prior, GridSpec(160, 160, 64))
    counts = itertools.cycle((OTHER_COUNTS, COUNTS))
    assessor.replace_counts(next(counts))
    assessor.percentile_b(0.99)  # build the grids outside the timing

    def update():
        assessor.replace_counts(next(counts))
        return assessor.percentile_b(0.99)

    result = benchmark(update)
    assert 0.0 < result < 0.002


def test_whitebox_steady_state_checkpoint(benchmark):
    assessor = WhiteBoxAssessor(scenario_1().prior, GridSpec(160, 160, 64))
    successes = itertools.cycle((49_925, 49_926))
    r1, r2, r3, _ = COUNTS.as_tuple()

    def checkpoint():
        assessor.replace_counts(JointCounts(r1, r2, r3, next(successes)))
        return assessor.checkpoint_summary(
            levels_a=(0.99,), levels_b=(0.99, 0.90), targets_b=(1e-3,)
        )

    checkpoint()  # build the grids and the partial sum outside the timing
    (pa99,), (pb99, _), _ = benchmark(checkpoint)
    assert 0.0 < pb99 < 0.002 and 0.0 < pa99 < 0.002


def test_blackbox_update(benchmark):
    assessor = BlackBoxAssessor(TruncatedBeta(2, 3, upper=0.002))

    def update():
        assessor.reset()
        assessor.observe(50_000, 40)
        return assessor.confidence(1e-3)

    result = benchmark(update)
    assert 0.0 <= result <= 1.0


def test_sequential_assessment_50k(benchmark):
    scenario = scenario_1()
    grid = GridSpec(96, 96, 32)
    assessor = WhiteBoxAssessor(scenario.prior, grid)
    assessment = SequentialAssessment(
        scenario.ground_truth,
        PerfectDetection(),
        scenario.prior,
        total_demands=50_000,
        checkpoint_every=5_000,
        confidence_targets=(1e-3,),
        grid=grid,
    )
    history = benchmark.pedantic(
        lambda: assessment.run(np.random.default_rng(3), assessor=assessor),
        rounds=1, iterations=1,
    )
    assert history.final().demands == 50_000
