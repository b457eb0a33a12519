"""The white-box assessor allocates grids on demand, not per checkpoint.

Construction builds no (pA, pB, q) array: the likelihood grids wait for
the first count that needs them.  A steady-state checkpoint — only the
both-succeed count moved, as at most checkpoints of a sequential study —
reuses the memoised failure-count partial sum and the posterior buffer,
so it allocates slab scratch and marginals, well under one grid array.
numpy reports its buffers to ``tracemalloc``.
"""

import tracemalloc

from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.experiments.scenarios import scenario_1

GRID = GridSpec()
#: Bytes of one float64 array over the whole default grid (~13 MB).
GRID_BYTES = GRID.cells * 8


def traced_peak(action):
    tracemalloc.start()
    try:
        result = action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_construction_allocates_no_grid_array():
    _, peak = traced_peak(lambda: WhiteBoxAssessor(scenario_1().prior, GRID))
    assert peak < GRID_BYTES, f"constructor peaked at {peak} bytes"


def test_steady_state_checkpoint_peaks_below_one_and_a_half_grids():
    assessor = WhiteBoxAssessor(scenario_1().prior, GRID)
    assessor.replace_counts(JointCounts(2, 35, 25, 10_000))
    assessor.checkpoint_summary(levels_a=(0.99,), levels_b=(0.99, 0.9))

    def checkpoint():
        assessor.replace_counts(JointCounts(2, 35, 25, 10_500))
        return assessor.checkpoint_summary(
            levels_a=(0.99,), levels_b=(0.99, 0.9), targets_b=(1e-3,)
        )

    ((pa99,), (pb99, _), (confidence,)), peak = traced_peak(checkpoint)
    assert 0.0 < pa99 < 2e-3 and 0.0 < pb99 < 2e-3
    assert 0.0 <= confidence <= 1.0
    assert peak < 1.5 * GRID_BYTES, (
        f"steady-state checkpoint peaked at {peak} bytes "
        f"({peak / GRID_BYTES:.2f} grid arrays)"
    )
