"""Ablation: posterior grid resolution vs accuracy and update cost.

DESIGN.md calls out the (pA, pB, q) tensor-grid resolution as the key
numerical knob of the white-box inference.  This bench measures, per
grid size, (a) the time of one full posterior evaluation and (b) the
drift of the reported TB99% against the finest grid.
"""

import time

import pytest

from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.common.tables import render_table
from repro.experiments.scenarios import scenario_1

GRIDS = {
    "coarse (48x48x16)": GridSpec(48, 48, 16),
    "medium (96x96x32)": GridSpec(96, 96, 32),
    "default (160x160x64)": GridSpec(160, 160, 64),
}

#: A representative Scenario-1 observation set (~50k demands).
COUNTS = JointCounts(15, 35, 25, 49_925)
#: Warm-up observations with other failure counts: the timed query
#: after them pays one full evaluation, not the grid build.
WARM_COUNTS = JointCounts(16, 35, 25, 49_924)


def evaluate(grid: GridSpec) -> dict:
    prior = scenario_1().prior
    assessor = WhiteBoxAssessor(prior, grid)
    assessor.observe(WARM_COUNTS)
    assessor.percentile_b(0.99)
    assessor.replace_counts(COUNTS)
    started = time.perf_counter()
    tb99 = assessor.percentile_b(0.99)
    elapsed = time.perf_counter() - started
    return {"tb99": tb99, "seconds": elapsed, "cells": grid.cells}


@pytest.fixture(scope="module")
def sweep():
    return {name: evaluate(grid) for name, grid in GRIDS.items()}


def test_grid_resolution_benchmark(benchmark, sweep):
    # Benchmark the default grid's posterior update; after the first
    # round the failure counts repeat, so this is the steady state.
    prior = scenario_1().prior
    assessor = WhiteBoxAssessor(prior, GRIDS["default (160x160x64)"])

    def one_update():
        assessor.replace_counts(COUNTS)
        return assessor.percentile_b(0.99)

    benchmark(one_update)

    reference = sweep["default (160x160x64)"]["tb99"]
    rows = [
        [name, result["cells"], result["tb99"],
         abs(result["tb99"] - reference) / reference]
        for name, result in sweep.items()
    ]
    print()
    print(render_table(
        ["Grid", "Cells", "TB99%", "Rel. drift vs finest"],
        rows,
        title="Grid-resolution ablation (Scenario 1 counts)",
        float_digits=6,
    ))


def test_grid_resolution_converges(sweep):
    reference = sweep["default (160x160x64)"]["tb99"]
    medium = sweep["medium (96x96x32)"]["tb99"]
    coarse = sweep["coarse (48x48x16)"]["tb99"]
    # Medium must land within 5% of the finest grid; coarse within 15%.
    assert abs(medium - reference) / reference < 0.05
    assert abs(coarse - reference) / reference < 0.15
