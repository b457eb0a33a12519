"""Every registered spec's ``--fast --seed 1`` output, pinned.

``tests/fixtures/fast_seed1_all.txt`` is the CLI's ``all`` output with
the wall-clock part of each ``=== name (seed=1, N.Ns) ===`` header
removed.  This test re-renders each spec in process and compares it with
its section, so a change that moves any published number fails here.
Regenerate the fixture with::

    PYTHONPATH=src python -m repro.experiments.cli all --fast --seed 1 \\
        --no-cache | sed -E 's/^(=== [a-z0-9_]+) \\(.*\\) ===$/\\1 ===/' \\
        > tests/fixtures/fast_seed1_all.txt

A change that moves a number updates the fixture in the same change and
says in CHANGES.md which numbers moved and why.  ``report`` is left out
(``all`` skips it, and it stamps the date).
"""

import re
from pathlib import Path

import pytest

from repro.pipeline import (
    ExperimentOptions,
    discover,
    registered_specs,
    run_experiment,
)

FIXTURE = Path(__file__).parent.parent / "fixtures" / "fast_seed1_all.txt"
HEADER = re.compile(r"^=== ([a-z0-9_]+) ===$", re.MULTILINE)


def golden_sections():
    text = FIXTURE.read_text()
    headers = list(HEADER.finditer(text))
    return {
        match.group(1): text[
            match.end() + 1:
            headers[i + 1].start() if i + 1 < len(headers) else len(text)
        ]
        for i, match in enumerate(headers)
    }


def specs_in_all():
    discover()
    return {
        name: spec for name, spec in registered_specs().items() if spec.in_all
    }


def test_fixture_covers_every_spec_in_all():
    assert sorted(golden_sections()) == sorted(specs_in_all())


@pytest.mark.parametrize("name", sorted(specs_in_all()))
def test_fast_output_matches_golden(name):
    outcome = run_experiment(
        specs_in_all()[name], ExperimentOptions(seed=1, fast=True)
    )
    # The CLI prints the text, then an empty line.
    assert outcome.text + "\n\n" == golden_sections()[name]
