"""Host-speed probes, taken between the timed steps of a measurement.

The benchmark's host is a shared machine whose processors switch, every
few seconds to every few minutes, between speeds up to 1.7x apart.  A run
of at most 60 s cannot average over that, so two sets of runs of the same
code can differ by more than any useful bound.  The probe is a fixed piece
of work that never changes with the program: a pure-Python part (dicts,
tuples, sorting, JSON, like the program's orchestration and store code)
and a numpy part (random draws, cumulative sums, sorts and element-wise
passes over arrays larger than the processor's private caches, like the
resolvers and the posterior grid).  Timed right before and right after a
step, it tells how fast the host ran meanwhile, and the step's time is
rescaled to :data:`REFERENCE_S`, the probe's time at the reference speed.
A change to the program moves the rescaled time; a change of the host's
speed mostly does not.
"""

import json
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Probe seconds at the reference host speed.  A step that took ``wall``
#: seconds between probes of ``before`` and ``after`` seconds is reported
#: as ``wall * REFERENCE_S / mean(before, after)``.  Fixed, so that every
#: commit is rescaled to the same speed; it is about the probe's time on a
#: 2-vCPU Intel Xeon microVM in its slower, more common state.
REFERENCE_S = 0.030

#: Every probe time this process measured, for the record.
history: List[float] = []

_RNG_SEED = 20040628
_WORDS = [f"cell-{i:05d}" for i in range(2_000)]


def _python_part() -> int:
    table = {}
    for round_ in range(20):
        for index, word in enumerate(_WORDS):
            table[word] = (index * 7919 + round_) % 1009, word[::-1]
    rows = sorted(table.items(), key=lambda item: item[1])
    text = json.dumps(rows[:500], sort_keys=True)
    return len(text) + len(json.loads(text))


def _numpy_part() -> float:
    rng = np.random.default_rng(_RNG_SEED)
    draws = rng.exponential(1.0, size=(64, 2_000))
    totals = np.cumsum(draws, axis=1)
    order = np.argsort(totals[:, -1])
    total = float(order[0] + totals.min())
    for _ in range(4):
        grid = rng.random(200_000)
        total += float((np.exp(-grid) * np.log1p(grid)).sum())
    return total


def probe() -> float:
    """Seconds one probe takes now."""
    started = time.perf_counter()
    _python_part()
    _numpy_part()
    seconds = time.perf_counter() - started
    history.append(seconds)
    return seconds


def rescale(seconds: float, before: float, after: float) -> float:
    """*seconds* at the reference speed, given the probes around them."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


def timed_steps(
    steps: List[Tuple[str, Callable[[], Any]]], probing: bool,
) -> Tuple[Dict[str, Any], Dict[str, float], Dict[str, float]]:
    """Run named *steps* back to back: ``(outputs, raw_s, rescaled_s)``.

    With *probing*, one probe precedes the first step and one follows each
    step, so that neighbouring steps share a probe; without it the
    rescaled times are the raw ones.
    """
    outputs: Dict[str, Any] = {}
    raw: Dict[str, float] = {}
    scaled: Dict[str, float] = {}
    before = probe() if probing else 0.0
    for name, call in steps:
        started = time.perf_counter()
        outputs[name] = call()
        raw[name] = time.perf_counter() - started
        if probing:
            after = probe()
            scaled[name] = rescale(raw[name], before, after)
            before = after
    return outputs, raw, (scaled if probing else dict(raw))
