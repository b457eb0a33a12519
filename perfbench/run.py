"""Repository benchmark: one workload per invocation, one JSON line out.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``wall_s``, ``demands_per_s``, ``setup_s``, ``replay_s`` and
``peak_rss_mb``, each a median over the iterations that fit in S seconds.
Times are rescaled to a reference host speed by probes taken between the
timed steps (see ``calibrate``); their wall-clock medians are recorded too.
``--trace 1`` runs the same operation untraced and then traced (every
layer entry point in ``spans.TARGETS`` wrapped) and reports the per-layer
split of the median traced iteration.  Outputs are checked on every
iteration; a failed check or an exception counts toward ``failed``.
The metric names and units are those ``BENCHMARK.json`` declares.

Human-readable lines come first (metric, median, quartiles, sample
count, unit), then a ``record:`` line with the full result and a machine
fingerprint, and last the one-line JSON result.  A traced run also writes
its spans under ``.perfbench_out/``.

The benchmark runs only from a checkout that holds ``src/repro``: it puts
that directory first on the import path and refuses to run without it.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Outcome  # noqa: E402

OUT = ROOT / ".perfbench_out"
CONFIG = ROOT / "BENCHMARK.json"

#: Fewest timed iterations, even when they overrun ``--seconds``.
MIN_ITERATIONS = 3

#: Every layer whose self time the traced run reports, named after the
#: module that implements it.
LAYERS = (
    "import", "experiments", "pipeline", "runtime.parallel",
    "common.seeding", "runtime.sampling", "runtime.columnar",
    "simulation.metrics", "runtime.cache", "store", "bayes",
    "core.switching", "simulation.engine", "obs.trace",
)

COLUMNAR_MODES = (
    "reliability", "responsiveness", "dynamic", "sequential_fixed",
    "sequential_random", "retry", "batch",
)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    with open(CONFIG, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def fingerprint() -> Dict[str, Any]:
    """Where a result was measured: interpreter, libraries, machine, code."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), check=True,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, failures: List[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[: 5 - len(self.messages)])


def iterate(workload: Any, inputs: Any, tally: Tally,
            recorder: Optional[spans.Recorder] = None,
            probing: bool = False) -> Optional[Dict]:
    """One attempt: prepare, timed run (and replay), check, clean up.

    Returns ``{"wall": s, "replay": [s, ...], "demands": n, "rss": MB,
    "parts": {step: s}, "raw": {...}}`` (plus outputs and spans under a
    recorder), or None when the attempt raised.  With *probing*, times are
    rescaled to the reference host speed and ``raw`` keeps the wall-clock
    ones.  Under a *recorder*, the run and the replay each execute inside
    their own root span, and ``run_spans`` counts the spans of the run:
    those that come before the replay's.
    """
    hook = (
        (lambda spec: spans.wrap_spec(recorder, spec))
        if recorder is not None
        else (lambda spec: spec)
    )
    workload.prepare(inputs)
    gc.collect()
    try:
        if recorder is not None:
            recorder.clear()
        cold, steps, raw_wall = _phase(
            recorder, "bench.run", workload.steps(inputs, hook),
            workload.combine, probing,
        )
        run_spans = len(recorder) if recorder is not None else 0
        replayed: Optional[Outcome] = None
        replay: List[float] = []
        raw_replay: List[float] = []
        if workload.has_replay:
            # One traced replay, whatever the untraced replay count: it
            # gives the read-side times; the layer split is of the run.
            for _ in range(1 if recorder is not None else workload.replays):
                gc.collect()
                replayed, replay_steps, raw = _phase(
                    recorder, "bench.replay",
                    workload.replay_steps(inputs, cold, hook),
                    workload.combine, probing,
                )
                failures = workload.check(inputs, cold, replayed)
                replay.append(sum(replay_steps.values()))
                raw_replay.append(raw)
                if failures:
                    break
        if not replay:
            failures = workload.check(inputs, cold, None)
        result = {
            "wall": sum(steps.values()), "replay": replay,
            "demands": cold.demands, "rss": workload.peak_rss_mb(cold),
            "parts": steps if len(steps) > 1 else {},
            "raw": {"wall": raw_wall, "replay": raw_replay},
        }
        if recorder is not None:
            # Outputs are kept only for the few traced iterations: holding
            # every iteration's results would grow the peak RSS measured.
            result.update(
                cold=cold, replayed=replayed, spans=recorder.spans(),
                run_spans=run_spans,
                cache_bytes=_bytes(inputs, "cache_dir"),
                store_bytes=_bytes(inputs, "store_dir"),
            )
    except Exception:
        failures = ["exception: " + traceback.format_exc(limit=3)]
        result = None
    finally:
        workload.cleanup(inputs)
    tally.record(failures)
    return result


def _phase(recorder: Optional[spans.Recorder], name: str,
           steps: workloads.Steps, combine: Any, probing: bool
           ) -> Tuple[Outcome, Dict[str, float], float]:
    """Run *steps* back to back: ``(outcome, step_seconds, raw_seconds)``.

    Untraced, with *probing*, each step's seconds are rescaled by the
    host-speed probes on both sides of it (``calibrate.timed_steps``) and
    *raw_seconds* is their wall-clock sum.  Under a recorder the steps run
    as root span *name*, unprobed, with the spans of a traced child
    process grafted beneath it; the root's duration is the one step time.
    """
    if recorder is None:
        outputs, raw, scaled = calibrate.timed_steps(steps, probing)
        return combine(outputs), scaled, sum(raw.values())
    with recorder.root(name) as root:
        outcome = combine({step: call() for step, call in steps})
    if "spans_path" in outcome.extra:
        child = json.loads(outcome.extra["spans_path"].read_text())
        recorder.graft([spans.Span(*item) for item in child],
                       parent=root.index)
    duration = recorder.duration(root.index)
    return outcome, {name: duration}, duration


def _bytes(inputs: Any, key: str) -> int:
    """Bytes under the *key* directory of the inputs, or of their parts."""
    if not isinstance(inputs, dict):
        return 0
    total = 0
    if inputs.get(key) is not None:
        total += workloads.tree_bytes(inputs[key])
    for value in inputs.values():
        if isinstance(value, dict) and value.get(key) is not None:
            total += workloads.tree_bytes(value[key])
    return total


def import_child(workload: Any, importtime: bool = False
                 ) -> Tuple[float, str]:
    """A fresh interpreter importing the workload's modules, optionally
    under ``-X importtime``: ``(wall_s, stderr)``."""
    code = "import " + ", ".join(workload.modules)
    flags = ["-X", "importtime"] if importtime else []
    cache = workloads.fresh_dir("import-cache")
    scratch = workloads.fresh_dir("import")
    try:
        wall, status, _ = workloads.run_child(
            [sys.executable, *flags, "-c", code], workloads.child_env(cache),
            scratch / "stdout", stderr=scratch / "stderr",
        )
        stderr = (scratch / "stderr").read_text(encoding="utf-8")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
    if status != 0:
        raise RuntimeError(f"import-only child exited {status}: {stderr}")
    return wall, stderr


def import_breakdown(stderr: str) -> Dict[str, float]:
    """import.* metrics from ``-X importtime`` output."""
    tree = spans.importtime_tree(stderr)
    return {
        "import.total_s": spans.import_seconds(tree, "repro"),
        "import.repro_bayes_s": spans.import_seconds(tree, "repro.bayes"),
        "import.scipy_stats_s": spans.import_seconds(tree, "scipy.stats"),
    }


def setup_sample(workload: Any) -> Tuple[float, float]:
    """One sample of ``setup_s``, rescaled and raw: a fresh interpreter
    importing the workload's modules, plus, for an in-process workload,
    one input build.

    A workload whose every operation is a fresh process pays everything
    else inside ``wall_s``.  The warm-up iteration is left out: it happens
    once per process, so it would make ``setup_s`` a single sample.
    """
    steps = [("import", lambda: import_child(workload))]
    if workload.in_process:
        steps.append(("build", workload.build))
    _, raw, scaled = calibrate.timed_steps(steps, probing=True)
    return sum(scaled.values()), sum(raw.values())


def set_up(workload: Any, tally: Tally) -> Any:
    """Import the workload's modules, build its inputs, and warm it up
    (untimed).  The workload's ``warm`` hook prepares expected outputs
    for the checks; an in-process workload then runs one iteration, which
    pays the first-call costs outside the measured ones."""
    for module in workload.modules:
        importlib.import_module(module)
    inputs = workload.build()
    warm = getattr(workload, "warm", None)
    if warm is not None:
        warm(inputs)
    if workload.in_process and iterate(workload, inputs, tally) is None:
        raise RuntimeError("warm-up failed: " + "; ".join(tally.messages))
    return inputs


def measure(workload: Any, inputs: Any, seconds: float, tally: Tally,
            recorder: Optional[spans.Recorder] = None,
            setup: bool = False) -> List[Dict]:
    """Iterate for *seconds*, and on until MIN_ITERATIONS attempts have
    succeeded (giving up after three times that many attempts).  With
    *setup*, the end-to-end measurement: times are rescaled to the
    reference host speed, and each iteration also takes a
    :func:`setup_sample`, outside its timed phases, under ``"setup"``."""
    samples = []
    attempts = 0
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or (len(samples) < MIN_ITERATIONS
               and attempts < 3 * MIN_ITERATIONS)):
        attempts += 1
        setup_s, raw_setup = setup_sample(workload) if setup else (None, None)
        sample = iterate(workload, inputs, tally, recorder, probing=setup)
        if sample is not None:
            sample["setup"] = setup_s
            sample["raw"]["setup"] = raw_setup
            samples.append(sample)
    return samples


def end_to_end(samples: List[Dict]) -> Dict[str, Dict]:
    walls = [s["wall"] for s in samples]
    # Paths with no cache or store reproduce results only by re-running,
    # so there a replay is the same operation as the timed run.
    replays = [r for s in samples for r in (s["replay"] or [s["wall"]])]
    rates = [s["demands"] / s["wall"] for s in samples]
    return {
        "wall_s": summary(walls),
        "demands_per_s": summary(rates),
        "setup_s": summary([s["setup"] for s in samples]),
        "replay_s": summary(replays),
        "peak_rss_mb": summary([s["rss"] for s in samples]),
    }


def raw_times(samples: List[Dict]) -> Dict[str, Dict]:
    """Wall-clock medians of the rescaled time metrics, for the record."""
    walls = [s["raw"]["wall"] for s in samples]
    return {
        "wall_s": summary(walls),
        "setup_s": summary([s["raw"]["setup"] for s in samples]),
        "replay_s": summary(
            [r for s in samples for r in (s["raw"]["replay"] or [s["raw"]["wall"]])]
        ),
    }


def part_walls(samples: List[Dict]) -> Dict[str, Dict]:
    """Median wall time of each part of a composite workload (``suite``),
    so that a change confined to one part can be told apart."""
    names = samples[0]["parts"] if samples else {}
    return {name: summary([s["parts"][name] for s in samples])
            for name in names}


def registries(sample: Dict) -> List[Any]:
    from repro.obs.metrics import MetricsRegistry

    found = []
    for outcome in (sample["cold"], sample["replayed"]):
        if outcome is None:
            continue
        found += [v for v in outcome.extra.values()
                  if isinstance(v, MetricsRegistry)]
    return found


def layer_metrics(sample: Dict, attribution: spans.Attribution,
                  whole: spans.Attribution,
                  imports: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    *attribution* covers the timed run alone, so its layer self times
    plus ``unattributed_s`` add up to ``traced_wall_s``.  *whole* adds the
    traced replay; only the read-side times (``runtime.cache.get_s``,
    ``store.load_s``) come from it, since reads happen on the replay.
    """
    counters: Dict[str, int] = {}
    for registry in registries(sample):
        for name, value in registry.as_dict()["counters"].items():
            counters[name] = counters.get(name, 0) + int(value)
    incl = attribution.name_inclusive
    own = attribution.name_self
    # Cells run_cells executed rather than served from cache or store:
    # the per-cell path counts them when a registry is attached, the
    # batched path counts its own.
    batched = counters.get("backend.batched_cells", 0)
    cells = counters.get("pool.cells_executed", 0) + batched
    hits = counters.get("cache.hit", 0)
    lookups = hits + counters.get("cache.miss", 0)
    cold = sample["cold"].extra
    metrics: Dict[str, float] = {
        "traced_wall_s": attribution.traced_s,
        "unattributed_s": attribution.unattributed_s,
    }
    metrics.update(imports)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = attribution.layer_self.get(layer, 0.0)
    for layer in ("common.seeding", "runtime.sampling", "runtime.columnar",
                  "simulation.metrics"):
        metrics[f"{layer}.calls"] = attribution.layer_calls.get(layer, 0)
    for mode in COLUMNAR_MODES:
        metrics[f"runtime.columnar.{mode}_s"] = incl.get(
            f"runtime.columnar.{mode}", 0.0)
    metrics.update({
        "experiments.event_sim.joint_model_s": incl.get(
            "experiments.event_sim.joint_model", 0.0),
        "pipeline.build_cells_s": incl.get("pipeline.build_cells", 0.0),
        "pipeline.reduce_s": incl.get("pipeline.reduce", 0.0),
        "pipeline.render_s": incl.get("pipeline.render", 0.0),
        "runtime.parallel.cells": cells,
        "runtime.parallel.batched_ratio": batched / cells if cells else 0.0,
        "runtime.parallel.fallback_cells": (
            counters.get("backend.batched_fallback_cells", 0)
            + counters.get("backend.fallback_cells", 0)
        ),
        "runtime.cache.put_s": incl.get("runtime.cache.put", 0.0),
        "runtime.cache.get_s": whole.name_inclusive.get(
            "runtime.cache.get", 0.0),
        "runtime.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.cache.bytes_written": sample["cache_bytes"],
        "store.commit_s": incl.get("store.commit", 0.0),
        "store.load_s": whole.name_inclusive.get("store.load", 0.0),
        "store.commits": attribution.name_calls.get("store.commit", 0),
        "store.bytes_written": sample["store_bytes"],
        "bayes.whitebox.prior_s": incl.get("bayes.whitebox.prior", 0.0),
        "bayes.whitebox.checkpoint_s": incl.get(
            "bayes.whitebox.checkpoint", 0.0),
        "bayes.runner.self_s": own.get("bayes.runner.run", 0.0),
        "core.switching.evaluate_s": incl.get("core.switching.evaluate", 0.0),
        "simulation.engine.run_s": incl.get("simulation.engine.run", 0.0),
        "simulation.engine.events": counters.get("kernel.dispatched", 0),
        "obs.trace.events": cold.get("events", 0),
        "obs.trace.bytes": cold.get("bytes", 0),
        "obs.trace.merge_s": incl.get("obs.trace.merge", 0.0),
    })
    return metrics


def traced_run(workload: Any, seconds: float, tally: Tally
               ) -> Tuple[Dict[str, float], List[spans.Span], Dict]:
    """Untraced then traced iterations; the median traced iteration's
    layer split, with ``tracing_overhead_s`` against the untraced median."""
    recorder = spans.Recorder()
    # Installed before the inputs are built, so that functions the inputs
    # capture (a cell's batch function) are the wrapped ones.
    patches = spans.install(recorder)
    try:
        inputs = set_up(workload, tally)
        untraced = measure(workload, inputs, seconds / 2, tally)
        inputs["tracing"] = True
        traced = measure(workload, inputs, seconds / 2, tally, recorder)
    finally:
        patches.restore()
    if not untraced or not traced:
        raise RuntimeError("no successful iterations: "
                           + "; ".join(tally.messages))
    traced.sort(key=lambda item: item["wall"])
    sample = traced[(len(traced) - 1) // 2]
    # A separate child, so that no timed run pays for importtime logging.
    _, stderr = import_child(workload, importtime=True)
    attribution = spans.attribute(sample["spans"][:sample["run_spans"]])
    metrics = layer_metrics(sample, attribution,
                            spans.attribute(sample["spans"]),
                            import_breakdown(stderr))
    untraced_wall = statistics.median(s["wall"] for s in untraced)
    metrics["untraced_wall_s"] = untraced_wall
    metrics["tracing_overhead_s"] = metrics["traced_wall_s"] - untraced_wall
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    gap = layer_sum + metrics["unattributed_s"] - metrics["traced_wall_s"]
    if abs(gap) > 1e-6 * max(1.0, metrics["traced_wall_s"]):
        tally.record([f"layer self times miss traced_wall_s by {gap:.3e} s"])
    details = {
        "traced_iterations": len(traced),
        "untraced_iterations": len(untraced),
        "traced_walls": [item["wall"] for item in traced],
        "layer_sum_s": layer_sum,
    }
    return metrics, sample["spans"], details


def pin_to_one_cpu() -> None:
    """Keep the benchmark and the processes it starts on one processor, so
    that the host-speed probes time the processor the measured work ran
    on."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def print_human(workload: str, metrics: Dict[str, Dict],
                parts: Dict[str, Dict], raw: Dict[str, Dict],
                tally: Tally) -> None:
    print(f"# workload {workload}: attempted {tally.attempted}, "
          f"failed {tally.failed}, error_ratio "
          f"{tally.failed / max(tally.attempted, 1):.4f}")
    lines = list(metrics.items())
    lines += [(f"part {name} wall_s", dict(entry, unit="s"))
              for name, entry in parts.items()]
    lines += [(f"wall-clock {name}", dict(entry, unit="s"))
              for name, entry in raw.items()]
    for name, entry in lines:
        if "q1" in entry:
            print(f"{name:40s} {entry['value']:.6g} {entry['unit']}  "
                  f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                  f"n {entry['n']}]")
        else:
            print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    for message in tally.messages:
        print(f"# failure: {message}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workloads.SCRATCH = scratch
    scratch.mkdir(parents=True, exist_ok=True)
    # Keep every file the program writes inside this checkout, and never
    # let it see the user's cache or batch-size settings.
    tempfile.tempdir = str(scratch)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(workloads.fresh_dir("default-cache"))

    pin_to_one_cpu()

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    span_list: List[spans.Span] = []
    details: Dict[str, Any] = {}
    parts: Dict[str, Dict] = {}
    raw: Dict[str, Dict] = {}
    try:
        origin = importlib.util.find_spec("repro").origin
        if Path(origin).resolve().parent != (SRC / "repro").resolve():
            raise RuntimeError(f"repro resolves to {origin}")
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            values, span_list, details = traced_run(
                workload, args.seconds, tally
            )
            metrics = {name: {"value": value} for name, value in values.items()}
        else:
            inputs = set_up(workload, tally)
            samples = measure(workload, inputs, args.seconds, tally,
                              setup=True)
            if not samples:
                raise RuntimeError("no successful iterations: "
                                   + "; ".join(tally.messages))
            metrics = end_to_end(samples)
            parts = part_walls(samples)
            raw = raw_times(samples)
        if set(metrics) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                f"emitted and declared in {CONFIG.name}"
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, entry in metrics.items():
        entry["unit"] = units[name]
    if span_list:
        OUT.mkdir(exist_ok=True)
        spans.dump(span_list, str(
            OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_ratio": tally.failed / tally.attempted,
        "failures": tally.messages,
        "metrics": metrics,
        "part_wall_s": parts,
        "wall_clock": raw,
        "reference_probe_s": calibrate.REFERENCE_S,
        "probe_s": summary(calibrate.history) if calibrate.history else {},
        "details": details,
        "fingerprint": fingerprint(),
    }
    print_human(args.workload, metrics, parts, raw, tally)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
