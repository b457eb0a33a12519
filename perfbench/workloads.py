"""The five benchmark workloads: inputs, timed operation, replay, checks.

Every workload turns the benchmark seed into program inputs (seeds, sizes,
fresh temporary cache and store directories) and hands the program only
those.  ``run`` is the timed operation behind ``wall_s``; ``replay`` is the
timed operation behind ``replay_s``; ``check`` returns a list of failure
messages, and any message makes the iteration count as failed.

Why each workload exists, and which layers it bypasses, is written down in
``perfbench/NOTES.md``.
"""

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: The program's own default seed; references are pinned for it.
DEFAULT_SEED = 3
#: A second seed never used to pin references: every check must pass on
#: it from the invariants alone.
HELD_OUT_SEED = 11

#: A child process that runs longer than this is killed and the
#: iteration counts as failed (the run must end well within 180 s).
CHILD_TIMEOUT_S = 60


def digest(payload: Any) -> str:
    """sha256 over a canonical JSON rendering (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strip_timing(text: str) -> str:
    """CLI stdout without the ``=== name (seed, elapsed) ===`` header and
    the ``metrics -> PATH`` trailer, which embed wall clock and paths."""
    kept = [
        line.rstrip()
        for line in text.splitlines()
        if not line.startswith("=== ") and not line.startswith("metrics -> ")
    ]
    return "\n".join(kept).strip() + "\n"


def tree_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def fresh_dir(label: str) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=SCRATCH))


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for program subprocesses: sources from this checkout,
    cache and temp files inside it, no inherited tuning knobs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(SCRATCH)
    env["PYTHONHASHSEED"] = "0"
    return env


class _ChildTimeout(Exception):
    pass


def _alarm(signum: int, frame: Any) -> None:
    raise _ChildTimeout()


def run_child(
    argv: List[str], env: Dict[str, str], stdout: Path,
    stderr: Optional[Path] = None,
) -> Tuple[float, int, float]:
    """Run *argv* to completion; ``(wall_s, exit_code, peak_rss_mb)``.

    The child is reaped with ``os.wait4`` so its own peak RSS is read,
    not the maximum over every child this process ever had.  An alarm
    (no helper thread) kills a child that outlives
    :data:`CHILD_TIMEOUT_S`.
    """
    err = open(stderr, "wb") if stderr is not None else subprocess.DEVNULL
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with open(stdout, "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=env, cwd=str(ROOT)
            )
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                status = 1 << 8 if os.WIFSIGNALED(status) else status
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.signal(signal.SIGALRM, previous)
        if stderr is not None:
            err.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_references() -> Dict[str, str]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def system_rows(results: List[Any]) -> List[Any]:
    """Table-5/6 rows of SimulationRunResults / SystemMetrics, exactly."""
    rows = []
    for result in results:
        metrics = getattr(result, "metrics", result)
        tag = (
            [result.run, result.timeout] if hasattr(result, "run") else []
        )
        cells = []
        for row in [*metrics.releases, metrics.system]:
            cells.append([
                row.name, repr(row.mean_execution_time),
                row.counts.as_dict(), row.no_response, row.total_requests,
            ])
        rows.append([tag, cells])
    return rows


def consistency_failures(results: List[Any]) -> List[str]:
    failures = []
    for index, result in enumerate(results):
        metrics = getattr(result, "metrics", result)
        try:
            metrics.check_consistency()
        except AssertionError as error:
            failures.append(f"cell {index}: {error}")
    return failures


def counter(registry: Any, name: str) -> int:
    return int(registry.as_dict()["counters"].get(name, 0))


class Outcome:
    """What one timed operation produced, for the checks."""

    def __init__(self, digest: str, demands: int, **extra: Any):
        self.digest = digest
        self.demands = demands
        self.extra = extra


#: Named steps of a timed operation, each a call returning an Outcome.
Steps = List[Tuple[str, Callable[[], "Outcome"]]]


class Workload:
    """Base: subclasses fill in the hooks."""

    name = ""
    #: Modules whose import is the workload's import cost.
    modules: Tuple[str, ...] = ()
    #: True when replay_s re-serves results from cache and store.
    has_replay = False
    #: Replays timed after each run (replays leave cache and store as
    #: they found them, so each one is a sample of the same operation).
    replays = 3
    #: False when every timed operation is a fresh process: set-up is then
    #: only the import, and there are no first-call costs to warm up.
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.references = load_references()

    def build(self) -> Any:
        """Input build: repeated for ``setup_s``; returns the inputs."""
        raise NotImplementedError

    def prepare(self, inputs: Any) -> None:
        """Per-iteration state outside the timed region (fresh dirs)."""

    def run(self, inputs: Any, spec_hook: Callable[[Any], Any]) -> Outcome:
        raise NotImplementedError

    def replay(self, inputs: Any, cold: Outcome,
               spec_hook: Callable[[Any], Any]) -> Outcome:
        raise NotImplementedError

    def steps(self, inputs: Any, spec_hook: Callable[[Any], Any]) -> Steps:
        """The timed operation as named steps run back to back; the host's
        speed is probed between them (see ``calibrate``)."""
        return [(self.name, lambda: self.run(inputs, spec_hook))]

    def replay_steps(self, inputs: Any, cold: Outcome,
                     spec_hook: Callable[[Any], Any]) -> Steps:
        return [(self.name, lambda: self.replay(inputs, cold, spec_hook))]

    def combine(self, outcomes: Dict[str, Outcome]) -> Outcome:
        """The outcome of the whole operation from those of its steps."""
        (outcome,) = outcomes.values()
        return outcome

    def check(self, inputs: Any, cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        raise NotImplementedError

    def cleanup(self, inputs: Any) -> None:
        """Per-iteration cleanup outside the timed region."""

    def peak_rss_mb(self, outcome: Outcome) -> float:
        return self_peak_rss_mb()

    def reference_failures(self, key: str, value: str) -> List[str]:
        """Compare against the pinned reference for the default seed."""
        if self.seed != DEFAULT_SEED:
            return []
        expected = self.references.get(f"{self.name}.{key}")
        if expected != value:
            return [f"{key} digest {value[:12]} != reference "
                    f"{str(expected)[:12]}"]
        return []


# ----------------------------------------------------------------------
# cli_table5
# ----------------------------------------------------------------------


class CliTable5(Workload):
    """``repro-experiments table5 --no-cache`` as a subprocess."""

    name = "cli_table5"
    modules = ("repro.experiments.cli",)
    has_replay = True
    replays = 1
    in_process = False
    cells = 12
    requests = 10_000

    def build(self) -> Dict[str, Any]:
        cold_cache = fresh_dir("cli-cold-cache")
        return {
            "cold_cache": cold_cache,
            "warm_cache": fresh_dir("cli-warm-cache"),
            "out": fresh_dir("cli-out"),
            "env": child_env(cold_cache),
        }

    def _argv(self, inputs: Dict[str, Any], phase: str) -> List[str]:
        """The CLI command of one phase (``cold``, ``replay``, ``warm``).

        Under tracing the same arguments go to ``cli_child.py``, which
        records spans, and ``--metrics-json`` exposes the program's own
        counters.
        """
        out = inputs["out"]
        args = ["table5", "--seed", str(self.seed)]
        if phase == "cold":
            args.append("--no-cache")
        else:
            args += ["--cache-dir", str(inputs["warm_cache"])]
        if phase == "replay" or inputs.get("tracing"):
            args += ["--metrics-json", str(out / f"{phase}-metrics.json")]
        if not inputs.get("tracing"):
            return [sys.executable, "-m", "repro.experiments.cli"] + args
        child = Path(__file__).resolve().parent / "cli_child.py"
        return ([sys.executable, str(child), str(out / f"{phase}-spans.json")]
                + args)

    def _cli(self, inputs: Dict[str, Any], phase: str) -> Outcome:
        from repro.obs.metrics import MetricsRegistry

        out = inputs["out"]
        stdout = out / f"{phase}.txt"
        stderr = out / f"{phase}-stderr.txt"
        _, code, rss = run_child(
            self._argv(inputs, phase), inputs["env"], stdout, stderr=stderr
        )
        text = strip_timing(stdout.read_text(encoding="utf-8"))
        extra: Dict[str, Any] = {"text": text, "code": code, "rss": rss}
        metrics_json = out / f"{phase}-metrics.json"
        if metrics_json.exists():
            registry = MetricsRegistry()
            counters = json.loads(metrics_json.read_text())["counters"]
            for name, value in counters.items():
                registry.counter(name).inc(int(value))
            extra["registry"] = registry
            metrics_json.unlink()
        if inputs.get("tracing"):
            extra["spans_path"] = out / f"{phase}-spans.json"
        return Outcome(digest(text), self.cells * self.requests, **extra)

    def warm(self, inputs: Dict[str, Any]) -> None:
        """Populate the replay cache and compute the in-process render the
        subprocess output must equal."""
        from repro.pipeline import ExperimentOptions, get_spec, run_experiment

        warm = self._cli(inputs, "warm")
        if warm.extra["code"] != 0:
            raise RuntimeError(f"warm-up CLI run exited {warm.extra['code']}")
        outcome = run_experiment(
            get_spec("table5"), ExperimentOptions(seed=self.seed)
        )
        inputs["expected"] = strip_timing(outcome.text)
        inputs["consistency"] = consistency_failures(outcome.value.results)

    def run(self, inputs: Dict[str, Any], spec_hook: Any) -> Outcome:
        return self._cli(inputs, "cold")

    def replay(self, inputs: Dict[str, Any], cold: Outcome,
               spec_hook: Any) -> Outcome:
        return self._cli(inputs, "replay")

    def check(self, inputs: Dict[str, Any], cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        failures = list(inputs["consistency"])
        if cold.extra["code"] != 0:
            failures.append(f"table5 exited {cold.extra['code']}")
        if cold.extra["text"] != inputs["expected"]:
            failures.append("CLI table differs from the in-process render")
        if any(inputs["cold_cache"].iterdir()):
            failures.append("--no-cache run wrote to its cache directory")
        if "registry" in cold.extra and counter(
            cold.extra["registry"], "cache.hit"
        ):
            failures.append("--no-cache run hit a cache")
        failures += self.reference_failures("render", cold.digest)
        if replayed is not None:
            if replayed.extra["code"] != 0:
                failures.append(f"replay exited {replayed.extra['code']}")
            if replayed.digest != cold.digest:
                failures.append("cached replay differs from the cold run")
            hits = counter(replayed.extra["registry"], "cache.hit")
            if hits != self.cells:
                failures.append(
                    f"replay had {hits} cache hits, expected {self.cells}"
                )
        return failures

    def peak_rss_mb(self, outcome: Outcome) -> float:
        return outcome.extra["rss"]


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


class Campaign(Workload):
    """84 Table-5 grids through run_cells(batch=True), cache + store."""

    name = "campaign"
    modules = ("repro.experiments.event_sim", "repro.runtime.parallel",
               "repro.runtime.cache", "repro.store.log")
    has_replay = True
    grids = 84
    requests = 200

    def build(self) -> Dict[str, Any]:
        from repro.experiments import event_sim

        cells = []
        for index in range(self.grids):
            cells.extend(event_sim.release_pair_cells(
                "table5", "correlated", seed=self.seed * 1_000 + index,
                requests=self.requests, backend="columnar",
            ))
        return {"cells": cells}

    def prepare(self, inputs: Dict[str, Any]) -> None:
        inputs["cache_dir"] = fresh_dir("campaign-cache")
        inputs["store_dir"] = fresh_dir("campaign-store")

    def _run_cells(self, inputs: Dict[str, Any], cache: bool, store: bool):
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime import parallel
        from repro.runtime.cache import ResultCache
        from repro.store.log import RunStore

        registry = MetricsRegistry()
        results = parallel.run_cells(
            inputs["cells"],
            jobs=1,
            cache=(
                ResultCache(inputs["cache_dir"], metrics=registry)
                if cache else None
            ),
            store=RunStore(inputs["store_dir"], metrics=registry)
            if store else None,
            metrics=registry,
            batch=True,
        )
        return results, registry

    def run(self, inputs: Dict[str, Any], spec_hook: Any) -> Outcome:
        results, registry = self._run_cells(inputs, cache=True, store=True)
        return Outcome(
            digest(system_rows(results)),
            len(inputs["cells"]) * self.requests,
            results=results, registry=registry,
        )

    def replay(self, inputs: Dict[str, Any], cold: Outcome,
               spec_hook: Any) -> Outcome:
        warm, warm_registry = self._run_cells(inputs, cache=True, store=True)
        resumed, store_registry = self._run_cells(
            inputs, cache=False, store=True
        )
        return Outcome(
            digest(system_rows(warm)), cold.demands,
            resumed_digest=digest(system_rows(resumed)),
            warm_registry=warm_registry, store_registry=store_registry,
        )

    def check(self, inputs: Dict[str, Any], cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        cells = len(inputs["cells"])
        registry = cold.extra["registry"]
        failures = consistency_failures(cold.extra["results"])
        if counter(registry, "cache.hit"):
            failures.append("cold phase hit the cache")
        if counter(registry, "store.batch_resume_skipped_cells") or counter(
            registry, "store.resume_skipped_cells"
        ):
            failures.append("cold phase resumed from the store")
        if counter(registry, "backend.batched_fallback_cells"):
            failures.append("batched fallbacks in the campaign")
        if counter(registry, "backend.batched_cells") != cells:
            failures.append("not every campaign cell ran batched")
        failures += self.reference_failures("results", cold.digest)
        if replayed is not None:
            if replayed.digest != cold.digest:
                failures.append("warm-cache replay differs from cold")
            if replayed.extra["resumed_digest"] != cold.digest:
                failures.append("store-only replay differs from cold")
            hits = counter(replayed.extra["warm_registry"], "cache.hit")
            if hits != cells:
                failures.append(f"warm replay: {hits} hits of {cells}")
            resumed = counter(
                replayed.extra["store_registry"],
                "store.batch_resume_skipped_cells",
            )
            if resumed != cells:
                failures.append(f"store replay resumed {resumed} of {cells}")
        return failures

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        for key in ("cache_dir", "store_dir"):
            shutil.rmtree(inputs.pop(key), ignore_errors=True)


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------


def mode_cases() -> List[Tuple[str, Dict[str, Any]]]:
    from repro.core.modes import ModeConfig, SequentialOrder
    from repro.services.retry import RetryPolicy

    return [
        ("reliability", {}),
        ("responsiveness", {"mode": ModeConfig.max_responsiveness()}),
        ("dynamic_k1", {"mode": ModeConfig.dynamic(1)}),
        ("sequential_fixed", {"mode": ModeConfig.sequential()}),
        ("sequential_random",
         {"mode": ModeConfig.sequential(SequentialOrder.RANDOM)}),
        ("retry", {"retry": RetryPolicy(max_attempts=2)}),
    ]


class Modes(Workload):
    """Per-cell columnar cells: six mode configurations x runs 1-4."""

    name = "modes"
    modules = ("repro.experiments.event_sim", "repro.core.modes",
               "repro.services.retry")
    requests = 20_000
    timeout = 1.5

    def build(self) -> Dict[str, Any]:
        from repro.common.seeding import SeedSequenceFactory
        from repro.experiments import paper_params as P

        seeds = SeedSequenceFactory(self.seed)
        cases = []
        for label, overrides in mode_cases():
            for run in (1, 2, 3, 4):
                cases.append(dict(
                    joint_model=P.correlated_model(run),
                    timeout=self.timeout,
                    requests=self.requests,
                    seed=seeds.child_seed(f"table5/run-{run}"),
                    backend="columnar",
                    **overrides,
                ))
        return {"cases": cases}

    def run(self, inputs: Dict[str, Any], spec_hook: Any) -> Outcome:
        from repro.experiments import event_sim
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        results = [
            event_sim.run_release_pair_simulation(metrics=registry, **case)
            for case in inputs["cases"]
        ]
        return Outcome(
            digest(system_rows(results)),
            len(results) * self.requests,
            results=results, registry=registry,
        )

    def check(self, inputs: Dict[str, Any], cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        failures = consistency_failures(cold.extra["results"])
        registry = cold.extra["registry"]
        if counter(registry, "backend.columnar_cells") != len(inputs["cases"]):
            failures.append("not every mode cell resolved columnar")
        first = inputs.setdefault("first_digest", cold.digest)
        if cold.digest != first:
            failures.append("mode results changed between repeats")
        failures += self.reference_failures("results", cold.digest)
        return failures


# ----------------------------------------------------------------------
# assess
# ----------------------------------------------------------------------


class Assess(Workload):
    """The table2 spec at the full posterior grid, shortened stream."""

    name = "assess"
    modules = ("repro.pipeline", "repro.experiments.table2")
    has_replay = True
    replays = 10
    #: Demands per assessment stream (the paper uses 50,000; the posterior
    #: grid stays full size, so checkpoint cost is the paper's).
    demands = 1_000
    cells = 6

    def build(self) -> Dict[str, Any]:
        from repro.pipeline import get_spec

        return {"spec": get_spec("table2")}

    def prepare(self, inputs: Dict[str, Any]) -> None:
        inputs["cache_dir"] = fresh_dir("assess-cache")
        inputs["store_dir"] = fresh_dir("assess-store")

    def _run(self, inputs: Dict[str, Any], spec_hook: Any, cache: bool):
        from repro.obs.metrics import MetricsRegistry
        from repro.pipeline import ExperimentOptions, engine
        from repro.runtime.cache import ResultCache
        from repro.store.log import RunStore

        registry = MetricsRegistry()
        options = ExperimentOptions(
            seed=self.seed,
            requests=self.demands,
            cache=(
                ResultCache(inputs["cache_dir"], metrics=registry)
                if cache else None
            ),
            store=RunStore(inputs["store_dir"], metrics=registry),
            metrics=registry,
        )
        outcome = engine.run_experiment(spec_hook(inputs["spec"]), options)
        records = [
            [
                [r.demands, r.counts.as_tuple(), repr(r.percentile_a_99),
                 repr(r.percentile_b_99), repr(r.percentile_b_90),
                 sorted((repr(k), repr(v))
                        for k, v in r.confidence_b_at.items())]
                for r in history.records
            ]
            for history in outcome.value.histories.values()
        ]
        return Outcome(
            digest([outcome.text, records]), self.cells * self.demands,
            text=outcome.text, value=outcome.value, registry=registry,
        )

    def run(self, inputs: Dict[str, Any], spec_hook: Any) -> Outcome:
        return self._run(inputs, spec_hook, cache=True)

    def replay(self, inputs: Dict[str, Any], cold: Outcome,
               spec_hook: Any) -> Outcome:
        warm = self._run(inputs, spec_hook, cache=True)
        resumed = self._run(inputs, spec_hook, cache=False)
        return Outcome(
            warm.digest, cold.demands, resumed_digest=resumed.digest,
            warm_registry=warm.extra["registry"],
            store_registry=resumed.extra["registry"],
        )

    def check(self, inputs: Dict[str, Any], cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        failures = []
        registry = cold.extra["registry"]
        if counter(registry, "cache.hit") or counter(
            registry, "store.resume_skipped_cells"
        ):
            failures.append("cold phase hit the cache or store")
        histories = cold.extra["value"].histories
        if len(histories) != self.cells:
            failures.append(f"{len(histories)} histories, not {self.cells}")
        for key, history in histories.items():
            axis = history.demand_axis
            if axis != sorted(set(axis)) or axis[-1] != self.demands:
                failures.append(f"{key}: bad checkpoint axis")
            for record in history.records:
                if sum(record.counts.as_tuple()) != record.demands:
                    failures.append(f"{key}: counts do not sum to demands")
                    break
        failures += self.reference_failures("results", cold.digest)
        if replayed is not None:
            if replayed.digest != cold.digest:
                failures.append("warm-cache replay differs from cold")
            if replayed.extra["resumed_digest"] != cold.digest:
                failures.append("store-only replay differs from cold")
            if counter(replayed.extra["warm_registry"], "cache.hit") != \
                    self.cells:
                failures.append("warm replay missed the cache")
            if counter(replayed.extra["store_registry"],
                       "store.resume_skipped_cells") != self.cells:
                failures.append("store replay did not resume every cell")
        return failures

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        for key in ("cache_dir", "store_dir"):
            shutil.rmtree(inputs.pop(key), ignore_errors=True)


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------


class Traced(Workload):
    """The table5 spec with a trace directory, plus the trace merge."""

    name = "traced"
    modules = ("repro.pipeline", "repro.experiments.table5",
               "repro.obs.trace")
    requests = 250
    cells = 12

    def build(self) -> Dict[str, Any]:
        from repro.pipeline import get_spec

        return {"spec": get_spec("table5")}

    def warm(self, inputs: Dict[str, Any]) -> None:
        """The untraced columnar render the traced render must equal."""
        from repro.pipeline import ExperimentOptions, engine

        outcome = engine.run_experiment(
            inputs["spec"],
            ExperimentOptions(seed=self.seed, requests=self.requests),
        )
        inputs["expected"] = outcome.text

    def prepare(self, inputs: Dict[str, Any]) -> None:
        inputs["trace_dir"] = fresh_dir("traced-parts")
        inputs["merged"] = inputs["trace_dir"].with_suffix(".jsonl")

    def run(self, inputs: Dict[str, Any], spec_hook: Any) -> Outcome:
        from repro.obs import trace
        from repro.obs.metrics import MetricsRegistry
        from repro.pipeline import ExperimentOptions, engine

        registry = MetricsRegistry()
        trace_dir = str(inputs["trace_dir"])
        outcome = engine.run_experiment(
            spec_hook(inputs["spec"]),
            ExperimentOptions(
                seed=self.seed, requests=self.requests,
                trace_dir=trace_dir, metrics=registry,
            ),
        )
        parts = sorted(
            os.path.join(trace_dir, entry)
            for entry in os.listdir(trace_dir)
            if entry.endswith(".jsonl")
        )
        events = trace.merge_traces(parts, inputs["merged"])
        return Outcome(
            digest(outcome.text), self.cells * self.requests,
            text=outcome.text, value=outcome.value, registry=registry,
            parts=len(parts), events=events,
            bytes=inputs["merged"].stat().st_size,
        )

    def check(self, inputs: Dict[str, Any], cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        failures = consistency_failures(cold.extra["value"].results)
        if cold.extra["text"] != inputs["expected"]:
            failures.append("traced render differs from untraced columnar")
        if cold.extra["parts"] != self.cells:
            failures.append(f"{cold.extra['parts']} trace parts")
        if cold.extra["events"] <= 0:
            failures.append("empty merged trace")
        first = inputs.setdefault("first_events", cold.extra["events"])
        if cold.extra["events"] != first:
            failures.append("trace event count changed between repeats")
        failures += self.reference_failures("render", cold.digest)
        return failures

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        shutil.rmtree(inputs["trace_dir"], ignore_errors=True)
        inputs["merged"].unlink(missing_ok=True)


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------


class Suite(Workload):
    """campaign, modes, assess and traced, one after another, as one
    operation.

    Together with cli_table5 it measures every layer in two workloads, so
    each run can be long; the parts stay runnable on their own.  Each part
    keeps its own inputs, checks and references; their outputs appear
    under ``<part>.<key>``.
    """

    name = "suite"
    has_replay = True
    parts = ("campaign", "modes", "assess", "traced")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.members = [WORKLOADS[name](seed) for name in self.parts]
        self.modules = tuple(dict.fromkeys(
            module for part in self.members for module in part.modules
        ))

    def build(self) -> Dict[str, Any]:
        return {part.name: part.build() for part in self.members}

    def warm(self, inputs: Dict[str, Any]) -> None:
        for part in self.members:
            warm = getattr(part, "warm", None)
            if warm is not None:
                warm(inputs[part.name])

    def prepare(self, inputs: Dict[str, Any]) -> None:
        for part in self.members:
            part.prepare(inputs[part.name])

    def combine(self, outcomes: Dict[str, Outcome]) -> Outcome:
        extra: Dict[str, Any] = {"parts": outcomes}
        for name, outcome in outcomes.items():
            extra.update(
                {f"{name}.{key}": value for key, value in outcome.extra.items()}
            )
        if "traced" in outcomes:
            extra["events"] = outcomes["traced"].extra["events"]
            extra["bytes"] = outcomes["traced"].extra["bytes"]
        return Outcome(
            digest({name: o.digest for name, o in outcomes.items()}),
            sum(o.demands for o in outcomes.values()), **extra,
        )

    def steps(self, inputs: Dict[str, Any], spec_hook: Any) -> Steps:
        """One step per part, so that each part's time is kept and a change
        confined to one part stays visible in the total."""
        return [
            (part.name,
             lambda part=part: part.run(inputs[part.name], spec_hook))
            for part in self.members
        ]

    def replay_steps(self, inputs: Dict[str, Any], cold: Outcome,
                     spec_hook: Any) -> Steps:
        return [
            (part.name,
             lambda part=part: part.replay(
                 inputs[part.name], cold.extra["parts"][part.name], spec_hook
             ))
            for part in self.members
            if part.has_replay
        ]

    def check(self, inputs: Dict[str, Any], cold: Outcome,
              replayed: Optional[Outcome]) -> List[str]:
        failures = []
        for part in self.members:
            part_replay = (
                replayed.extra["parts"].get(part.name)
                if replayed is not None else None
            )
            failures += [
                f"{part.name}: {message}"
                for message in part.check(
                    inputs[part.name], cold.extra["parts"][part.name],
                    part_replay,
                )
            ]
        return failures

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        for part in self.members:
            part.cleanup(inputs[part.name])


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (CliTable5, Campaign, Modes, Assess, Traced, Suite)
}
