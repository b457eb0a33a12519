"""Span recording for the traced run: wrap layer entry points, attribute time.

A span is ``(name, layer, start, end, parent)``.  Spans are kept in memory
and written out only when the run ends.  The traced run wraps the public
entry points of each layer (see :data:`TARGETS`) from the benchmark's own
files: the program under ``src/`` is never edited.  Each name is patched
where it is looked up at call time — a module attribute such as
``repro.experiments.event_sim.build_demand_script_arena`` or a method on
the class that every instance shares.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Root spans belong to the benchmark (layer
``bench``); their self time is the wall time no wrapped layer claims,
reported as ``unattributed_s``.  Self times of all spans under a root add
up to the root's duration, which is how the layer split reconciles with
the traced wall time.
"""

import dataclasses
import functools
import importlib
import json
import re
import time
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

BENCH_LAYER = "bench"


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root


class Recorder:
    """In-memory span stack.  Wrapped calls record only under a root span,
    so input building and checks outside the timed phases cost nothing."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._records: List[list] = []  # [name, layer, start, end, parent]
        self._stack: List[int] = []

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def begin(self, name: str, layer: str) -> int:
        index = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        self._records.append([name, layer, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._records[index][3] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed out of order (top {top})")

    def spans(self) -> List[Span]:
        """Finished spans in begin order; ``parent`` is a begin-order index."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return [Span(*record) for record in self._records]

    def clear(self) -> None:
        self._records = []

    def __len__(self) -> int:
        return len(self._records)

    def duration(self, index: int) -> float:
        _, _, start, end, _ = self._records[index]
        return end - start

    def graft(self, spans: List[Span], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under the
        span at begin-order index *parent*."""
        base = len(self._records)
        for span in spans:
            self._records.append([
                span.name, span.layer, span.start, span.end,
                parent if span.parent < 0 else base + span.parent,
            ])

    def root(self, name: str) -> "_RootSpan":
        return _RootSpan(self, name)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: "str | Callable[[tuple, dict], str]",
        layer: str,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder._stack:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = recorder.begin(label, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return traced


class _RootSpan:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_RootSpan":
        if self.recorder.active:
            raise RuntimeError("root spans do not nest")
        self.index = self.recorder.begin(self.name, BENCH_LAYER)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.end(self.index)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    *spans* are in begin order with ``parent`` holding begin-order
    indices.  Children are clipped to their parent's interval; overlapping
    children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


class Attribution(NamedTuple):
    """Per-layer and per-name aggregates over one traced phase."""

    traced_s: float
    unattributed_s: float
    layer_self: Dict[str, float]
    layer_calls: Dict[str, int]
    name_self: Dict[str, float]
    name_inclusive: Dict[str, float]
    name_calls: Dict[str, int]


def attribute(spans: List[Span]) -> Attribution:
    """Aggregate spans (begin order) into layer self times and name totals.

    ``name_inclusive`` sums the duration of each span whose ancestors carry
    a different name, so a recursive or delegating call (``put_many`` →
    ``put``) is not counted twice.
    """
    selfs = self_times(spans)
    traced = 0.0
    unattributed = 0.0
    layer_self: Dict[str, float] = {}
    layer_calls: Dict[str, int] = {}
    name_self: Dict[str, float] = {}
    name_inclusive: Dict[str, float] = {}
    name_calls: Dict[str, int] = {}
    for index, span in enumerate(spans):
        own = selfs[index]
        if span.layer == BENCH_LAYER:
            if span.parent < 0:
                traced += span.end - span.start
            unattributed += own
            continue
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own
        layer_calls[span.layer] = layer_calls.get(span.layer, 0) + 1
        name_self[span.name] = name_self.get(span.name, 0.0) + own
        name_calls[span.name] = name_calls.get(span.name, 0) + 1
        ancestor = span.parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor].name == span.name:
                nested = True
                break
            ancestor = spans[ancestor].parent
        if not nested:
            name_inclusive[span.name] = (
                name_inclusive.get(span.name, 0.0) + span.end - span.start
            )
    return Attribution(
        traced, unattributed, layer_self, layer_calls,
        name_self, name_inclusive, name_calls,
    )


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _columnar_mode(args: tuple, kwargs: dict) -> str:
    """Span name of a per-cell columnar resolve, by operating mode."""
    if kwargs.get("retry") is not None:
        return "runtime.columnar.retry"
    mode = kwargs.get("mode")
    if mode is None:
        return "runtime.columnar.reliability"
    value = mode.mode.value
    if value == "sequential":
        return f"runtime.columnar.sequential_{mode.sequential_order.value}"
    return "runtime.columnar." + value.replace("parallel-", "")


#: (module, attribute path, layer, span name).  The attribute path is
#: either a module attribute or ``Class.method``; the span name may be a
#: function of the call's arguments.  Per-emit tracer calls
#: and per-demand metric updates are deliberately absent: they are too
#: hot to wrap, so their cost shows as the self time of the caller
#: (``simulation.engine`` for emits, the resolvers for reductions).
TARGETS: Tuple[tuple, ...] = (
    ("repro.experiments.cli", "main", "experiments", "experiments.cli_main"),
    ("repro.experiments.event_sim", "run_release_pair_simulation",
     "experiments", "experiments.event_sim.run_cell"),
    ("repro.experiments.event_sim", "run_release_pair_batch",
     "experiments", "experiments.event_sim.run_batch"),
    ("repro.experiments.event_sim", "joint_model",
     "experiments", "experiments.event_sim.joint_model"),
    ("repro.experiments.event_sim", "metrics_from_log",
     "simulation.metrics", "simulation.metrics.from_log"),
    ("repro.pipeline.engine", "run_experiment", "pipeline", "pipeline.run"),
    ("repro.pipeline.engine", "validate_cells", "pipeline", "pipeline.validate"),
    ("repro.pipeline.engine", "run_cells", "runtime.parallel",
     "runtime.parallel.run_cells"),
    ("repro.runtime.parallel", "run_cells", "runtime.parallel",
     "runtime.parallel.run_cells"),
    ("repro.common.seeding", "SeedSequenceFactory.__init__",
     "common.seeding", "common.seeding.factory"),
    ("repro.common.seeding", "SeedSequenceFactory.generator",
     "common.seeding", "common.seeding.generator"),
    ("repro.common.seeding", "SeedSequenceFactory.child_seed",
     "common.seeding", "common.seeding.child_seed"),
    ("repro.runtime.columnar", "spawn_generator",
     "common.seeding", "common.seeding.spawn"),
    ("repro.experiments.event_sim", "build_demand_script_arena",
     "runtime.sampling", "runtime.sampling.arena"),
    ("repro.experiments.event_sim", "build_demand_script",
     "runtime.sampling", "runtime.sampling.script"),
    ("repro.runtime.columnar", "resolve_cell", "runtime.columnar",
     _columnar_mode),
    ("repro.runtime.columnar", "resolve_cell_batch", "runtime.columnar",
     "runtime.columnar.batch"),
    ("repro.simulation.metrics", "ReleaseMetrics.from_arrays",
     "simulation.metrics", "simulation.metrics.from_arrays"),
    ("repro.simulation.metrics", "SystemMetrics.check_consistency",
     "simulation.metrics", "simulation.metrics.check"),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache",
     "runtime.cache.get"),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache",
     "runtime.cache.put"),
    ("repro.runtime.cache", "ResultCache.put_many", "runtime.cache",
     "runtime.cache.put"),
    ("repro.store.log", "RunStore.commit_result", "store", "store.commit"),
    ("repro.store.log", "RunStore.commit_group_results", "store",
     "store.commit"),
    ("repro.store.log", "RunStore.load_result", "store", "store.load"),
    ("repro.store.log", "RunStore.load_group_results", "store", "store.load"),
    ("repro.bayes.whitebox", "WhiteBoxAssessor.__init__", "bayes",
     "bayes.whitebox.prior"),
    ("repro.bayes.whitebox", "WhiteBoxAssessor.checkpoint_summary", "bayes",
     "bayes.whitebox.checkpoint"),
    ("repro.bayes.runner", "SequentialAssessment.run", "bayes",
     "bayes.runner.run"),
    ("repro.experiments.table2", "evaluate_history", "core.switching",
     "core.switching.evaluate"),
    ("repro.simulation.engine", "Simulator.run", "simulation.engine",
     "simulation.engine.run"),
    ("repro.obs.trace", "merge_traces", "obs.trace", "obs.trace.merge"),
    ("repro.obs.trace", "JsonlTracer.close", "obs.trace", "obs.trace.close"),
)

#: Spec hooks the engine calls through the spec object; wrapped on a copy
#: of the spec (see :func:`wrap_spec`).
SPEC_HOOKS = (
    ("build_cells", "pipeline.build_cells"),
    ("reduce", "pipeline.reduce"),
    ("render", "pipeline.render"),
)


class Patches:
    """Installed wrappers; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder) -> Patches:
    """Wrap every target in :data:`TARGETS`.  Wrappers record only while
    a root span is open, so outside one they cost a list check per call."""
    patches = Patches()
    for module_name, path, layer, name in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        attr = path
        if "." in path:
            class_name, attr = path.split(".", 1)
            owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(
                recorder.wrap(raw.__func__, name, layer)
            )
        else:
            wrapped = recorder.wrap(raw, name, layer)
        patches.replace(owner, attr, wrapped)
    return patches


def wrap_spec(recorder: Recorder, spec: Any) -> Any:
    """A copy of an ExperimentSpec whose grid hooks record spans."""
    changes = {
        hook: recorder.wrap(getattr(spec, hook), name, "pipeline")
        for hook, name in SPEC_HOOKS
        if getattr(spec, hook) is not None
    }
    return dataclasses.replace(spec, **changes)


# ----------------------------------------------------------------------
# Import-time breakdown (python -X importtime)
# ----------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


class ImportNode(NamedTuple):
    name: str
    cumulative_s: float
    children: List["ImportNode"]


def importtime_tree(stderr: str) -> List[ImportNode]:
    """The import tree from ``python -X importtime`` output.

    Lines come in post-order (a module after everything it imported),
    indented two spaces per level, so each line adopts the pending
    entries one level deeper than itself.
    """
    pending: Dict[int, List[ImportNode]] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        depth = (len(match.group(3)) - 1) // 2
        node = ImportNode(
            match.group(4), int(match.group(2)) / 1e6,
            pending.pop(depth + 1, []),
        )
        pending.setdefault(depth, []).append(node)
    return pending.get(0, [])


def import_seconds(roots: List[ImportNode], package: str) -> float:
    """Seconds spent importing *package* and its submodules: the sum of
    the cumulative times of the outermost matching imports.  A package
    loaded lazily (``from scipy import stats``) has no line of its own,
    so its submodules stand for it."""
    total = 0.0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.name == package or node.name.startswith(package + "."):
            total += node.cumulative_s
        else:
            stack.extend(node.children)
    return total


def dump(spans: List[Span], path: str) -> None:
    """Write spans as JSON lines (one per span, begin order)."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            record = span._asdict()
            record["index"] = index
            handle.write(json.dumps(record, sort_keys=True) + "\n")
