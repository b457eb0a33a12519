"""Columnar demand-resolution backend: whole cells as array programs.

The event kernel resolves each demand of a grid cell by threading ~6
events through the Python heap (arrival, per-release invocations,
responses or a timeout, adjudication delivery).  Because the grids space
demands ``spacing = TimeOut + dT + 0.5`` apart, a demand is fully
adjudicated before the next one starts, so the entire cell is a pure
function of the pre-drawn :class:`~repro.runtime.sampling.DemandScript`.
This module evaluates that function as numpy array operations,
bit-identical to the event path (asserted by the cross-backend
equivalence suite, not assumed), for all four §4.2 operating modes, N
releases, and bounded retry.

Bit-identity rests on reproducing the event kernel's exact float
arithmetic, in order:

* demand *i* starts at ``fl(i * spacing)`` (``np.arange(n) * spacing``
  matches the scalar products bit for bit);
* release *k*'s execution time is ``fl(t1 + t2_k)`` and its response
  *arrives* at ``fl(invoke_time + exec)`` — a non-finite exec never
  arrives (a hang), though its script value was consumed;
* the demand timeout event is scheduled *first*, at
  ``fl(start + TimeOut)``, so it wins FIFO ties: a response is collected
  iff its absolute arrival time is **strictly** below the absolute
  cutoff (comparing ``exec < TimeOut`` would round differently);
* the recorded per-release time is ``fl(arrival − start)``, not the raw
  exec;
* collection order is (arrival time, schedule sequence) — response
  events are scheduled at demand start in release order, so arrival
  ties break toward the lower release index (a stable argsort);
* the system decision time is the *m*-th collected arrival (``m`` =
  every active release in max-reliability, ``min_responses`` in dynamic
  mode) when that many arrived, else the cutoff; the system row records
  ``min(fl(decision − start), TimeOut) + dT`` for every demand — except
  max-responsiveness demands answered by the first valid response,
  whose consumer-visible time is the *unclipped*
  ``fl(fl(first_valid_arrival − start) + dT)``;
* MET accumulators sum in record order via ``np.cumsum(...)[-1]``
  (strict left-to-right IEEE accumulation — ``np.sum`` is pairwise and
  drifts in the last bits);
* the paper-rule adjudicator breaks valid-result mismatches with one
  ``rng.integers(len(valid))`` draw per mismatching demand, in close
  order; bound-2 draws batch as ``rng.integers(2, size=m)`` (consumes
  the stream identically), other bounds stay scalar;
* sequential mode chains invocations at the previous arrival
  (``arr_{j+1} = fl(arr_j + fl(t1 + t2_{j+1}))``), consumes release
  latency scripts only for releases actually invoked, and replays the
  random-order variant's permutation draws from the middleware stream;
* retry without an attempt timeout resolves in array rounds (round *a*
  holds attempt *a* of every demand still faulting): script rows are
  assigned demand-major from predicted faults, start times and
  collection are then computed exactly and checked against the
  prediction and against the next arrival, and records and
  adjudication draws follow the close events' ``(time, row)`` order;
* retry with an attempt timeout, or whose retries reach the next
  arrival, interleaves attempts of demand *i* with later demands, so it
  replays the kernel's global ``(time, sequence)`` heap order exactly —
  including the attempt-supersession rule and the sequence numbers of
  events that are scheduled but never matter.

The *envelope* in which this equivalence is proven is wide but not
universal: a pre-drawn script (not live sampling), the paper-rule
adjudicator, no tracing (traces are an event-loop artifact), and retry
only under max-reliability.  :func:`unsupported_reasons` is the single
authority on that envelope — ``backend="auto"`` asks it whether
columnar applies and falls back to the event kernel otherwise,
counting each reason under ``backend.fallback_reason.<slug>``.
"""

import heapq
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.seeding import spawn_generator
from repro.core.adjudicators import Adjudicator, PaperRuleAdjudicator
from repro.core.modes import ModeConfig, OperatingMode, SequentialOrder
from repro.runtime.sampling import DemandScript, ScriptArena
from repro.simulation.metrics import ReleaseMetrics, SystemMetrics
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from repro.services.retry import RetryPolicy

CODE_CORRECT = OUTCOME_ORDER.index(Outcome.CORRECT)
CODE_EVIDENT = OUTCOME_ORDER.index(Outcome.EVIDENT_FAILURE)
CODE_NEF = OUTCOME_ORDER.index(Outcome.NON_EVIDENT_FAILURE)

#: Canonical envelope-violation slugs.  Every ``(slug, message)`` pair
#: :func:`unsupported_reasons` can emit uses a slug declared here, and
#: every ``backend.fallback_reason.<slug>`` counter is derived from one
#: of these.  The whole-program analyzer (REPRO203 in
#: :mod:`repro.lint.program`) checks the three sets against each other
#: statically, so widening or narrowing the envelope cannot silently
#: drift out of sync with the fallback accounting.  Declared as a plain
#: tuple literal so the analyzer can read it from the AST.
FALLBACK_SLUGS: Tuple[str, ...] = (
    "adjudicator",
    "live-sampling",
    "no-outcome-codes",
    "retry-mode",
    "tracing",
)


def unsupported_reasons(
    *,
    script: Optional[DemandScript],
    releases: int,
    mode: Optional[ModeConfig] = None,
    adjudicator: Optional[Adjudicator] = None,
    tracing: bool = False,
    retry: Optional[object] = None,
    outcome_codes: Optional[np.ndarray] = None,
) -> List[Tuple[str, str]]:
    """Every reason this cell is outside the columnar envelope.

    Returns ``(slug, message)`` pairs — empty when the cell is fully
    inside the envelope.  ``backend="columnar"`` surfaces the messages
    in a :class:`~repro.common.errors.ConfigurationError`;
    ``backend="auto"`` falls back to the event kernel and counts each
    slug under the ``backend.fallback_reason.<slug>`` metric (plus the
    aggregate ``backend.fallback_cells``).

    *releases* is accepted for interface stability; any release count
    with a matching script resolves columnar since the N-release
    generalisation.
    """
    del releases  # any N resolves; kept for caller-signature stability
    reasons: List[Tuple[str, str]] = []
    if tracing:
        reasons.append(
            ("tracing", "tracing requested (traces are an event-loop artifact)")
        )
    if script is None:
        reasons.append(
            ("live-sampling", "no demand script (live sampling resolves per event)")
        )
    elif script.outcome_codes is None and outcome_codes is None:
        reasons.append(
            (
                "no-outcome-codes",
                "script has no outcome code matrix (no joint model)",
            )
        )
    if adjudicator is not None and type(adjudicator) is not PaperRuleAdjudicator:
        reasons.append(
            (
                "adjudicator",
                f"adjudicator {type(adjudicator).__name__} is not the paper rule",
            )
        )
    if retry is not None:
        effective = mode.mode if mode is not None else OperatingMode.PARALLEL_RELIABILITY
        if effective is not OperatingMode.PARALLEL_RELIABILITY:
            reasons.append(
                (
                    "retry-mode",
                    f"retry under operating mode {effective.value!r} is only "
                    "proven on the event path (columnar retry covers "
                    "max-reliability)",
                )
            )
    return reasons


def unsupported_reason(
    *,
    script: Optional[DemandScript],
    releases: int,
    mode: Optional[ModeConfig] = None,
    adjudicator: Optional[Adjudicator] = None,
    tracing: bool = False,
    retry: Optional[object] = None,
    outcome_codes: Optional[np.ndarray] = None,
) -> Optional[str]:
    """First applicable envelope violation, or None if inside.

    Back-compat shim over :func:`unsupported_reasons` — use that to see
    *every* applicable reason.
    """
    reasons = unsupported_reasons(
        script=script,
        releases=releases,
        mode=mode,
        adjudicator=adjudicator,
        tracing=tracing,
        retry=retry,
        outcome_codes=outcome_codes,
    )
    return reasons[0][1] if reasons else None


def resolve_cell(
    script: DemandScript,
    release_names: Sequence[str],
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    middleware_rng: np.random.Generator,
    *,
    requests: Optional[int] = None,
    mode: Optional[ModeConfig] = None,
    retry: Optional["RetryPolicy"] = None,
    outcome_codes: Optional[np.ndarray] = None,
) -> SystemMetrics:
    """Resolve one cell's demands as array operations.

    Consumes the same pre-drawn *script* the event path replays and
    returns the same reduced :class:`SystemMetrics`, bit for bit.
    *middleware_rng* must be in the same state as the generator handed
    to :class:`~repro.core.middleware.UpgradeMiddleware` before its
    construction: the first draw spawns the adjudication generator
    (mirroring the middleware constructor) and, in random-order
    sequential mode, subsequent draws replay the per-demand shuffles.

    *requests* caps the demand count below ``script.requests`` (retry
    cells over-provision the script rows); *outcome_codes* overrides
    the script's outcome matrix for cells whose endpoints sample their
    own marginals (a single-release deployment).
    """
    codes_source = outcome_codes if outcome_codes is not None else script.outcome_codes
    if codes_source is None:
        raise ConfigurationError(
            "columnar backend needs a script with outcome codes"
        )
    codes = np.asarray(codes_source, dtype=np.int64)
    k = len(release_names)
    if k < 1:
        raise ConfigurationError("columnar backend needs at least one release")
    if len(script.t2) != k or codes.shape[1] != k:
        raise ConfigurationError(
            f"script shape mismatch: {k} releases but {len(script.t2)} "
            f"latency streams and {codes.shape[1]} outcome columns"
        )
    n = int(requests) if requests is not None else script.requests
    if script.requests < n or codes.shape[0] < n:
        raise ConfigurationError(
            f"script covers {script.requests} demands, cell needs {n}"
        )
    config = mode if mode is not None else ModeConfig.max_reliability()
    # Mirror UpgradeMiddleware.__init__: the adjudication generator is
    # spawned from the middleware stream's first draw.
    adjudication_rng = spawn_generator(int(middleware_rng.integers(2 ** 63)))
    names = list(release_names)
    if retry is not None:
        if config.mode is not OperatingMode.PARALLEL_RELIABILITY:
            raise ConfigurationError(
                f"columnar retry is proven for max-reliability only, not "
                f"operating mode {config.mode.value!r}"
            )
        return _resolve_retry(
            script, names, codes, timeout, adjudication_delay, spacing,
            adjudication_rng, n, retry,
        )
    resolver = _MODE_RESOLVERS.get(config.mode)
    if resolver is None:  # pragma: no cover - REPRO203 keeps the table total
        raise ConfigurationError(
            f"no columnar resolver registered for operating mode "
            f"{config.mode.value!r}"
        )
    return resolver(
        script, names, codes, timeout, adjudication_delay, spacing,
        adjudication_rng, middleware_rng, n, config,
    )


def resolve_cell_batch(
    arena: "ScriptArena",
    release_names: Sequence[str],
    timeouts: Sequence[float],
    adjudication_delay: float,
    spacings: Sequence[float],
    middleware_rngs: Sequence[np.random.Generator],
    *,
    requests: Optional[int] = None,
    mode: Optional[ModeConfig] = None,
    retry: Optional["RetryPolicy"] = None,
) -> List[SystemMetrics]:
    """Resolve a whole batch of cells as one stacked array program.

    Cell *c* of the batch reads its script rows from ``arena.script(c)``
    and its scalar parameters from ``timeouts[c]`` / ``spacings[c]`` /
    ``middleware_rngs[c]``; the returned list is in cell order, and each
    entry is bit-identical to :func:`resolve_cell` run on that cell alone
    (elementwise IEEE ops are identical under broadcasting, and the
    per-row stable argsorts along the new trailing axis are exactly the
    per-cell sorts — asserted, not assumed, by the batched equivalence
    suite).  All cells in a batch share one (mode, release count, retry
    policy) shape, mirroring how the batched grid path groups work.

    Parallel modes fuse across the leading batch axis.  Sequential and
    retry cells resolve per cell over the shared arena — the win there
    is the shared script drawing and the single batched store commit,
    not the resolver arithmetic.
    """
    cells = arena.cells
    if not (len(timeouts) == len(spacings) == len(middleware_rngs) == cells):
        raise ConfigurationError(
            f"batch shape mismatch: arena holds {cells} cells but got "
            f"{len(timeouts)} timeouts, {len(spacings)} spacings, "
            f"{len(middleware_rngs)} middleware generators"
        )
    k = len(release_names)
    if k < 1:
        raise ConfigurationError("columnar backend needs at least one release")
    if len(arena.t2) != k:
        raise ConfigurationError(
            f"arena shape mismatch: {k} releases but {len(arena.t2)} "
            f"latency slabs"
        )
    n = int(requests) if requests is not None else arena.requests
    if arena.rows < n:
        raise ConfigurationError(
            f"arena covers {arena.rows} demands per cell, cells need {n}"
        )
    config = mode if mode is not None else ModeConfig.max_reliability()
    names = list(release_names)
    # Mirror resolve_cell / UpgradeMiddleware.__init__ per cell, in cell
    # order: the adjudication generator is spawned from the middleware
    # stream's first draw.
    adjudication_rngs = [
        spawn_generator(int(rng.integers(2 ** 63)))
        for rng in middleware_rngs
    ]
    if retry is not None:
        if config.mode is not OperatingMode.PARALLEL_RELIABILITY:
            raise ConfigurationError(
                f"columnar retry is proven for max-reliability only, not "
                f"operating mode {config.mode.value!r}"
            )
        out = []
        for c in range(cells):
            script = arena.script(c)
            codes = script.outcome_codes
            if codes is None:
                raise ConfigurationError(
                    "columnar backend needs a script with outcome codes"
                )
            out.append(_resolve_retry(
                script, names, np.asarray(codes, dtype=np.int64),
                float(timeouts[c]), adjudication_delay, float(spacings[c]),
                adjudication_rngs[c], n, retry,
            ))
        return out
    if config.mode is OperatingMode.SEQUENTIAL:
        out = []
        for c in range(cells):
            script = arena.script(c)
            codes = script.outcome_codes
            if codes is None:
                raise ConfigurationError(
                    "columnar backend needs a script with outcome codes"
                )
            out.append(_resolve_sequential(
                script, names, np.asarray(codes, dtype=np.int64),
                float(timeouts[c]), adjudication_delay, float(spacings[c]),
                adjudication_rngs[c], middleware_rngs[c], n, config,
            ))
        return out
    return _resolve_parallel_batch(
        arena, names, timeouts, spacings, adjudication_delay,
        adjudication_rngs, n, config,
    )


def _resolve_parallel_batch(
    arena: "ScriptArena",
    names: List[str],
    timeouts: Sequence[float],
    spacings: Sequence[float],
    adjudication_delay: float,
    adjudication_rngs: List[np.random.Generator],
    n: int,
    config: ModeConfig,
) -> List[SystemMetrics]:
    """Parallel modes 1–3 over a leading batch axis: (C, n, k) tensors.

    Every array op here is the elementwise/per-row twin of its
    :func:`_resolve_parallel` counterpart with the batch axis prepended:
    ``arange(n)[None, :] * spacings[:, None]`` reproduces each cell's
    scalar products bit for bit, and the stable argsorts run along the
    trailing release axis exactly as the per-cell ``axis=1`` sorts.
    Only the mismatch adjudication draws loop per cell — each cell owns
    its generator and its draws must interleave in close order.
    """
    codes_block = arena.outcome_codes
    if codes_block is None:
        raise ConfigurationError(
            "columnar backend needs a script arena with outcome codes"
        )
    cells = arena.cells
    k = len(names)
    codes = np.asarray(codes_block, dtype=np.int64)[:, :n, :]
    t1 = np.asarray(arena.t1, dtype=np.float64)[:, :n]
    timeouts_col = np.asarray(timeouts, dtype=np.float64)[:, None]
    spacings_col = np.asarray(spacings, dtype=np.float64)[:, None]
    starts = np.arange(n, dtype=np.float64)[None, :] * spacings_col
    cutoffs = starts + timeouts_col

    arrival = np.empty((cells, n, k), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        for j in range(k):
            t2j = np.asarray(arena.t2[j], dtype=np.float64)[:, :n]
            arrival[:, :, j] = starts + (t1 + t2j)
        within = arrival < cutoffs[:, :, None]
    count_within = within.sum(axis=2)

    if (
        config.mode is OperatingMode.PARALLEL_DYNAMIC
        and config.min_responses is not None
    ):
        m = min(int(config.min_responses), k)
    else:
        m = k

    sort_key = np.where(within, arrival, np.inf)
    order = np.argsort(sort_key, axis=2, kind="stable")
    rank = np.argsort(order, axis=2, kind="stable")
    collected = within & (rank < m)

    valid = collected & (codes != CODE_EVIDENT)
    valid_count = valid.sum(axis=2)
    unavailable = count_within == 0

    sorted_key = np.sort(sort_key, axis=2)
    decision = np.where(count_within >= m, sorted_key[:, :, m - 1], cutoffs)
    with np.errstate(invalid="ignore"):
        clipped_times = (
            np.minimum(decision - starts, timeouts_col) + adjudication_delay
        )

    system_codes = np.full((cells, n), CODE_EVIDENT, dtype=np.int64)
    if config.mode is OperatingMode.PARALLEL_RESPONSIVENESS:
        delivered = valid_count > 0
        fv_key = np.where(valid, arrival, np.inf)
        fv_col = np.argmin(fv_key, axis=2)
        with np.errstate(invalid="ignore"):
            fv_times = (
                np.take_along_axis(
                    arrival, fv_col[:, :, None], axis=2
                )[:, :, 0] - starts
            ) + adjudication_delay
        system_times = np.where(delivered, fv_times, clipped_times)
        fv_codes = np.take_along_axis(
            codes, fv_col[:, :, None], axis=2
        )[:, :, 0]
        system_codes = np.where(delivered, fv_codes, system_codes)
    else:
        system_times = clipped_times
        has_correct = (valid & (codes == CODE_CORRECT)).any(axis=2)
        has_nef = (valid & (codes == CODE_NEF)).any(axis=2)
        mismatch = has_correct & has_nef
        agree = (valid_count > 0) & ~mismatch
        first_valid_col = np.argmax(valid, axis=2)
        acell, arow = np.nonzero(agree)
        system_codes[acell, arow] = codes[
            acell, arow, first_valid_col[acell, arow]
        ]
        for c in range(cells):
            m_rows = np.flatnonzero(mismatch[c])
            if m_rows.size:
                draws = np.asarray(
                    _bounded_draws(
                        adjudication_rngs[c],
                        [int(b) for b in valid_count[c, m_rows]],
                    ),
                    dtype=np.int64,
                )
                vkey = np.where(valid[c, m_rows], arrival[c, m_rows], np.inf)
                vorder = np.argsort(vkey, axis=1, kind="stable")
                chosen_col = vorder[np.arange(m_rows.size), draws]
                system_codes[c, m_rows] = codes[c, m_rows, chosen_col]

    missing = n - collected.sum(axis=1)
    results = []
    for c in range(cells):
        sel = collected[c]
        elapsed = arrival[c] - starts[c, :, None]
        results.append(_reduce(
            names,
            [codes[c, sel[:, j], j] for j in range(k)],
            [elapsed[sel[:, j], j] for j in range(k)],
            missing[c],
            system_codes[c][~unavailable[c]],
            system_times[c],
            np.count_nonzero(unavailable[c]),
        ))
    return results


def _bounded_draws(
    rng: np.random.Generator, bounds: Sequence[int]
) -> List[int]:
    """Replay the adjudicator's per-demand ``integers(bound)`` draws.

    A batched ``integers(2, size=m)`` consumes the bit stream exactly
    like *m* scalar bound-2 draws (one random word each — the masked
    rejection path never rejects for a power-of-two bound), so maximal
    runs of bound-2 draws are batched; other bounds stay scalar, which
    is definitionally identical to the kernel's per-demand draws.
    """
    out: List[int] = []
    i = 0
    size = len(bounds)
    while i < size:
        if bounds[i] == 2:
            j = i
            while j < size and bounds[j] == 2:
                j += 1
            out.extend(int(d) for d in rng.integers(2, size=j - i))
            i = j
        else:
            out.append(int(rng.integers(int(bounds[i]))))
            i += 1
    return out


def _resolve_parallel(
    script: DemandScript,
    names: List[str],
    codes: np.ndarray,
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    adjudication_rng: np.random.Generator,
    middleware_rng: Optional[np.random.Generator],
    n: int,
    config: ModeConfig,
) -> SystemMetrics:
    """Parallel modes 1–3: stacked (n, k) arrival/outcome matrices.

    *middleware_rng* is accepted for signature uniformity with the
    :data:`_MODE_RESOLVERS` dispatch table but never drawn from: the
    parallel modes consume no middleware draws after the construction
    spawn (forced outcomes and difficulty are scripted).
    """
    del middleware_rng
    k = len(names)
    codes = codes[:n]
    t1 = np.asarray(script.t1, dtype=np.float64)[:n]
    starts = np.arange(n, dtype=np.float64) * spacing
    cutoffs = starts + timeout

    arrival = np.empty((n, k), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        for j in range(k):
            exec_times = t1 + np.asarray(script.t2[j], dtype=np.float64)[:n]
            arrival[:, j] = starts + exec_times
        within = arrival < cutoffs[:, None]
    count_within = within.sum(axis=1)

    if (
        config.mode is OperatingMode.PARALLEL_DYNAMIC
        and config.min_responses is not None
    ):
        m = min(int(config.min_responses), k)
    else:
        m = k

    # Collection order is (arrival, schedule sequence); response events
    # are scheduled at demand start in release order, so a stable
    # argsort over within-cutoff arrivals reproduces the kernel's
    # tie-break.  ``rank < m`` selects what the demand collected before
    # it closed (everything within, in max-reliability/responsiveness).
    sort_key = np.where(within, arrival, np.inf)
    order = np.argsort(sort_key, axis=1, kind="stable")
    rank = np.argsort(order, axis=1, kind="stable")
    collected = within & (rank < m)

    valid = collected & (codes != CODE_EVIDENT)
    valid_count = valid.sum(axis=1)
    unavailable = count_within == 0

    # Close at the m-th collected arrival when that many arrived within
    # the cutoff, else at the cutoff (the timeout event).
    sorted_key = np.sort(sort_key, axis=1)
    decision = np.where(count_within >= m, sorted_key[:, m - 1], cutoffs)
    with np.errstate(invalid="ignore"):
        clipped_times = (
            np.minimum(decision - starts, timeout) + adjudication_delay
        )

    if config.mode is OperatingMode.PARALLEL_RESPONSIVENESS:
        # First valid response is delivered immediately; its arrival is
        # the consumer-visible decision time, unclipped, and no
        # adjudication draw is ever consumed.
        delivered = valid_count > 0
        fv_key = np.where(valid, arrival, np.inf)
        fv_col = np.argmin(fv_key, axis=1)
        rows_idx = np.arange(n)
        with np.errstate(invalid="ignore"):
            fv_times = (arrival[rows_idx, fv_col] - starts) + adjudication_delay
        system_times = np.where(delivered, fv_times, clipped_times)
        system_codes = np.full(n, CODE_EVIDENT, dtype=np.int64)
        dsel = np.flatnonzero(delivered)
        system_codes[dsel] = codes[dsel, fv_col[dsel]]
    else:
        system_times = clipped_times
        system_codes = _paper_rule_codes(
            valid, codes, arrival, adjudication_rng
        )

    elapsed = arrival - starts[:, None]
    return _reduce(
        names,
        [codes[collected[:, j], j] for j in range(k)],
        [elapsed[collected[:, j], j] for j in range(k)],
        n - collected.sum(axis=0),
        system_codes[~unavailable],
        system_times,
        np.count_nonzero(unavailable),
    )


def _resolve_sequential(
    script: DemandScript,
    names: List[str],
    codes: np.ndarray,
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    adjudication_rng: np.random.Generator,
    middleware_rng: Optional[np.random.Generator],
    n: int,
    config: ModeConfig,
) -> SystemMetrics:
    """Sequential minimal-capacity mode: escalate on evident failure.

    Fixed order runs as a vectorised stage loop (stage *j* consumes the
    next consecutive slice of release *j*'s latency script — exactly
    the cursor order of the serialized event path).  Random order
    replays the kernel's per-demand permutation draws from the
    middleware stream and walks each chain in Python (latency cursors
    advance per release, in invocation order).
    """
    k = len(names)
    codes = codes[:n]
    starts = np.arange(n, dtype=np.float64) * spacing
    cutoffs = starts + timeout

    invoked = np.zeros((n, k), dtype=bool)
    collected = np.zeros((n, k), dtype=bool)
    rec_time = np.zeros((n, k), dtype=np.float64)
    close = cutoffs.copy()
    valid_code = np.full(n, -1, dtype=np.int64)
    any_collected = np.zeros(n, dtype=bool)

    if config.sequential_order is SequentialOrder.RANDOM:
        if middleware_rng is None:
            raise ConfigurationError(
                "sequential random order replays per-demand shuffles and "
                "requires the middleware generator"
            )
        # Per-demand shuffles consume the middleware stream in demand
        # order (forced outcomes and difficulty are scripted and draw
        # nothing), so the permutations can be replayed up front.
        # Generator.shuffle's draws depend only on the sequence length.
        perms: List[List[int]] = []
        for _ in range(n):
            perm = list(range(k))
            middleware_rng.shuffle(perm)
            perms.append(perm)
        t1_list = np.asarray(script.t1, dtype=np.float64)[:n].tolist()
        t2_lists = [
            np.asarray(script.t2[j], dtype=np.float64).tolist()
            for j in range(k)
        ]
        codes_list = codes.tolist()
        starts_list = starts.tolist()
        cutoffs_list = cutoffs.tolist()
        cursors = [0] * k
        for i in range(n):
            start = starts_list[i]
            cutoff = cutoffs_list[i]
            t1v = t1_list[i]
            now = start
            for p in range(k):
                r = perms[i][p]
                t2v = t2_lists[r][cursors[r]]
                cursors[r] += 1
                arr = now + (t1v + t2v)
                invoked[i, r] = True
                if not (arr < cutoff):  # NaN-safe: hang or too slow
                    break
                collected[i, r] = True
                rec_time[i, r] = arr - start
                any_collected[i] = True
                code = int(codes_list[i][r])
                if code != CODE_EVIDENT:
                    close[i] = arr
                    valid_code[i] = code
                    break
                if p == k - 1:
                    # Chain exhausted on an evident response: the
                    # escalation attempt finds no next release and the
                    # demand closes at this arrival.
                    close[i] = arr
                    break
                now = arr
    else:
        t1 = np.asarray(script.t1, dtype=np.float64)[:n]
        t2 = [np.asarray(script.t2[j], dtype=np.float64) for j in range(k)]
        alive = np.ones(n, dtype=bool)
        prev = starts.copy()
        for j in range(k):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            # Demands are serialized, so the demands reaching stage j
            # consume release j's script values consecutively, in
            # demand order.
            t2v = t2[j][: idx.size]
            with np.errstate(invalid="ignore"):
                arr = prev[idx] + (t1[idx] + t2v)
                within = arr < cutoffs[idx]
            invoked[idx, j] = True
            sel = idx[within]
            collected[sel, j] = True
            rec_time[sel, j] = arr[within] - starts[sel]
            any_collected[sel] = True
            code = codes[idx, j]
            valid = within & (code != CODE_EVIDENT)
            vsel = idx[valid]
            close[vsel] = arr[valid]
            valid_code[vsel] = code[valid]
            cont = within & ~valid
            if j == k - 1:
                csel = idx[cont]
                close[csel] = arr[cont]
            else:
                new_alive = np.zeros(n, dtype=bool)
                new_alive[idx[cont]] = True
                prev[idx[cont]] = arr[cont]
                alive = new_alive

    # At most one valid response is ever collected, so adjudication
    # never draws: the single valid wins, else all-evident, else
    # unavailable.  Releases past the escalation point were never
    # invoked; the monitor does not score them at all on those demands.
    system_codes = np.where(valid_code >= 0, valid_code, CODE_EVIDENT)
    return _reduce(
        names,
        [codes[collected[:, j], j] for j in range(k)],
        [rec_time[collected[:, j], j] for j in range(k)],
        invoked.sum(axis=0) - collected.sum(axis=0),
        system_codes[any_collected],
        np.minimum(close - starts, timeout) + adjudication_delay,
        n - np.count_nonzero(any_collected),
    )


#: Columnar resolver per operating mode.  Every :class:`OperatingMode`
#: member must have an entry — the whole-program analyzer (REPRO203)
#: checks this table against the enum, so widening the envelope to a
#: new mode without a resolver is a lint failure, not a runtime
#: surprise.  All resolvers share one signature: ``(script, names,
#: codes, timeout, adjudication_delay, spacing, adjudication_rng,
#: middleware_rng, n, config)``.
_MODE_RESOLVERS: Dict[OperatingMode, Callable[..., SystemMetrics]] = {
    OperatingMode.PARALLEL_RELIABILITY: _resolve_parallel,
    OperatingMode.PARALLEL_RESPONSIVENESS: _resolve_parallel,
    OperatingMode.PARALLEL_DYNAMIC: _resolve_parallel,
    OperatingMode.SEQUENTIAL: _resolve_sequential,
}


def _reduce(
    names: Sequence[str],
    release_codes: Sequence["ArrayLike"],
    release_times: Sequence["ArrayLike"],
    release_missing: Iterable[int],
    system_codes: "ArrayLike",
    system_times: "ArrayLike",
    system_missing: int,
) -> SystemMetrics:
    """Reduce records, in record order, to checked Table-5 rows."""
    metrics = SystemMetrics(
        releases=[
            ReleaseMetrics.from_arrays(
                name,
                outcome_codes=np.asarray(codes, dtype=np.int64),
                recorded_times=np.asarray(times, dtype=np.float64),
                no_response=int(missing),
            )
            for name, codes, times, missing in zip(
                names, release_codes, release_times, release_missing
            )
        ],
        system=ReleaseMetrics.from_arrays(
            "System",
            outcome_codes=np.asarray(system_codes, dtype=np.int64),
            recorded_times=np.asarray(system_times, dtype=np.float64),
            no_response=int(system_missing),
        ),
    )
    metrics.check_consistency()
    return metrics


def _paper_rule_codes(
    valid: np.ndarray,
    codes: np.ndarray,
    arrival: np.ndarray,
    adjudication_rng: np.random.Generator,
) -> np.ndarray:
    """Paper-rule system code per row of (rows, k) collection matrices.

    Rows must be in close order: mismatching rows draw from
    *adjudication_rng* in row order.  Rows with no valid response get
    the evident-failure code.
    """
    valid_count = valid.sum(axis=1)
    system_codes = np.full(valid.shape[0], CODE_EVIDENT, dtype=np.int64)
    has_correct = (valid & (codes == CODE_CORRECT)).any(axis=1)
    has_nef = (valid & (codes == CODE_NEF)).any(axis=1)
    mismatch = has_correct & has_nef
    agree = (valid_count > 0) & ~mismatch
    # Agreeing valid responses share one code — read the first.
    first_valid_col = np.argmax(valid, axis=1)
    asel = np.flatnonzero(agree)
    system_codes[asel] = codes[asel, first_valid_col[asel]]
    m_rows = np.flatnonzero(mismatch)
    if m_rows.size:
        draws = np.asarray(
            _bounded_draws(
                adjudication_rng, [int(b) for b in valid_count[m_rows]]
            ),
            dtype=np.int64,
        )
        # The draw indexes the valid responses in collection order.
        vkey = np.where(valid[m_rows], arrival[m_rows], np.inf)
        vorder = np.argsort(vkey, axis=1, kind="stable")
        chosen_col = vorder[np.arange(m_rows.size), draws]
        system_codes[m_rows] = codes[m_rows, chosen_col]
    return system_codes


def _retry_execs(
    script: DemandScript, codes: np.ndarray, k: int
) -> np.ndarray:
    """Execution times ``fl(t1 + t2_j)`` of every script row, (rows, k).

    Rows stop at the shortest of the script's streams; the elementwise
    sum matches the kernel's scalar sum bit for bit.
    """
    t1 = np.asarray(script.t1, dtype=np.float64)
    t2 = [np.asarray(script.t2[j], dtype=np.float64) for j in range(k)]
    rows = min(t1.shape[0], codes.shape[0], *(column.shape[0] for column in t2))
    execs = np.empty((rows, k), dtype=np.float64)
    for j in range(k):
        execs[:, j] = t1[:rows] + t2[j][:rows]
    return execs


def _resolve_retry(
    script: DemandScript,
    names: List[str],
    codes: np.ndarray,
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    adjudication_rng: np.random.Generator,
    n: int,
    policy: "RetryPolicy",
) -> SystemMetrics:
    """Max-reliability with a retry port.

    Array rounds (:func:`_resolve_retry_rounds`) resolve the cell when
    the policy has no attempt timeout and their checks hold; attempt
    timeouts, and retries that reach the next arrival, replay the
    kernel's event heap (:func:`_replay_retry_general`).
    """
    args = (
        script, names, codes, timeout, adjudication_delay, spacing,
        adjudication_rng, n, policy,
    )
    if policy.attempt_timeout is None:
        metrics = _resolve_retry_rounds(*args)
        if metrics is not None:
            return metrics
    return _replay_retry_general(*args)


def _resolve_retry_rounds(
    script: DemandScript,
    names: List[str],
    codes: np.ndarray,
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    adjudication_rng: np.random.Generator,
    n: int,
    policy: "RetryPolicy",
) -> Optional[SystemMetrics]:
    """Retry without an attempt timeout as array rounds, or None.

    Round *a* holds attempt *a* of every demand whose earlier attempts
    all faulted.  With no attempt timeout an attempt ends at its own
    delivery, so a demand has one attempt in flight and retry *a + 1*
    starts at ``t' = fl(fl(close + dT) + backoff)``.  The rounds are the
    kernel's run only under four facts of its ``(time, sequence)``
    order (DESIGN.md §6); each is either true by construction or
    checked here before anything is drawn or returned:

    1. *Script rows.*  Rows go to attempts in attempt-dispatch order.
       That order is demand-major when every attempt of demand *i*
       starts strictly before arrival *i + 1* at ``fl((i+1)·spacing)``;
       on an exact tie the arrival dispatches first, because its
       sequence number was allocated at ``s_i``, before any retry of
       demand *i* was scheduled.  Each row's fault is predicted from
       finite ``exec < TimeOut`` and the outcome codes (the kernel
       schedules no response for a non-finite exec); each demand then
       takes the run of faulty rows from its first row, plus the row
       that ends it, capped at ``max_attempts``.
    2. *Exact check.*  Start times, cut-offs and collection
       (``fl(t + exec) < fl(t + TimeOut)``) are computed exactly, round
       by round.  If an exact fault differs from its prediction, or a
       retry starts at or after the next arrival, the row assignment is
       not the kernel's and None is returned — as it is when the script
       would run out, so the heap replay raises the kernel's error.
    3. *Record and draw order.*  Close events dispatch in ``(close
       time, row)`` order: a close's sequence number is allocated when
       its attempt dispatches, as its row is.  Records and the
       adjudication draws follow that order.
    4. *Reduction.*  Rows reduce with ``ReleaseMetrics.from_arrays``
       (cumsum order) and pass ``check_consistency``.

    Every event time must also be at or after the time it is scheduled
    (the kernel refuses anything else), which holds when delays are
    non-negative and is checked for the close times.
    """
    if n < 1 or not (spacing >= 0.0 and adjudication_delay >= 0.0):
        return None
    k = len(names)
    execs = _retry_execs(script, codes, k)
    rows_available = execs.shape[0]
    finite = np.isfinite(execs)
    nonevident = codes[:rows_available] != CODE_EVIDENT
    max_attempts = int(policy.max_attempts)

    # Fact 1.  A non-faulty row ends its demand, so each block of faulty
    # rows closed by a non-faulty one splits into demands of at most
    # max_attempts rows.  A virtual non-faulty row past the script ends
    # the last block; the demand after the last one must start there or
    # earlier, else the script runs out.
    predicted_fault = ~(finite & (execs < timeout) & nonevident).any(axis=1)
    index = np.arange(rows_available + 1)
    opens_block = np.ones(rows_available + 1, dtype=bool)
    opens_block[1:] = ~predicted_fault
    block_start = np.maximum.accumulate(np.where(opens_block, index, 0))
    first = np.flatnonzero((index - block_start) % max_attempts == 0)
    if first.size < n + 1:
        return None
    attempts = np.diff(first[: n + 1])

    # Fact 2, round by round.
    starts = np.arange(n, dtype=np.float64) * spacing
    next_arrival = np.append(starts[1:], np.inf)
    demand = np.arange(n)
    start = starts
    rounds: List[Tuple[np.ndarray, ...]] = []
    with np.errstate(invalid="ignore"):
        for attempt in range(max_attempts):
            if attempt:
                keep = attempts[demand] > attempt
                demand = demand[keep]
                if demand.size == 0:
                    break
                start = (close[keep] + adjudication_delay) + policy.backoff
                if not (start < next_arrival[demand]).all():
                    return None
            rows = first[demand] + attempt
            cutoff = start + timeout
            arrival = start[:, None] + execs[rows]
            within = (arrival < cutoff[:, None]) & finite[rows]
            close = np.where(
                within.all(axis=1), arrival.max(axis=1), cutoff
            )
            fault = ~(within & nonevident[rows]).any(axis=1)
            if not (
                np.array_equal(fault, predicted_fault[rows])
                and (close >= start).all()
            ):
                return None
            rounds.append((rows, start, close, arrival, within))

    # Fact 3.
    merged = [np.concatenate(part) for part in zip(*rounds)]
    order = np.lexsort((merged[0], merged[2]))
    rows, start, close, arrival, within = (part[order] for part in merged)
    row_codes = codes[rows]
    valid = within & (row_codes != CODE_EVIDENT)
    answered = within.any(axis=1)
    system_codes = _paper_rule_codes(
        valid, row_codes, arrival, adjudication_rng
    )

    # Fact 4.
    elapsed = arrival - start[:, None]
    return _reduce(
        names,
        [row_codes[within[:, j], j] for j in range(k)],
        [elapsed[within[:, j], j] for j in range(k)],
        rows.size - within.sum(axis=0),
        system_codes[answered],
        np.minimum(close - start, timeout) + adjudication_delay,
        rows.size - np.count_nonzero(answered),
    )


# Retry replay event kinds (heap entries are all-scalar tuples:
# (time, sequence, kind, a, b, c) — the sequence is unique, so
# comparison never reaches the payload).
_EVT_ARRIVAL = 0
_EVT_CLOSE = 1
_EVT_DELIVERY = 2
_EVT_ATTEMPT_TIMEOUT = 3
_EVT_ATTEMPT_START = 4


def _replay_retry_general(
    script: DemandScript,
    names: List[str],
    codes: np.ndarray,
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    adjudication_rng: np.random.Generator,
    n: int,
    policy: "RetryPolicy",
) -> SystemMetrics:
    """Replay the kernel's global event heap, for any retry policy.

    Attempt timeouts put several attempts of one demand in flight, and a
    retry launched at or after the next arrival interleaves demands, so
    this resolver cannot treat demands as serialized.  It replays the
    kernel's ``(time, sequence)`` dispatch order exactly — allocating
    sequence numbers for every event the kernel would schedule,
    including response events that never need dispatching here — so
    script cursors, adjudication draws, and record order all land
    bit-identically.  All arithmetic is Python floats, matching the
    kernel's ``schedule(delay)`` = ``schedule_at(fl(now + delay))``
    chain.
    """
    k = len(names)
    execs = _retry_execs(script, codes, k)
    rows_available = execs.shape[0]
    # Per-row precomputation, so the replay loop only pays list indexing.
    exec_lists: List[List[float]] = execs.T.tolist()
    fin_lists: List[List[bool]] = np.isfinite(execs).T.tolist()
    codes_list = codes.tolist()
    max_attempts = int(policy.max_attempts)
    backoff = float(policy.backoff)
    attempt_timeout = policy.attempt_timeout

    rel_codes: List[List[int]] = [[] for _ in range(k)]
    rel_times: List[List[float]] = [[] for _ in range(k)]
    rel_miss = [0] * k
    sys_codes: List[int] = []
    sys_times: List[float] = []
    heap: List[Tuple[float, int, int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    alloc = 0

    st_attempt = [0] * n
    st_finished = [False] * n
    cancelled_timeouts: Set[Tuple[int, int]] = set()
    cursor = 0
    # demand_idx -> (request, attempt_no, start, collected, script row);
    # collected holds (arrival, sequence, release index) triples.
    demands: List[Tuple[int, int, float, List[Tuple[float, int, int]], int]] = []
    sys_miss = 0
    release_range = range(k)

    heappush(heap, (0.0 + 0 * spacing, alloc, _EVT_ARRIVAL, 0, 0, 0))
    alloc += 1
    while heap:
        time, _seq, kind, a, b, c = heappop(heap)
        if kind == _EVT_CLOSE:
            request, attempt_no, start, coll, row = demands[a]
            coll.sort()
            codes_row = codes_list[row]
            valid: List[Tuple[float, int, int]] = []
            missing = k - len(coll)
            for entry in coll:
                j = entry[2]
                rel_codes[j].append(codes_row[j])
                rel_times[j].append(entry[0] - start)
                if codes_row[j] != CODE_EVIDENT:
                    valid.append(entry)
            if missing:
                collected_js = {entry[2] for entry in coll}
                for j in release_range:
                    if j not in collected_js:
                        rel_miss[j] += 1
            sys_times.append(min(time - start, timeout) + adjudication_delay)
            if not coll:
                sys_miss += 1
                fault = 1
            elif not valid:
                sys_codes.append(CODE_EVIDENT)
                fault = 1
            else:
                vcodes = [codes_row[entry[2]] for entry in valid]
                if CODE_CORRECT in vcodes and CODE_NEF in vcodes:
                    draw = int(adjudication_rng.integers(len(valid)))
                    sys_codes.append(vcodes[draw])
                else:
                    sys_codes.append(vcodes[0])
                fault = 0
            heappush(heap, (
                time + adjudication_delay, alloc, _EVT_DELIVERY,
                request, attempt_no, fault,
            ))
            alloc += 1
        elif kind == _EVT_DELIVERY:
            request, attempt_no, fault = a, b, c
            if st_finished[request]:
                continue
            if st_attempt[request] != attempt_no:
                # Superseded attempt: a late valid response still
                # settles the demand; a late fault is ignored (the
                # retry it triggered is already running).
                if not fault:
                    st_finished[request] = True
                continue
            if attempt_timeout is not None:
                cancelled_timeouts.add((request, attempt_no))
            if fault and attempt_no < max_attempts:
                heappush(heap, (
                    time + backoff, alloc, _EVT_ATTEMPT_START,
                    request, 0, 0,
                ))
                alloc += 1
            else:
                st_finished[request] = True
        elif kind == _EVT_ATTEMPT_TIMEOUT:
            request, attempt_no = a, b
            if (request, attempt_no) in cancelled_timeouts:
                continue  # tombstoned by the attempt's own delivery
            if st_finished[request] or st_attempt[request] != attempt_no:
                continue
            if attempt_no < max_attempts:
                heappush(heap, (
                    time + backoff, alloc, _EVT_ATTEMPT_START,
                    request, 0, 0,
                ))
                alloc += 1
            else:
                st_finished[request] = True
        else:  # _EVT_ARRIVAL or _EVT_ATTEMPT_START
            request = a
            if kind == _EVT_ARRIVAL:
                # The arrival source chains the next arrival before
                # submitting (lower sequence), then the retry port
                # starts attempt 1 inline.
                if request + 1 < n:
                    heappush(heap, (
                        0.0 + (request + 1) * spacing, alloc,
                        _EVT_ARRIVAL, request + 1, 0, 0,
                    ))
                    alloc += 1
            # The kernel's attempt() has no finished-check: a
            # backoff-scheduled attempt dispatches even if a late valid
            # response settled the demand in between.
            attempt_no = st_attempt[request] + 1
            st_attempt[request] = attempt_no
            row = cursor
            cursor += 1
            if row >= rows_available:
                raise SimulationError(
                    f"retry demand script exhausted: demand start {row} "
                    f"of {rows_available} scripted rows"
                )
            # Sequence allocation mirrors the kernel's per-attempt
            # schedule order: attempt timeout (if any), demand timeout,
            # then one response per finite execution time, in release
            # order.
            if attempt_timeout is not None:
                heappush(heap, (
                    time + attempt_timeout, alloc, _EVT_ATTEMPT_TIMEOUT,
                    request, attempt_no, 0,
                ))
                alloc += 1
            timeout_seq = alloc
            alloc += 1
            cutoff = time + timeout
            coll = []
            for j in release_range:
                if fin_lists[j][row]:
                    arr = time + exec_lists[j][row]
                    response_seq = alloc
                    alloc += 1
                    if arr < cutoff:
                        coll.append((arr, response_seq, j))
            if len(coll) == k:
                close_time, close_seq, _j = max(coll)
            else:
                close_time, close_seq = cutoff, timeout_seq
            demand_idx = len(demands)
            demands.append((request, attempt_no, time, coll, row))
            heappush(heap, (close_time, close_seq, _EVT_CLOSE, demand_idx, 0, 0))
    return _reduce(
        names, rel_codes, rel_times, rel_miss, sys_codes, sys_times, sys_miss
    )
