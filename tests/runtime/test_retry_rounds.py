"""Array-round retry resolution against the heap replay, bit for bit.

:func:`repro.runtime.columnar._resolve_retry_rounds` resolves retry
cells without an attempt timeout as array rounds and returns None when
its ordering premises fail; :func:`_replay_retry_general` replays the
kernel's event heap and is itself pinned to the event kernel by
``TestRetryEquivalence`` in ``test_columnar.py``.  These tests hold the
rounds to the heap replay: by IEEE bits of every reduced row and by the
adjudication generator's final state, on random scripts (hypothesis)
and on engineered scripts that sit exactly on each premise's edge.
The path tests pin which cells take which resolver.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.seeding import SeedSequenceFactory, spawn_generator
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    calibrated_profile,
    paper_profile,
    run_release_pair_simulation,
)
from repro.runtime import columnar
from repro.runtime.sampling import DemandScript, build_demand_script_arena
from repro.services.retry import RetryPolicy
from repro.simulation.distributions import Exponential

CORRECT = columnar.CODE_CORRECT
EVIDENT = columnar.CODE_EVIDENT
NEF = columnar.CODE_NEF
PROFILES = {"paper": paper_profile(), "calibrated": calibrated_profile()}


def rows_as_bits(metrics):
    """all_rows() with every float canonicalised to its IEEE bit pattern."""
    def canon(value):
        if isinstance(value, float):
            return struct.pack("<d", value).hex()
        return value

    return {
        column: {key: canon(value) for key, value in row.items()}
        for column, row in metrics.all_rows().items()
    }


def random_script(profile, k, rows, seed, p_evident, p_nef):
    """A k-release script of *rows* rows drawn from *profile*'s laws."""
    rng = spawn_generator(seed)
    t1 = profile.demand_difficulty.sample_many(rng, rows)
    t2 = [profile.release_latencies[0].sample_many(rng, rows) for _ in range(k)]
    p_correct = 1.0 - p_evident - p_nef
    codes = rng.choice(3, size=(rows, k), p=[p_correct, p_evident, p_nef])
    return DemandScript(
        requests=rows, t1=t1, t2=t2, outcome_codes=codes.astype(np.int64)
    )


def resolve_both(script, n, policy, timeout=1.0, delay=0.5, spacing=2.0,
                 seed=7):
    """(rounds result or None, heap result, whether the draws agree)."""
    names = [f"R{j}" for j in range(len(script.t2))]
    codes = np.asarray(script.outcome_codes, dtype=np.int64)
    args = (script, names, codes, timeout, delay, spacing)
    rounds_rng = spawn_generator(seed)
    heap_rng = spawn_generator(seed)
    rounds = columnar._resolve_retry_rounds(*args, rounds_rng, n, policy)
    heap = columnar._replay_retry_general(*args, heap_rng, n, policy)
    same_draws = (
        rounds_rng.bit_generator.state == heap_rng.bit_generator.state
    )
    return rounds, heap, same_draws


def engineered_script(execs, codes):
    """Script rows from an explicit (rows, k) exec matrix (t1 = 0)."""
    execs = np.asarray(execs, dtype=np.float64)
    return DemandScript(
        requests=execs.shape[0],
        t1=np.zeros(execs.shape[0]),
        t2=[execs[:, j].copy() for j in range(execs.shape[1])],
        outcome_codes=np.asarray(codes, dtype=np.int64),
    )


class TestRoundsMatchHeapReplay:
    @settings(max_examples=60, deadline=None)
    @given(
        max_attempts=st.integers(1, 4),
        backoff=st.sampled_from([0.0, 0.25, 0.4, 0.6]),
        k=st.sampled_from([1, 2, 3]),
        profile=st.sampled_from(sorted(PROFILES)),
        timeout=st.sampled_from([1.5, 2.0, 3.0]),
        p_evident=st.sampled_from([0.05, 0.3, 0.6]),
        p_nef=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_rounds_bit_identical_or_declined(
        self, max_attempts, backoff, k, profile, timeout, p_evident, p_nef,
        seed,
    ):
        n = 120
        script = random_script(
            PROFILES[profile], k, n * (1 + max_attempts), seed,
            p_evident, p_nef,
        )
        policy = RetryPolicy(max_attempts=max_attempts, backoff=backoff)
        rounds, heap, same_draws = resolve_both(
            script, n, policy, timeout=timeout,
            delay=P.ADJUDICATION_DELAY,
            spacing=timeout + P.ADJUDICATION_DELAY + 0.5, seed=seed,
        )
        if rounds is not None:
            assert rows_as_bits(rounds) == rows_as_bits(heap)
            assert same_draws

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("policy", [
        RetryPolicy(max_attempts=1),
        RetryPolicy(max_attempts=2),
        RetryPolicy(max_attempts=2, backoff=0.4),
    ], ids=["attempts-1", "attempts-2", "backoff-0.4"])
    def test_serialized_retry_resolves_in_rounds(self, policy, k, profile):
        # Two attempts with backoff below the 0.5 s spacing slack always
        # finish before the next arrival, so the rounds never decline.
        n = 400
        script = random_script(
            PROFILES[profile], k, n * (1 + policy.max_attempts), 11,
            0.3, 0.1,
        )
        rounds, heap, same_draws = resolve_both(
            script, n, policy, timeout=1.5, delay=P.ADJUDICATION_DELAY,
            spacing=1.5 + P.ADJUDICATION_DELAY + 0.5,
        )
        assert rounds is not None
        assert rows_as_bits(rounds) == rows_as_bits(heap)
        assert same_draws


class TestPremiseEdges:
    """Timeout 1.0, delay 0.5, spacing 2.0: retries start at 1.5 + backoff."""

    def hung_first_attempt(self, backoff):
        # Demand 0's first attempt hangs on both releases, so its retry
        # starts at fl(fl(1.0 + 0.5) + backoff); every other row answers.
        execs = np.full((8, 2), 0.25)
        execs[0] = np.inf
        codes = np.full((8, 2), CORRECT)
        return engineered_script(execs, codes)

    def test_retry_starting_on_next_arrival_declines(self):
        # fl(1.5 + 0.5) == 2.0 == fl(1 * spacing): the arrival's sequence
        # number is older, so demand 1 takes row 1 and the retry row 2.
        script = self.hung_first_attempt(backoff=0.5)
        policy = RetryPolicy(max_attempts=2, backoff=0.5)
        rounds, heap, _ = resolve_both(script, 3, policy)
        assert rounds is None
        resolved = columnar._resolve_retry(
            script, ["R0", "R1"], np.asarray(script.outcome_codes),
            1.0, 0.5, 2.0, spawn_generator(7), 3, policy,
        )
        assert rows_as_bits(resolved) == rows_as_bits(heap)

    def test_retry_just_before_next_arrival_resolves(self):
        script = self.hung_first_attempt(backoff=0.4)
        rounds, heap, same_draws = resolve_both(
            script, 3, RetryPolicy(max_attempts=2, backoff=0.4)
        )
        assert rounds is not None
        assert rows_as_bits(rounds) == rows_as_bits(heap)
        assert same_draws

    def test_exec_rounding_onto_cutoff_declines(self):
        # Demand 1 starts at 2.0; its only valid response takes the
        # largest double below TimeOut, so exec < TimeOut predicts a
        # collection, but fl(2.0 + exec) == fl(2.0 + 1.0) is not
        # collected: the predicted fault is wrong.
        below = np.nextafter(1.0, 0.0)
        assert 2.0 + below == 2.0 + 1.0
        execs = np.full((8, 2), 0.25)
        execs[1] = (below, np.inf)
        codes = np.full((8, 2), CORRECT)
        script = engineered_script(execs, codes)
        rounds, heap, _ = resolve_both(script, 3, RetryPolicy(max_attempts=2))
        assert rounds is None
        assert heap.releases[0].no_response == 1

    @pytest.mark.parametrize("hang", [np.inf, -np.inf, np.nan])
    def test_non_finite_exec_never_responds(self, hang):
        # The kernel schedules no response for a non-finite execution
        # time, so fl(t + -inf) < cutoff must not count as collected.
        execs = np.full((8, 2), 0.25)
        execs[0] = (hang, 0.5)
        codes = np.full((8, 2), CORRECT)
        codes[0, 1] = EVIDENT
        script = engineered_script(execs, codes)
        rounds, heap, same_draws = resolve_both(
            script, 3, RetryPolicy(max_attempts=2)
        )
        assert heap.releases[0].no_response == 1
        assert heap.system.counts.total == 4
        assert rounds is not None
        assert rows_as_bits(rounds) == rows_as_bits(heap)
        assert same_draws

    @pytest.mark.parametrize("execs,expected_correct", [
        # Demand 0's retry starts at 1.4 and closes at fl(1.4 + 0.95),
        # after demand 1 (start 2.0) closes at 2.1: close order is not
        # row order, and the first draw goes to demand 1.
        ([(0.9, 0.9), (0.9, 0.95), (0.05, 0.1), (0.1, 0.1)], 0),
        # Demand 0's first attempt hangs, its retry starts at 1.5 and
        # closes at 2.375, exactly when demand 1 closes: the lower row
        # (the older sequence number) closes first.
        ([(np.inf, np.inf), (0.75, 0.875), (0.25, 0.375), (0.1, 0.1)], 2),
    ], ids=["retry-closes-last", "close-time-tie"])
    def test_draws_follow_close_order(self, execs, expected_correct):
        # Both closes after the first are mismatches whose valid
        # responses arrive in opposite code orders, and the generator's
        # first two bound-2 draws differ, so assigning the draws in any
        # other order flips both system codes.
        assert list(spawn_generator(1).integers(2, size=2)) == [0, 1]
        codes = [(EVIDENT, EVIDENT), (CORRECT, NEF), (NEF, CORRECT),
                 (CORRECT, CORRECT)]
        script = engineered_script(execs, codes)
        rounds, heap, same_draws = resolve_both(
            script, 2, RetryPolicy(max_attempts=2), seed=1
        )
        assert heap.system.counts.correct == expected_correct
        assert heap.system.counts.non_evident == 2 - expected_correct
        assert rounds is not None
        assert rows_as_bits(rounds) == rows_as_bits(heap)
        assert same_draws

    @pytest.mark.parametrize("max_attempts", [1, 2, 3, 4])
    def test_attempts_faulting_up_to_the_cap(self, max_attempts):
        # Demands 0 and 2 get evident answers on every attempt, demand 1
        # gets a correct and a non-evident one (an adjudication draw).
        # Each attempt closes 0.25 s after it starts and retries 0.5 s
        # later, so attempts 1-3 start before the next arrival at 2.0
        # and a fourth would start at 2.25: that cap must decline.
        n = 3
        execs = np.full((3 * max_attempts, 2), 0.25)
        codes = np.full(execs.shape, EVIDENT)
        codes[max_attempts] = (CORRECT, NEF)
        script = engineered_script(execs, codes)
        policy = RetryPolicy(max_attempts=max_attempts)
        rounds, heap, same_draws = resolve_both(script, n, policy)
        if max_attempts <= 3:
            assert heap.system.counts.evident == 2 * max_attempts
            assert heap.system.counts.total == 2 * max_attempts + 1
            assert rounds is not None
            assert rows_as_bits(rounds) == rows_as_bits(heap)
            assert same_draws
        else:
            assert rounds is None

    def test_script_exhaustion_raises_the_heap_replay_error(self):
        # Every attempt faults: 3 demands x 2 attempts need 6 rows.
        execs = np.full((5, 1), 0.25)
        codes = np.full((5, 1), EVIDENT)
        script = engineered_script(execs, codes)
        policy = RetryPolicy(max_attempts=2)
        args = (script, ["R0"], np.asarray(script.outcome_codes),
                1.0, 0.5, 2.0, spawn_generator(7), 3, policy)
        assert columnar._resolve_retry_rounds(*args) is None
        with pytest.raises(SimulationError) as heap_error:
            columnar._replay_retry_general(*args)
        with pytest.raises(SimulationError) as error:
            columnar._resolve_retry(*args)
        assert str(error.value) == str(heap_error.value)
        assert "demand start 5 of 5 scripted rows" in str(error.value)

    def test_script_that_exactly_fits_resolves(self):
        execs = np.full((6, 1), 0.25)
        codes = np.full((6, 1), EVIDENT)
        rounds, heap, _ = resolve_both(
            engineered_script(execs, codes), 3, RetryPolicy(max_attempts=2)
        )
        assert rounds is not None
        assert rows_as_bits(rounds) == rows_as_bits(heap)


class TestResolverPath:
    """Which cells the rounds take, with the heap replay made to fail."""

    @pytest.fixture
    def heap_replay_raises(self):
        def refuse(*args, **kwargs):
            raise AssertionError("heap replay reached")

        with mock.patch.object(columnar, "_replay_retry_general", refuse):
            yield

    def run(self, policy, profile=None):
        return run_release_pair_simulation(
            joint_model=P.correlated_model(1), timeout=1.5, requests=2000,
            seed=SeedSequenceFactory(3).child_seed("table5/run-1"),
            backend="columnar", retry=policy, profile=profile,
        )

    @pytest.mark.parametrize("profile", [None, calibrated_profile()],
                             ids=["paper", "calibrated"])
    def test_modes_retry_cell_skips_heap_replay(
        self, heap_replay_raises, profile
    ):
        metrics = self.run(RetryPolicy(max_attempts=2), profile)
        metrics.check_consistency()

    def test_batched_retry_cells_skip_heap_replay(self, heap_replay_raises):
        requests, policy = 300, RetryPolicy(max_attempts=2)
        factories = [SeedSequenceFactory(seed) for seed in (3, 9, 17)]
        arena = build_demand_script_arena(
            [P.correlated_model(1)] * 3, Exponential(P.T1_MEAN),
            [Exponential(P.T2_MEAN)] * 2, requests, factories,
            draws=requests * (1 + policy.max_attempts),
        )
        results = columnar.resolve_cell_batch(
            arena, ["R0", "R1"], [1.5] * 3, P.ADJUDICATION_DELAY,
            [1.5 + P.ADJUDICATION_DELAY + 0.5] * 3,
            [factory.generator("middleware") for factory in factories],
            requests=requests, retry=policy,
        )
        assert len(results) == 3

    @pytest.mark.parametrize("policy", [
        RetryPolicy(max_attempts=3, backoff=0.25),
        RetryPolicy(max_attempts=2, attempt_timeout=1.0),
    ], ids=["overlapping-retries", "attempt-timeout"])
    def test_heap_replay_still_serves(self, heap_replay_raises, policy):
        with pytest.raises(AssertionError, match="heap replay reached"):
            self.run(policy)
