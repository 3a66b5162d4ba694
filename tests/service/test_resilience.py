"""The resilience layer, proven by chaos.

Every guarantee :mod:`repro.service.resilience` documents is asserted
here against a *seeded, reproducible* fault scenario built from
:mod:`repro.service.chaos` — no hand-rolled mocks of failure, the same
injector the operational tooling uses:

- results served under injected transient faults are byte-identical to
  fault-free, uncached computation (the cache-identity invariant
  survives chaos);
- the circuit breaker opens, half-opens and closes exactly at its
  documented thresholds;
- deadline expiry raises the typed
  :class:`~repro.errors.DeadlineExceededError` and never yields a
  partial or cached-late result;
- with the breaker open the service serves cache hits (degraded mode)
  and sheds misses with :class:`~repro.errors.ServiceOverloadError`;
- nothing untyped ever escapes the service boundary, for *every* chaos
  fault kind;
- a corrupted cache entry is detected, invalidated and recomputed.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CorruptResultError,
    DeadlineExceededError,
    GeometryError,
    InjectedFaultError,
    ReproError,
    RetryExhaustedError,
    ServiceError,
    ServiceOverloadError,
)
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ChaosEngine,
    ChaosSchedule,
    DiffService,
    ResiliencePolicy,
    ResilientDiffService,
)
from repro.service.batcher import compute_row_diffs
from repro.service.chaos import FAULT_KINDS, corrupt_cached_result
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    validate_result,
)
from tests.service.test_service import FAST, assert_identical

OPTS = DiffOptions(engine="batched")

ROW_A = RLERow.from_pairs([(0, 4), (8, 2), (20, 5)], width=32)
ROW_B = RLERow.from_pairs([(2, 4), (21, 3)], width=32)

#: A breaker that trips fast, for integration tests.
TWITCHY = ResiliencePolicy(
    max_retries=0,
    breaker_window=4,
    breaker_min_requests=2,
    breaker_failure_threshold=0.5,
    breaker_reset_timeout=10.0,
    jitter=0.0,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_images(rows=6, width=48, seed=5):
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.random((rows, width)) < 0.3
    b = a.copy()
    b[1, 4:9] ^= True
    b[3, 20:23] ^= True
    return RLEImage.from_array(a), RLEImage.from_array(b)


# --------------------------------------------------------------------- #
# Policy validation                                                      #
# --------------------------------------------------------------------- #
class TestResiliencePolicy:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.max_retries == 2
        assert policy.validate_results

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_multiplier": 0.5},
            {"jitter": 1.5},
            {"breaker_window": -1},
            {"breaker_min_requests": 0},
            {"breaker_min_requests": 99},
            {"breaker_failure_threshold": 0.0},
            {"breaker_failure_threshold": 1.0001},
            {"breaker_reset_timeout": -1.0},
            {"breaker_half_open_probes": 0},
        ],
    )
    def test_bad_values_raise_typed(self, kwargs):
        with pytest.raises(ServiceError):
            ResiliencePolicy(**kwargs)

    def test_backoff_schedule_grows_then_caps(self):
        policy = ResiliencePolicy(
            backoff_base=0.01, backoff_multiplier=2.0, backoff_max=0.05
        )
        delays = [policy.backoff_for(n) for n in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_policy_threads_through_options(self):
        """``policy=`` is the one way to hand a service its policy: the
        options bundle has no policy field to fall back to."""
        import dataclasses

        assert "resilience" not in {
            field.name for field in dataclasses.fields(DiffOptions)
        }
        policy = ResiliencePolicy(max_retries=7)
        with ResilientDiffService(
            DiffOptions(engine="batched"), policy=policy, **FAST
        ) as svc:
            assert svc.policy.max_retries == 7
        with ResilientDiffService(DiffOptions(engine="batched"), **FAST) as svc:
            assert svc.policy == ResiliencePolicy()


# --------------------------------------------------------------------- #
# Byte-identity under chaos (the headline guarantee)                     #
# --------------------------------------------------------------------- #
class TestByteIdentityUnderChaos:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_row_identical_after_each_fault_kind(self, kind):
        chaos = ChaosEngine(ChaosSchedule([kind]), sleep=lambda _s: None)
        with ResilientDiffService(OPTS, compute=chaos, **FAST) as svc:
            survived = svc.row_diff(ROW_A, ROW_B)
        [clean] = compute_row_diffs(OPTS, [ROW_A], [ROW_B])
        assert_identical(survived, clean)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_image_identical_after_each_fault_kind(self, kind):
        a, b = make_images()
        chaos = ChaosEngine(ChaosSchedule([kind]), sleep=lambda _s: None)
        with ResilientDiffService(OPTS, compute=chaos, **FAST) as svc:
            survived = svc.diff_images(a, b)
        # compare against a fault-free *service* run (same dedupe and
        # batch-wide n_cells normalization as the resilient path)
        with DiffService(OPTS, **FAST) as plain:
            clean = plain.diff_images(a, b)
        assert survived.image == clean.image
        assert survived.image == diff_images(a, b, options=OPTS).image
        for got, want in zip(survived.row_results, clean.row_results):
            assert_identical(got, want)

    def test_seeded_bernoulli_storm_row_stream(self, rng):
        """A 30%-fault storm over a stream of row requests: every served
        result matches the fault-free computation, and the seed printed
        on failure reproduces the exact storm."""
        seed = rng.randrange(2**32)
        chaos = ChaosEngine(
            ChaosSchedule.bernoulli(seed=seed, rate=0.3),
            sleep=lambda _s: None,
        )
        policy = ResiliencePolicy(max_retries=8, backoff_base=0.0, jitter=0.0)
        pairs = [
            (
                RLERow.from_pairs([(0, 3), (i + 4, 2)], width=32),
                RLERow.from_pairs([(1, 3), (i + 5, 2)], width=32),
            )
            for i in range(12)
        ]
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as svc:
            served = [svc.row_diff(a, b) for a, b in pairs]
        for (a, b), got in zip(pairs, served):
            [want] = compute_row_diffs(OPTS, [a], [b])
            assert_identical(got, want)

    def test_cache_never_stores_a_faulted_attempt(self):
        """Retries happen upstream of the cache: after surviving a
        corrupt-result fault, the cached entry is the *clean* result."""
        chaos = ChaosEngine(ChaosSchedule(["corrupt"]))
        with ResilientDiffService(OPTS, compute=chaos, **FAST) as svc:
            first = svc.row_diff(ROW_A, ROW_B)
            hit = svc.row_diff(ROW_A, ROW_B)
            assert svc.service.cache.info()["hits"] == 1
        assert_identical(first, hit)
        validate_result(OPTS, ROW_A, ROW_B, hit)


# --------------------------------------------------------------------- #
# Retries                                                                #
# --------------------------------------------------------------------- #
class TestRetries:
    def test_transient_fault_retries_and_counts(self):
        registry = MetricsRegistry()
        chaos = ChaosEngine(ChaosSchedule(["error", "error"]))
        opts = DiffOptions(engine="batched", metrics=registry)
        with ResilientDiffService(opts, compute=chaos, **FAST) as svc:
            svc.row_diff(ROW_A, ROW_B)
            assert svc.stats()["resilience_retries"] == 2
        family = registry.family("repro_resilience_retries_total")
        assert family.labels().value == 2.0

    def test_exhausted_retries_surface_the_typed_fault(self):
        chaos = ChaosEngine(ChaosSchedule(["error"] * 10, cycle=True))
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as svc:
            with pytest.raises(InjectedFaultError):
                svc.row_diff(ROW_A, ROW_B)
        assert chaos.injected["error"] == 3  # 1 try + 2 retries

    def test_untyped_crash_is_wrapped(self):
        chaos = ChaosEngine(ChaosSchedule(["crash"] * 10, cycle=True))
        policy = ResiliencePolicy(max_retries=1, backoff_base=0.0, jitter=0.0)
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as svc:
            with pytest.raises(RetryExhaustedError):
                svc.row_diff(ROW_A, ROW_B)

    def test_caller_errors_never_retry(self):
        calls = []

        def compute(options, rows_a, rows_b):
            calls.append(len(rows_a))
            raise GeometryError("caller bug")

        with ResilientDiffService(OPTS, compute=compute, **FAST) as svc:
            with pytest.raises(GeometryError):
                svc.row_diff(ROW_A, ROW_B)
        assert calls == [1]

    def test_backoff_delays_follow_policy_and_jitter_bounds(self):
        slept = []
        chaos = ChaosEngine(ChaosSchedule(["error"] * 3))
        policy = ResiliencePolicy(
            max_retries=3,
            backoff_base=0.1,
            backoff_multiplier=2.0,
            backoff_max=1.0,
            jitter=0.0,
        )
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, sleep=slept.append, **FAST
        ) as svc:
            svc.row_diff(ROW_A, ROW_B)
        assert slept == [0.1, 0.2, 0.4]


# --------------------------------------------------------------------- #
# Deadlines                                                              #
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_slow_row_raises_typed_deadline_error(self):
        def slow(options, rows_a, rows_b):
            time.sleep(0.25)
            return compute_row_diffs(options, rows_a, rows_b)

        with ResilientDiffService(OPTS, compute=slow, **FAST) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.row_diff(ROW_A, ROW_B, deadline=0.02)
            assert svc.stats()["resilience_deadline_expirations"] == 1

    def test_deadline_expiry_during_retries_no_partial_result(self):
        """Retries stop the moment the budget is gone, and nothing is
        cached for the failed request — no partial runs, ever."""
        clock = FakeClock()
        chaos = ChaosEngine(ChaosSchedule(["error"] * 50, cycle=True))
        policy = ResiliencePolicy(
            deadline=0.1,
            max_retries=50,
            backoff_base=0.06,
            backoff_multiplier=1.0,
            jitter=0.0,
        )
        with ResilientDiffService(
            OPTS,
            policy=policy,
            compute=chaos,
            clock=clock,
            sleep=clock.advance,
            **FAST,
        ) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.row_diff(ROW_A, ROW_B)
            assert svc.service.cache.lookup(ROW_A, ROW_B, svc.options) is None
        # the budget permitted exactly two attempts (0.0s and 0.06s)
        assert chaos.injected["error"] == 2

    def test_image_completing_late_is_rejected(self):
        clock = FakeClock()

        def slow(options, rows_a, rows_b):
            clock.advance(1.0)
            return compute_row_diffs(options, rows_a, rows_b)

        a, b = make_images()
        with ResilientDiffService(OPTS, compute=slow, clock=clock, **FAST) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.diff_images(a, b, deadline=0.5)

    def test_no_deadline_means_no_expiry(self):
        with ResilientDiffService(OPTS, **FAST) as svc:
            svc.row_diff(ROW_A, ROW_B)
            assert svc.stats()["resilience_deadline_expirations"] == 0


# --------------------------------------------------------------------- #
# The circuit breaker state machine (unit level, fake clock)             #
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def make(self, **kwargs):
        defaults = dict(
            breaker_window=4,
            breaker_min_requests=4,
            breaker_failure_threshold=0.5,
            breaker_reset_timeout=30.0,
            breaker_half_open_probes=1,
        )
        defaults.update(kwargs)
        clock = FakeClock()
        return CircuitBreaker(ResiliencePolicy(**defaults), clock=clock), clock

    def test_stays_closed_below_min_volume(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
            assert breaker.state == BREAKER_CLOSED

    def test_opens_exactly_at_threshold_with_volume(self):
        breaker, _ = self.make()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()  # window [s f s f]: rate 0.5 == threshold
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_below_threshold_never_opens(self):
        breaker, _ = self.make(breaker_failure_threshold=0.75)
        for _ in range(8):
            breaker.record_failure()
            breaker.record_success()
            breaker.record_success()
            breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_window_slides_old_outcomes_out(self):
        breaker, _ = self.make(breaker_window=4, breaker_min_requests=2)
        breaker.record_failure()
        breaker.record_failure()  # [f f] rate 1.0 -> opens
        assert breaker.state == BREAKER_OPEN

    def test_half_open_after_reset_timeout(self):
        breaker, clock = self.make(breaker_min_requests=1)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.advance(29.0)
        assert breaker.state == BREAKER_OPEN
        clock.advance(1.0)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_admits_exactly_the_probe_budget(self):
        breaker, clock = self.make(
            breaker_min_requests=1, breaker_half_open_probes=2
        )
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_probe_success_closes_and_clears_history(self):
        breaker, clock = self.make(breaker_min_requests=1)
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.failure_rate == 0.0
        assert breaker.transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_probe_failure_reopens(self):
        breaker, clock = self.make(breaker_min_requests=1)
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        # the reopen restarts the reset clock
        clock.advance(29.0)
        assert breaker.state == BREAKER_OPEN
        clock.advance(1.0)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_multi_probe_close_requires_all_successes(self):
        breaker, clock = self.make(
            breaker_min_requests=1, breaker_half_open_probes=2
        )
        breaker.record_failure()
        clock.advance(30.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_trip_and_reset_are_forcible(self):
        breaker, _ = self.make()
        breaker.trip()
        assert breaker.state == BREAKER_OPEN and not breaker.allow()
        breaker.reset()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()

    def test_disabled_breaker_is_inert(self):
        breaker, _ = self.make(
            breaker_window=0, breaker_min_requests=1
        )
        for _ in range(32):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert breaker.transitions == []


# --------------------------------------------------------------------- #
# Degraded modes (breaker open: cache-only serving + load shedding)      #
# --------------------------------------------------------------------- #
class TestDegradedModes:
    def test_forced_open_serves_hits_and_sheds_misses(self):
        registry = MetricsRegistry()
        opts = DiffOptions(engine="batched", metrics=registry)
        with ResilientDiffService(opts, policy=TWITCHY, **FAST) as svc:
            warm = svc.row_diff(ROW_A, ROW_B)  # populate the cache
            svc.breaker.trip()
            degraded = svc.row_diff(ROW_A, ROW_B)
            assert_identical(degraded, warm)
            cold_a = RLERow.from_pairs([(5, 5)], width=32)
            cold_b = RLERow.from_pairs([(6, 5)], width=32)
            with pytest.raises(ServiceOverloadError):
                svc.row_diff(cold_a, cold_b)
            assert svc.stats()["resilience_degraded_serves"] == 1 and svc.stats()["resilience_shed"] == 1
        family = registry.family("repro_resilience_degraded_total")
        assert family.labels(mode="cache_only").value == 1.0
        assert family.labels(mode="shed").value == 1.0

    def test_failures_open_the_breaker_end_to_end(self):
        chaos = ChaosEngine(ChaosSchedule([None, "error", "error"]))
        policy = ResiliencePolicy(
            max_retries=0,
            breaker_window=4,
            breaker_min_requests=2,
            breaker_failure_threshold=0.6,
            breaker_reset_timeout=10.0,
            jitter=0.0,
        )
        with ResilientDiffService(OPTS, policy=policy, compute=chaos, **FAST) as svc:
            warm = svc.row_diff(ROW_A, ROW_B)  # success in the window
            other = RLERow.from_pairs([(9, 3)], width=32)
            with pytest.raises(InjectedFaultError):
                svc.row_diff(other, ROW_B)  # [s f]: 0.5 < 0.6, still closed
            assert svc.breaker.state == BREAKER_CLOSED
            with pytest.raises(InjectedFaultError):
                svc.row_diff(other, ROW_B)  # [s f f]: 0.67 >= 0.6, opens
            assert svc.breaker.state == BREAKER_OPEN
            # degraded: the warmed pair still serves, identical
            assert_identical(svc.row_diff(ROW_A, ROW_B), warm)

    def test_forced_open_image_all_hit_serves_identically(self):
        a, b = make_images()
        with ResilientDiffService(OPTS, **FAST) as svc:
            warm = svc.diff_images(a, b)
            svc.breaker.trip()
            degraded = svc.diff_images(a, b)
            assert degraded.image == warm.image
            with pytest.raises(ServiceOverloadError):
                svc.diff_images(b, a)  # reversed pair: not fully cached

    def test_submit_path_honours_the_breaker(self):
        with ResilientDiffService(OPTS, **FAST) as svc:
            svc.row_diff(ROW_A, ROW_B)
            svc.breaker.trip()
            future = svc.submit_row_diff(ROW_A, ROW_B)
            assert future.done()
            cold = RLERow.from_pairs([(7, 7)], width=32)
            with pytest.raises(ServiceOverloadError):
                svc.submit_row_diff(cold, ROW_B)

    def test_recovery_closes_via_probe_and_normal_service_resumes(self):
        clock = FakeClock()
        chaos = ChaosEngine(ChaosSchedule(["error", "error"]))
        policy = ResiliencePolicy(
            max_retries=0,
            breaker_window=4,
            breaker_min_requests=2,
            breaker_failure_threshold=0.5,
            breaker_reset_timeout=5.0,
            jitter=0.0,
        )
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, clock=clock, **FAST
        ) as svc:
            for _ in range(2):
                with pytest.raises(InjectedFaultError):
                    svc.row_diff(ROW_A, ROW_B)
            assert svc.breaker.state == BREAKER_OPEN
            clock.advance(5.0)
            # the schedule is exhausted: the probe computes cleanly
            probe = svc.row_diff(ROW_A, ROW_B)
            assert svc.breaker.state == BREAKER_CLOSED
            [want] = compute_row_diffs(OPTS, [ROW_A], [ROW_B])
            assert_identical(probe, want)


# --------------------------------------------------------------------- #
# The typed-boundary guarantee                                           #
# --------------------------------------------------------------------- #
class TestTypedBoundary:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_no_bare_exception_escapes_rows(self, kind):
        chaos = ChaosEngine(
            ChaosSchedule([kind] * 8, cycle=True), sleep=lambda _s: None
        )
        policy = ResiliencePolicy(
            max_retries=1, backoff_base=0.0, jitter=0.0, breaker_window=0
        )
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as svc:
            try:
                svc.row_diff(ROW_A, ROW_B)
            except Exception as exc:
                assert isinstance(exc, ReproError), (
                    f"untyped {type(exc).__name__} escaped for kind {kind!r}"
                )

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_no_bare_exception_escapes_images(self, kind):
        a, b = make_images()
        chaos = ChaosEngine(
            ChaosSchedule([kind] * 8, cycle=True), sleep=lambda _s: None
        )
        policy = ResiliencePolicy(
            max_retries=1, backoff_base=0.0, jitter=0.0, breaker_window=0
        )
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as svc:
            try:
                svc.diff_images(a, b)
            except Exception as exc:
                assert isinstance(exc, ReproError), (
                    f"untyped {type(exc).__name__} escaped for kind {kind!r}"
                )


# --------------------------------------------------------------------- #
# Cache-corruption self-healing                                          #
# --------------------------------------------------------------------- #
class TestSelfHealing:
    @pytest.mark.parametrize("flavour", [0, 1, 2])
    def test_rotted_row_entry_is_invalidated_and_recomputed(self, flavour):
        with ResilientDiffService(OPTS, **FAST) as svc:
            clean = svc.row_diff(ROW_A, ROW_B)
            assert corrupt_cached_result(
                svc.service.cache, ROW_A, ROW_B, svc.options, flavour=flavour
            )
            healed = svc.row_diff(ROW_A, ROW_B)
            assert_identical(healed, clean)
            assert svc.healed == 1
            # and the cache now holds the good result again
            stored = svc.service.cache.lookup(ROW_A, ROW_B, svc.options)
            validate_result(svc.options, ROW_A, ROW_B, stored)

    def test_rotted_image_entry_heals_whole_image(self):
        a, b = make_images()
        with ResilientDiffService(OPTS, **FAST) as svc:
            clean = svc.diff_images(a, b)
            rows_a, rows_b = list(a), list(b)
            assert corrupt_cached_result(
                svc.service.cache, rows_a[2], rows_b[2], svc.options
            )
            healed = svc.diff_images(a, b)
            assert healed.image == clean.image
            assert svc.healed == 1

    def test_validation_off_serves_rot_verbatim(self):
        """The control: with validate_results=False the rot is served,
        proving the healing path is what protects callers."""
        policy = ResiliencePolicy(validate_results=False)
        with ResilientDiffService(OPTS, policy=policy, **FAST) as svc:
            svc.row_diff(ROW_A, ROW_B)
            corrupt_cached_result(svc.service.cache, ROW_A, ROW_B, svc.options)
            rotted = svc.row_diff(ROW_A, ROW_B)
            with pytest.raises(CorruptResultError):
                validate_result(svc.options, ROW_A, ROW_B, rotted)


# --------------------------------------------------------------------- #
# Stats, metrics and lifecycle                                           #
# --------------------------------------------------------------------- #
class TestStatsAndLifecycle:
    def test_stats_merge_inner_and_resilience_counters(self):
        with ResilientDiffService(OPTS, **FAST) as svc:
            svc.row_diff(ROW_A, ROW_B)
            stats = svc.stats()
        for key in (
            "hits",
            "requests",
            "resilience_retries",
            "resilience_shed",
            "breaker_state",
            "breaker_failure_rate",
        ):
            assert key in stats
        assert stats["breaker_state"] == 0.0

    def test_breaker_transition_metrics(self):
        registry = MetricsRegistry()
        opts = DiffOptions(engine="batched", metrics=registry)
        with ResilientDiffService(opts, **FAST) as svc:
            svc.breaker.trip()
            svc.breaker.reset()
        family = registry.family("repro_resilience_breaker_transitions_total")
        assert family.labels(from_state="closed", to_state="open").value == 1.0
        assert family.labels(from_state="open", to_state="closed").value == 1.0
        gauge = registry.family("repro_resilience_breaker_state")
        assert gauge.labels().value == 0.0

    def test_close_is_idempotent_and_context_managed(self):
        svc = ResilientDiffService(OPTS, **FAST)
        with svc:
            svc.row_diff(ROW_A, ROW_B)
        svc.close()
        with pytest.raises(ServiceError):
            svc.row_diff(ROW_A, ROW_B)

    def test_shape_mismatch_is_a_caller_error_not_a_failure(self):
        a, _ = make_images(rows=4)
        b, _ = make_images(rows=6)
        with ResilientDiffService(OPTS, **FAST) as svc:
            with pytest.raises(GeometryError):
                svc.diff_images(a, b)
            assert svc.breaker.failure_rate == 0.0


# --------------------------------------------------------------------- #
# validate_result unit coverage                                          #
# --------------------------------------------------------------------- #
class TestValidateResult:
    def test_accepts_every_engine_result(self, paper_rows):
        a, b, _ = paper_rows
        [result] = compute_row_diffs(OPTS, [a], [b])
        validate_result(OPTS, a, b, result)

    def test_sequential_engine_served_behind_resilience(self):
        """The sequential merge builds no array and reports ``n_cells``
        0; the result check accepts that for it alone, so the resilient
        service and a sharded worker (which runs one) both serve it."""
        from dataclasses import replace

        from repro.service import ShardedDiffService

        sequential = DiffOptions(engine="sequential")
        [result] = compute_row_diffs(OPTS, [ROW_A], [ROW_B])
        with pytest.raises(CorruptResultError):
            validate_result(OPTS, ROW_A, ROW_B, replace(result, n_cells=0))
        a, b = make_images()
        expected = diff_images(a, b, options=sequential)
        with ResilientDiffService(sequential) as service:
            assert service.diff_images(a, b).image == expected.image
        with ShardedDiffService(sequential, workers=1) as service:
            assert service.diff_images(a, b).image == expected.image

    @given(st.integers(0, 2))
    @settings(max_examples=3, deadline=None)
    def test_rejects_every_corruption_flavour(self, flavour):
        from repro.service.chaos import _corrupt_result

        [result] = compute_row_diffs(OPTS, [ROW_A], [ROW_B])
        with pytest.raises(CorruptResultError):
            validate_result(OPTS, ROW_A, ROW_B, _corrupt_result(result, flavour))
