"""Tests for the fault-tolerance layer (:mod:`repro.serve.faults`,
worker supervision, deadlines, and client resilience).

The load-bearing invariants:

* **determinism** — a seeded :class:`FaultPlan` fully determines the
  injected chaos: two injectors running the same plan against the same
  traffic produce identical event logs,
* **supervision** — a worker killed mid-load (thread poison or real
  child SIGKILL) is restarted and its batch re-placed; every request
  still completes bit-identical and the restart is visible in
  ``pool.stats()``,
* **typed failure** — under any seeded fault plan, every request
  through a fabric node either completes bit-identical to a direct
  run or fails with a *typed* error (``DeadlineExceeded`` /
  ``FabricRejected`` / ``CircuitOpen``) — never a silent wrong answer
  (property-tested),
* **client resilience** — deterministic backoff honours ``Retry-After``,
  the circuit breaker quarantines a dead node and half-open-probes it
  back, and a corrupt blob fetch is retried once then quarantined
  locally without ever deleting the peer's copy.
"""

import http.client
import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import HTTPStoreBackend, MemoryStoreBackend
from repro.core import LPUConfig, compile_ffcl
from repro.engine import Session
from repro.lpu import random_stimulus
from repro.netlist import random_dag
from repro.serve import (
    BatchScheduler,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InferenceServer,
    ServeConfig,
    WorkerPool,
)
from repro.serve.fabric import (
    CircuitBreaker,
    CircuitOpen,
    FabricClient,
    FabricConfig,
    FabricNode,
    FabricRejected,
    RetryPolicy,
)
from repro.serve.scheduler import DeadlineExceeded

from gated import GatedTarget

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)

STAT_FIELDS = (
    "macro_cycles",
    "clock_cycles",
    "compute_instructions_executed",
    "switch_routes",
    "peak_buffer_words",
    "buffer_writes",
)


def assert_results_identical(expected, got):
    assert set(expected.outputs) == set(got.outputs)
    for name, words in expected.outputs.items():
        assert np.array_equal(words, got.outputs[name]), name
    for field in STAT_FIELDS:
        assert getattr(expected, field) == getattr(got, field), field


@pytest.fixture(scope="module")
def compiled():
    g = random_dag(5, 40, 2, seed=3)
    return compile_ffcl(g, SMALL).program


def _requests(graph, count, max_words=3):
    return [
        random_stimulus(graph, array_size=1 + i % max_words, seed=i)
        for i in range(count)
    ]


# ======================================================================
# FaultPlan / FaultInjector
# ======================================================================
class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor_strike", 0)
        with pytest.raises(ValueError, match="occurrence index"):
            FaultEvent("sever", -1)

    def test_builders_are_immutable(self):
        base = FaultPlan()
        grown = base.crash_worker(1, at=3).drop_response(at=5)
        assert len(base) == 0
        assert len(grown) == 2

    def test_seeded_is_deterministic(self):
        kwargs = dict(
            requests=50, workers=4, crashes=2, drop_rate=0.1, severs=3
        )
        a = FaultPlan.seeded(7, **kwargs)
        b = FaultPlan.seeded(7, **kwargs)
        c = FaultPlan.seeded(8, **kwargs)
        assert a.describe() == b.describe()
        assert a.describe() != c.describe()

    def test_injector_fires_at_exact_occurrence(self):
        plan = FaultPlan().crash_worker(2, at=1).sever_connection(at=0)
        injector = FaultInjector(plan)
        assert injector.pool_crash_target() is None  # occurrence 0
        assert injector.pool_crash_target() == 2     # occurrence 1
        assert injector.pool_crash_target() is None  # occurrence 2
        assert injector.client_sever() is True
        assert injector.client_sever() is False
        assert injector.event_log() == [
            ("pool.dispatch", 1, "crash_worker", 0.0),
            ("client.request", 0, "sever", 0.0),
        ]

    def test_same_plan_same_traffic_same_log(self):
        plan = FaultPlan.seeded(
            3, requests=20, drop_rate=0.3, delay_rate=0.2
        )
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for _ in range(20):
                injector.response_action()
            logs.append(injector.event_log())
        assert logs[0] == logs[1]
        assert len(logs[0]) == len(plan)

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector(FaultPlan().corrupt_blob(at=0, position=2))
        data = b"abcdef"
        mutated = injector.corrupt(data)
        assert mutated != data
        assert len(mutated) == len(data)
        diffs = [i for i in range(len(data)) if mutated[i] != data[i]]
        assert diffs == [2]
        # Next fetch passes through untouched.
        assert injector.corrupt(data) == data


# ======================================================================
# Worker supervision
# ======================================================================
_FORK = pytest.param(
    "fork",
    marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process backend needs fork",
    ),
)


class TestSupervision:
    @pytest.mark.parametrize("backend", ["thread", _FORK])
    def test_killed_worker_restarts_and_batch_survives(
        self, compiled, backend
    ):
        session = Session(compiled)
        requests = _requests(compiled.graph, 8)
        expected = [session.run(r) for r in requests]
        plan = FaultPlan().crash_worker(0, at=2)
        injector = FaultInjector(plan)
        pool = WorkerPool(
            compiled,
            num_workers=2,
            backend=backend,
            injector=injector,
        )
        try:
            futures = [pool.submit(r) for r in requests]
            results = [f.result(timeout=60) for f in futures]
            for want, got in zip(expected, results):
                assert_results_identical(want, got)
            stats = pool.stats()
            assert stats["restarts"][0] == 1
            assert stats["total_restarts"] == 1
            assert injector.event_log() == [
                ("pool.dispatch", 2, "crash_worker", 0.0)
            ]
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", ["thread", _FORK])
    def test_scheduler_slot_survives_worker_death(self, compiled, backend):
        # The worker dies under the batch (crash injected right after
        # placement); the pool re-places it and resolves its own future
        # once, so the scheduler's slot is released exactly once.
        session = Session(compiled)
        requests = _requests(compiled.graph, 3)
        pool = WorkerPool(
            compiled,
            num_workers=1,
            backend=backend,
            injector=FaultInjector(FaultPlan().crash_worker(0, at=0)),
        )
        scheduler = BatchScheduler(
            pool.submit, max_wait_ms=10_000.0, slots=pool.num_workers
        )
        try:
            for request in requests:
                assert_results_identical(
                    session.run(request),
                    scheduler.submit(request).result(timeout=60),
                )
                assert scheduler.stats.in_flight == 0
            assert pool.stats()["total_restarts"] == 1
            assert pool.stats()["replaced_batches"] >= 1
            # Neither leaked (a later request would have waited out the
            # deadline) nor released twice (in_flight would go negative).
            assert scheduler.stats.released["slot_free"] == len(requests)
        finally:
            scheduler.close()
            pool.close()

    def test_direct_kill_worker_is_survivable(self, compiled):
        session = Session(compiled)
        requests = _requests(compiled.graph, 6)
        expected = [session.run(r) for r in requests]
        pool = WorkerPool(compiled, num_workers=2, backend="thread")
        try:
            pool.kill_worker(1)
            futures = [pool.submit(r) for r in requests]
            for want, future in zip(expected, futures):
                assert_results_identical(want, future.result(timeout=60))
            assert pool.stats()["total_restarts"] >= 1
        finally:
            pool.close()

    def test_restart_does_not_wait_on_callbacks_under_the_lock(
        self, compiled
    ):
        """A dead process executor refuses the next submit while its
        management thread is still delivering other batches' callbacks,
        which take the pool lock.  Replacing the worker must not join
        that thread with the lock held (it used to: a deadlock)."""
        from concurrent.futures.process import BrokenProcessPool

        pool = WorkerPool(compiled, num_workers=1, backend="thread")

        class DeadWorker:
            def __init__(self):
                self.delivering = threading.Thread(
                    target=self._callback, daemon=True
                )

            def _callback(self):
                with pool._lock:  # what _on_batch_done does first
                    pass

            def submit(self, inputs):
                self.delivering.start()
                raise BrokenProcessPool("worker died")

            def close(self):
                self.delivering.join()

        dead = DeadWorker()
        pool._workers[0] = dead
        request = _requests(compiled.graph, 1)[0]
        outcome = []
        submitter = threading.Thread(
            target=lambda: outcome.append(pool.submit(request)),
            daemon=True,
        )
        submitter.start()
        submitter.join(timeout=10)
        assert not submitter.is_alive(), "pool deadlocked on the restart"
        dead.delivering.join(timeout=10)
        assert not dead.delivering.is_alive()
        try:
            assert_results_identical(
                Session(compiled).run(request), outcome[0].result(timeout=60)
            )
            assert pool.stats()["restarts"] == [1]
        finally:
            pool.close()

    def test_retries_are_bounded(self, compiled):
        # With the retry budget at zero, a worker death reaches the
        # caller as the typed WorkerCrashed instead of looping.
        from repro.serve import WorkerCrashed

        pool = WorkerPool(
            compiled,
            num_workers=1,
            backend="thread",
            injector=FaultInjector(FaultPlan().crash_worker(0, at=0)),
            max_batch_retries=0,
        )
        try:
            request = _requests(compiled.graph, 1)[0]
            with pytest.raises(WorkerCrashed):
                pool.submit(request).result(timeout=60)
        finally:
            pool.close()

    def test_server_threads_restarts_through_config(self, compiled):
        injector = FaultInjector(FaultPlan().crash_worker(1, at=1))
        with InferenceServer(
            compiled,
            serving=ServeConfig(
                num_workers=2, max_batch_size=1, injector=injector
            ),
        ) as server:
            session = Session(compiled)
            for request in _requests(compiled.graph, 6):
                assert_results_identical(
                    session.run(request), server.infer(request)
                )
            assert server.stats()["pool"]["total_restarts"] == 1


# ======================================================================
# Request deadlines
# ======================================================================
class TestDeadlines:
    def test_queued_request_is_shed_typed(self, compiled):
        # A downstream that stays busy: the one slot is held by an
        # unresolved batch, so the request behind it sits in the queue
        # until its deadline, then sheds typed.
        target = GatedTarget(Session(compiled).run)
        scheduler = BatchScheduler(
            target, max_batch_size=8, max_wait_ms=10_000.0
        )
        try:
            request = _requests(compiled.graph, 1)[0]
            blocker = scheduler.submit(request)
            target.wait_for(1)
            started = time.monotonic()
            future = scheduler.submit(request, deadline_ms=25.0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                future.result(timeout=30)
            waited = (time.monotonic() - started) * 1e3
            assert excinfo.value.deadline_ms == 25.0
            assert excinfo.value.waited_ms >= 24.0
            # Shed within one scheduler tick of expiry, not at the
            # 10-second fill deadline.
            assert waited < 5_000.0
            assert scheduler.stats.expired == 1
            assert len(target.batches) == 1  # never dispatched
            target.finish(0)
            blocker.result(timeout=30)
        finally:
            scheduler.close()

    def test_deadline_validation(self, compiled):
        with InferenceServer(compiled) as server:
            with pytest.raises(ValueError):
                server.submit(
                    _requests(compiled.graph, 1)[0], deadline_ms=0.0
                )
        with pytest.raises(ValueError):
            ServeConfig(default_deadline_ms=-1.0)

    def test_generous_deadline_completes(self, compiled):
        session = Session(compiled)
        with InferenceServer(
            compiled, serving=ServeConfig(default_deadline_ms=60_000.0)
        ) as server:
            for request in _requests(compiled.graph, 4):
                assert_results_identical(
                    session.run(request), server.infer(request)
                )
            assert server.stats()["scheduler"]["expired"] == 0

    def test_expired_never_batched_with_live(self, compiled):
        # An expired request must not ride along inside a later batch:
        # it queues (behind a busy slot) *between* live requests that
        # share its fill window, expires there, and the batch the
        # completion releases carries the live ones only.
        session = Session(compiled)
        target = GatedTarget(session.run)
        request = _requests(compiled.graph, 1, max_words=1)[0]
        with BatchScheduler(
            target, max_batch_size=8, max_wait_ms=10_000.0
        ) as scheduler:
            blocker = scheduler.submit(request)
            target.wait_for(1)
            live = [scheduler.submit(request) for _ in range(2)]
            doomed = scheduler.submit(request, deadline_ms=20.0)
            live += [scheduler.submit(request) for _ in range(2)]
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30)
            assert len(target.batches) == 1  # shed while still queued
            target.finish(0)
            target.wait_for(2)
            assert target.words(1) == len(live)  # 1 word per request
            target.finish(1)
            expected = session.run(request)
            for future in [blocker] + live:
                assert_results_identical(
                    expected, future.result(timeout=60)
                )
            stats = scheduler.stats.as_dict()
            assert stats["expired"] == 1
            assert stats["requests"] == 1 + len(live)
            assert stats["in_flight"] == 0


# ======================================================================
# Client resilience
# ======================================================================
class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.01, multiplier=2.0,
            max_backoff_s=0.05,
        )
        assert [policy.delay(k) for k in range(5)] == [
            0.01, 0.02, 0.04, 0.05, 0.05,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_open_half_open_close_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after_s=1.0,
            clock=lambda: clock[0],
        )
        assert breaker.state == "closed"
        breaker.check()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after > 0
        clock[0] = 1.5  # window elapsed: half-open probe allowed
        assert breaker.state == "half-open"
        breaker.check()  # the probe passes the gate
        with pytest.raises(CircuitOpen):
            breaker.check()  # concurrent call fails fast mid-probe
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.check()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=1.0,
            clock=lambda: clock[0],
        )
        breaker.record_failure()
        clock[0] = 1.5
        breaker.check()  # probe
        breaker.record_failure()  # probe failed
        with pytest.raises(CircuitOpen):
            breaker.check()

    def test_breaker_quarantines_dead_node(self):
        # Nothing listens on this port: connections fail instantly.
        client = FabricClient(
            "http://127.0.0.1:9",  # discard port, never listening
            timeout=0.2,
            breaker=CircuitBreaker(failure_threshold=1, reset_after_s=60.0),
        )
        with pytest.raises(OSError):
            client.infer({"a": np.zeros(1, dtype=np.uint64)})
        with pytest.raises(CircuitOpen):
            client.infer({"a": np.zeros(1, dtype=np.uint64)})


# ======================================================================
# Fabric: health split, drain, 504, drop/sever recovery
# ======================================================================
@pytest.fixture()
def node(compiled):
    with FabricNode(
        compiled,
        serving=ServeConfig(num_workers=2, max_wait_ms=0.5),
        fabric=FabricConfig(),
    ) as running:
        yield running


class TestFabricResilience:
    def _get(self, node, path):
        conn = http.client.HTTPConnection(
            node.fabric.host, node.port, timeout=10
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_liveness_and_readiness_split(self, node):
        import json

        status, _ = self._get(node, "/v1/health/live")
        assert status == 200
        status, _ = self._get(node, "/v1/health/ready")
        assert status == 200
        status, body = self._get(node, "/v1/health")
        assert status == 200
        assert json.loads(body)["ready"] is True

    def test_draining_node_rejects_typed(self, compiled):
        import json

        node = FabricNode(
            compiled, serving=ServeConfig(num_workers=1)
        ).start()
        try:
            node._draining = True  # flip readiness without stopping
            status, body = self._get(node, "/v1/health/ready")
            assert status == 503
            assert json.loads(body)["reason"] == "draining"
            status, _ = self._get(node, "/v1/health/live")
            assert status == 200  # alive: supervisors must not restart
            client = FabricClient(node.url)
            # health() tolerates the 503 and returns the document.
            assert client.health()["ready"] is False
            with pytest.raises(FabricRejected) as excinfo:
                client.infer(
                    random_stimulus(compiled.graph, array_size=1, seed=0)
                )
            assert "draining" in str(excinfo.value)
            client.close()
        finally:
            node._draining = False
            node.stop()

    def test_drain_finishes_inflight(self, compiled):
        node = FabricNode(
            compiled, serving=ServeConfig(num_workers=2)
        ).start()
        client = FabricClient(node.url)
        request = random_stimulus(compiled.graph, array_size=2, seed=1)
        expected = Session(compiled).run(request)
        results = []

        def call():
            results.append(client.infer(request))

        try:
            worker = threading.Thread(target=call)
            worker.start()
            worker.join(timeout=60)
            node.drain(timeout=10)
            assert node.draining
            assert len(results) == 1
            assert_results_identical(expected, results[0])
        finally:
            client.close()
            node.stop()

    def test_deadline_504_surfaces_typed(self, node, compiled):
        client = FabricClient(node.url)
        request = random_stimulus(compiled.graph, array_size=1, seed=2)
        # Sanity: without a deadline the same request completes.
        assert_results_identical(
            Session(compiled).run(request), client.infer(request)
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            # 1 microsecond: expired before the scheduler can collect.
            client.infer(request, deadline_ms=0.001)
        assert excinfo.value.deadline_ms == 0.001
        assert node.stats()["deadline_504"] >= 1
        client.close()

    def test_dropped_response_recovers_via_retry(self, compiled):
        injector = FaultInjector(FaultPlan().drop_response(at=1))
        node = FabricNode(
            compiled,
            serving=ServeConfig(num_workers=1, injector=injector),
        ).start()
        client = FabricClient(
            node.url,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
        )
        try:
            session = Session(compiled)
            for request in _requests(compiled.graph, 4):
                assert_results_identical(
                    session.run(request), client.infer(request)
                )
            # The drop fired (and was recovered — by the connection
            # redial or the retry policy, whichever got there first).
            assert injector.event_log() == [
                ("node.response", 1, "drop_response", 0.0)
            ]
        finally:
            client.close()
            node.stop()

    def test_severed_client_recovers_via_retry(self, node, compiled):
        injector = FaultInjector(FaultPlan().sever_connection(at=0))
        client = FabricClient(
            node.url,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
            injector=injector,
        )
        try:
            request = random_stimulus(compiled.graph, array_size=1, seed=3)
            assert_results_identical(
                Session(compiled).run(request), client.infer(request)
            )
            assert client.retries == 1
        finally:
            client.close()

    def test_sever_without_retry_raises_transport_error(self, node):
        injector = FaultInjector(FaultPlan().sever_connection(at=0))
        client = FabricClient(node.url, injector=injector)
        with pytest.raises(OSError):
            client.infer({"a": np.zeros(1, dtype=np.uint64)})
        client.close()


# ======================================================================
# Corrupt store blobs
# ======================================================================
class TestCorruptBlobRecovery:
    def test_retry_once_then_succeed(self, compiled):
        from repro.artifact import ExecutableArtifact

        artifact = ExecutableArtifact.from_program(compiled)
        with FabricNode() as peer:
            peer.store.put_bytes("blob", artifact.to_bytes())
            injector = FaultInjector(FaultPlan().corrupt_blob(at=0))
            remote = HTTPStoreBackend(peer.store_url, injector=injector)
            loaded = remote.get("blob")
            assert loaded is not None
            assert loaded.fingerprint == artifact.fingerprint
            assert remote.corrupt_fetches == 1
            remote.close()

    def test_persistent_corruption_quarantines_not_deletes(self, compiled):
        from repro.artifact import ExecutableArtifact

        artifact = ExecutableArtifact.from_program(compiled)
        with FabricNode() as peer:
            peer.store.put_bytes("blob", artifact.to_bytes())
            plan = FaultPlan().corrupt_blob(at=0).corrupt_blob(at=1)
            remote = HTTPStoreBackend(
                peer.store_url, injector=FaultInjector(plan)
            )
            assert remote.get("blob") is None
            assert remote.corrupt_fetches == 2
            # Quarantined locally: the next get misses fast, without
            # another download.
            reads_before = remote.stats.hits
            assert remote.get("blob") is None
            assert remote.stats.hits == reads_before
            # The peer's copy was NEVER deleted.
            assert peer.store.get_bytes("blob") is not None
            remote.close()

    def test_memory_backend_corruption_counts(self):
        injector = FaultInjector(
            FaultPlan().corrupt_blob(at=0).corrupt_blob(at=1)
        )
        store = MemoryStoreBackend(injector=injector)
        store.put_bytes("k", b"not-an-artifact")
        assert store.get("k") is None  # undecodable either way
        # Blob at rest intact (only the handed-back bytes were flipped).
        store2 = MemoryStoreBackend()
        store2.put_bytes("k", b"payload")
        assert store2.get_bytes("k") == b"payload"


# ======================================================================
# The chaos property: typed failure or bit-identical success
# ======================================================================
class TestChaosProperty:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_every_request_bit_identical_or_typed_failure(
        self, compiled_chaos, seed
    ):
        compiled, expected, requests = compiled_chaos
        plan = FaultPlan.seeded(
            seed,
            requests=len(requests),
            workers=2,
            crashes=1,
            drop_rate=0.1,
            severs=1,
        )
        injector = FaultInjector(plan)
        node = FabricNode(
            compiled,
            serving=ServeConfig(
                num_workers=2,
                max_wait_ms=0.5,
                default_deadline_ms=30_000.0,
                injector=injector,
            ),
        ).start()
        client = FabricClient(
            node.url,
            retry=RetryPolicy(max_attempts=4, backoff_s=0.001),
            breaker=CircuitBreaker(failure_threshold=8),
            injector=injector,
        )
        try:
            outcomes = []
            for want, request in zip(expected, requests):
                try:
                    got = client.infer(request)
                except (DeadlineExceeded, FabricRejected,
                        CircuitOpen) as exc:
                    outcomes.append(type(exc).__name__)
                else:
                    assert_results_identical(want, got)
                    outcomes.append("ok")
            # With bounded retries the plan's chaos is absorbable:
            # nothing may fail *untyped*, and most requests succeed.
            assert outcomes.count("ok") >= len(requests) - 2
        finally:
            client.close()
            node.stop()

    @pytest.fixture(scope="class")
    def compiled_chaos(self):
        g = random_dag(5, 40, 2, seed=3)
        compiled = compile_ffcl(g, SMALL).program
        session = Session(compiled)
        requests = _requests(compiled.graph, 10)
        expected = [session.run(r) for r in requests]
        return compiled, expected, requests
