"""Tests for the serving layer (:mod:`repro.serve`).

The load-bearing invariants:

* **bit-identity** — any interleaving of requests through the
  :class:`BatchScheduler` (and the full :class:`InferenceServer` stack)
  yields outputs AND statistics bit-identical to a direct
  :meth:`Session.run` of each request (property-tested),
* **bounded waiting** — a request never waits beyond the max-wait policy
  for a batch that does not fill,
* **cache correctness** — the :class:`ProgramCache` keys on workload
  *content* (structurally identical graphs hit) and distinguishes
  configs/engines/options, with LRU eviction,
* **sharding correctness** — every placement policy and worker backend
  preserves results exactly.
"""

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LPUConfig,
    compile_ffcl,
    clear_lowering_cache,
    lower_program,
    lowering_cache_stats,
)
from repro.engine import Session
from repro.lpu import evaluate_graph, random_stimulus
from repro.netlist import random_dag
from repro.serve import (
    BatchScheduler,
    InferenceServer,
    ProgramCache,
    ServeConfig,
    WorkerPool,
    graph_fingerprint,
    naive_serve,
    serve,
)
from repro.serve.scheduler import RELEASE_TRIGGERS, DeadlineExceeded

from gated import GatedTarget

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TINY = LPUConfig(num_lpvs=2, lpes_per_lpv=4)


@pytest.fixture(scope="module")
def compiled():
    g = random_dag(5, 40, 2, seed=3)
    return compile_ffcl(g, SMALL)


def _requests(graph, count, seed=0, max_words=3):
    return [
        random_stimulus(graph, array_size=1 + (seed + i) % max_words, seed=i)
        for i in range(count)
    ]


def assert_result_equal(served, direct):
    assert set(served.outputs) == set(direct.outputs)
    for name, word in direct.outputs.items():
        assert np.array_equal(served.outputs[name], word), name
        assert served.outputs[name].shape == word.shape, name
    assert served.macro_cycles == direct.macro_cycles
    assert served.clock_cycles == direct.clock_cycles
    assert (
        served.compute_instructions_executed
        == direct.compute_instructions_executed
    )
    assert served.switch_routes == direct.switch_routes
    assert served.peak_buffer_words == direct.peak_buffer_words
    assert served.buffer_writes == direct.buffer_writes


def test_serve_submodule_not_shadowed():
    """Regression: exporting the serve() function at the top level would
    shadow the `repro.serve` submodule attribute."""
    import importlib

    import repro

    module = importlib.import_module("repro.serve")
    assert repro.serve is module
    assert callable(repro.serve.serve)
    assert repro.serve.InferenceServer is InferenceServer


class TestGraphFingerprint:
    def test_content_identical_graphs_match(self):
        a = random_dag(5, 30, 2, seed=1)
        assert graph_fingerprint(a) == graph_fingerprint(a.copy())

    def test_different_structures_differ(self):
        a = random_dag(5, 30, 2, seed=1)
        b = random_dag(5, 30, 2, seed=2)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_renaming_output_changes_fingerprint(self):
        a = random_dag(5, 30, 2, seed=1)
        b = a.copy()
        name, nid = b.outputs[0]
        b._outputs[0] = (name + "_renamed", nid)
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestProgramCache:
    def test_hit_on_structurally_identical_graph(self):
        cache = ProgramCache()
        g = random_dag(5, 30, 2, seed=4)
        first = cache.get_or_compile(g, TINY)
        second = cache.get_or_compile(g.copy(), TINY)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_distinct_config_engine_options_miss(self):
        cache = ProgramCache()
        g = random_dag(5, 30, 2, seed=4)
        cache.get_or_compile(g, TINY)
        cache.get_or_compile(g, SMALL)
        cache.get_or_compile(g, TINY, engine="cycle")
        cache.get_or_compile(g, TINY, merge=False)
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        assert len(cache) == 4

    def test_lru_eviction(self):
        cache = ProgramCache(capacity=2)
        graphs = [random_dag(4, 20, 1, seed=s) for s in range(3)]
        cache.get_or_compile(graphs[0], TINY)
        cache.get_or_compile(graphs[1], TINY)
        cache.get_or_compile(graphs[0], TINY)  # refresh 0: 1 becomes LRU
        cache.get_or_compile(graphs[2], TINY)  # evicts 1
        assert cache.stats.evictions == 1
        cache.get_or_compile(graphs[0], TINY)
        assert cache.stats.hits == 2  # 0 survived the eviction
        cache.get_or_compile(graphs[1], TINY)
        assert cache.stats.misses == 4  # 1 was evicted

    def test_trace_entry_carries_lowering(self, compiled):
        cache = ProgramCache()
        entry = cache.get_or_compile(compiled.program)
        assert entry.trace is not None
        assert entry.trace.program is compiled.program
        assert entry.compile_result is None  # program source: no compile
        cycle_entry = cache.get_or_compile(compiled.program, engine="cycle")
        assert cycle_entry.trace is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ProgramCache(capacity=0)

    def test_distinct_programs_of_same_graph_never_collide(self):
        """Regression: two differently-compiled programs over one graph
        and config must not share a cache entry — a collision silently
        serves the wrong program."""
        cache = ProgramCache()
        g = random_dag(6, 50, 3, seed=9)
        merged = compile_ffcl(g, SMALL, merge=True).program
        unmerged = compile_ffcl(g, SMALL, merge=False).program
        assert merged.schedule.makespan != unmerged.schedule.makespan
        first = cache.get_or_compile(merged)
        second = cache.get_or_compile(unmerged)
        assert first.program is merged
        assert second.program is unmerged
        # Re-resolving the same program object still hits.
        assert cache.get_or_compile(merged) is first
        assert cache.stats.hits == 1

    def test_concurrent_misses_converge_to_one_entry(self):
        """get_or_compile must not hold the cache lock across compilation,
        and racing misses on one key must share the winning entry."""
        cache = ProgramCache()
        g = random_dag(5, 40, 2, seed=10)
        entries = []

        def resolve():
            entries.append(cache.get_or_compile(g, TINY))

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        assert len({id(e.program) for e in entries}) == 1


class TestLoweringCache:
    def test_same_program_shares_lowering(self, compiled):
        clear_lowering_cache()
        first = lower_program(compiled.program)
        second = lower_program(compiled.program)
        assert first is second
        stats = lowering_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] == 1

    def test_cache_false_forces_fresh(self, compiled):
        first = lower_program(compiled.program)
        fresh = lower_program(compiled.program, cache=False)
        assert fresh is not first

    def test_sessions_share_one_lowering(self, compiled):
        clear_lowering_cache()
        sessions = [
            Session(compiled.program, engine="trace") for _ in range(3)
        ]
        traces = {id(s.engine.trace) for s in sessions}
        assert len(traces) == 1
        assert lowering_cache_stats()["misses"] == 1

    def test_lowered_tables_frozen(self, compiled):
        trace = lower_program(compiled.program)
        level = trace.levels[0]
        with pytest.raises(ValueError):
            level.a_index[0] = 0


class TestBatchScheduler:
    def test_coalesces_to_one_run(self, compiled):
        session = Session(compiled.program)
        runs = []

        def dispatch(inputs):
            runs.append(inputs)
            return session.run(inputs)

        requests = _requests(compiled.program.graph, 6)
        with BatchScheduler(
            dispatch, max_batch_size=16, max_wait_ms=200.0
        ) as scheduler:
            futures = [scheduler.submit(r) for r in requests]
            results = [f.result(timeout=30) for f in futures]
        direct = [session.run(r) for r in requests]
        for served, ref in zip(results, direct):
            assert_result_equal(served, ref)
        # All six requests arrived well inside the 200ms window: they
        # must have shared engine runs (the first may dispatch alone).
        assert len(runs) < len(requests)
        assert scheduler.stats.requests == 6
        assert scheduler.stats.max_batch <= 16

    def test_max_batch_size_respected(self, compiled):
        session = Session(compiled.program)
        sizes = []

        def dispatch(inputs):
            sizes.append(next(iter(inputs.values())).size)
            return session.run(inputs)

        requests = [
            random_stimulus(compiled.program.graph, array_size=1, seed=i)
            for i in range(10)
        ]
        with BatchScheduler(
            dispatch, max_batch_size=3, max_wait_ms=100.0
        ) as scheduler:
            futures = [scheduler.submit(r) for r in requests]
            for f in futures:
                f.result(timeout=30)
        assert max(sizes) <= 3  # 1 word per request -> words == requests
        assert scheduler.stats.max_batch <= 3

    def test_partial_batch_dispatched_at_deadline(self, compiled):
        # The one slot is held busy, so the request queued behind it has
        # nothing to wait for but the max-wait deadline.
        session = Session(compiled.program)
        target = GatedTarget(session.run)
        scheduler = BatchScheduler(
            target, max_batch_size=64, max_wait_ms=100.0
        )
        try:
            stim = random_stimulus(compiled.program.graph, 1, seed=0)
            blocker = scheduler.submit(stim)
            target.wait_for(1)
            future = scheduler.submit(stim)
            # Dispatched by deadline, not blocked on the batch filling
            # or on the busy slot.
            target.wait_for(2)
            assert not blocker.done()
            (size, _words, waited) = scheduler.stats.recent[1]
            assert size == 1
            assert waited >= 0.1  # honored the coalescing window
            assert scheduler.stats.released["deadline"] == 1
            target.finish(1)
            target.finish(0)
            assert_result_equal(future.result(timeout=30), session.run(stim))
            assert_result_equal(blocker.result(timeout=30), session.run(stim))
        finally:
            scheduler.close()

    def test_zero_wait_dispatches_immediately(self, compiled):
        session = Session(compiled.program)
        with BatchScheduler(
            session.run, max_batch_size=64, max_wait_ms=0.0
        ) as scheduler:
            stim = random_stimulus(compiled.program.graph, 1, seed=0)
            start = time.monotonic()
            scheduler.submit(stim).result(timeout=30)
            assert time.monotonic() - start < 5

    def test_mismatched_pi_shapes_rejected(self, compiled):
        with BatchScheduler(lambda inputs: None) as scheduler:
            stim = random_stimulus(compiled.program.graph, 2, seed=0)
            first = next(iter(stim))
            stim[first] = np.zeros(3, dtype=np.uint64)
            with pytest.raises(ValueError, match="share one shape"):
                scheduler.submit(stim)

    def test_missing_pi_rejected_at_submit(self, compiled):
        graph = compiled.program.graph
        names = frozenset(graph.input_name(nid) for nid in graph.inputs)
        with BatchScheduler(lambda inputs: None, pi_names=names) as sched:
            with pytest.raises(KeyError, match="missing value"):
                sched.submit({})

    def test_extra_pi_rejected_at_submit(self, compiled):
        """Regression: an unknown input key must fail its submitter, not
        poison the batch it would have been coalesced into."""
        graph = compiled.program.graph
        names = frozenset(graph.input_name(nid) for nid in graph.inputs)
        with BatchScheduler(lambda inputs: None, pi_names=names) as sched:
            stim = random_stimulus(graph, 1, seed=0)
            stim["not_a_pi"] = np.zeros(1, dtype=np.uint64)
            with pytest.raises(KeyError, match="unknown primary inputs"):
                sched.submit(stim)

    def test_mismatched_request_fails_alone(self, compiled):
        """Without pi_names, a request whose input names differ from its
        batch head fails by itself; batch-mates still succeed."""
        session = Session(compiled.program)
        graph = compiled.program.graph
        good = random_stimulus(graph, 1, seed=0)
        bad = dict(good)
        bad["not_a_pi"] = np.zeros(1, dtype=np.uint64)
        with BatchScheduler(
            session.run, max_batch_size=4, max_wait_ms=200.0
        ) as scheduler:
            futures = [
                scheduler.submit(good),
                scheduler.submit(bad),
                scheduler.submit(good),
            ]
            assert_result_equal(
                futures[0].result(timeout=30), session.run(good)
            )
            assert_result_equal(
                futures[2].result(timeout=30), session.run(good)
            )
            with pytest.raises(KeyError, match="do not match its batch"):
                futures[1].result(timeout=30)

    def test_dispatch_error_fans_out(self, compiled):
        def dispatch(inputs):
            raise RuntimeError("engine exploded")

        with BatchScheduler(dispatch, max_wait_ms=0.0) as scheduler:
            stim = random_stimulus(compiled.program.graph, 1, seed=0)
            futures = [scheduler.submit(stim) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    future.result(timeout=30)

    def test_submit_after_close_rejected(self, compiled):
        scheduler = BatchScheduler(lambda inputs: None)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(
                random_stimulus(compiled.program.graph, 1, seed=0)
            )

    def test_close_drains_queued_requests(self, compiled):
        session = Session(compiled.program)
        scheduler = BatchScheduler(
            session.run, max_batch_size=4, max_wait_ms=5000.0
        )
        futures = [
            scheduler.submit(r)
            for r in _requests(compiled.program.graph, 6)
        ]
        scheduler.close()  # drain must beat the 5s deadline
        for future in futures:
            assert future.result(timeout=1) is not None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(lambda inputs: None, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchScheduler(lambda inputs: None, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            BatchScheduler(lambda inputs: None, slots=0)


class TestWorkConservingPolicy:
    """A request waits for batch-mates only while every slot is busy.

    Deterministic: the downstream is a :class:`GatedTarget`, so "busy"
    is a future the test holds, never a sleep.  ``max_wait_ms`` is 10 s
    throughout — a batch that leaves the queue did not leave by
    deadline.
    """

    def _stim(self, compiled, seed=0):
        return random_stimulus(compiled.program.graph, 1, seed=seed)

    def test_lone_request_on_idle_target_dispatches_at_once(self, compiled):
        session = Session(compiled.program)
        with BatchScheduler(
            session.run, max_batch_size=64, max_wait_ms=10_000.0
        ) as scheduler:
            stim = self._stim(compiled)
            result = scheduler.submit(stim).result(timeout=5)
            assert_result_equal(result, session.run(stim))
            (size, _words, waited) = scheduler.stats.recent[0]
            assert size == 1
            assert waited < 1.0  # of a 10 s window
            stats = scheduler.stats.as_dict()
            assert stats["released"] == {
                "full": 0, "slot_free": 1, "deadline": 0, "closing": 0,
            }
            assert stats["in_flight"] == 0

    def test_busy_slot_coalesces_until_the_completion(self, compiled):
        session = Session(compiled.program)
        target = GatedTarget(session.run)
        stims = [self._stim(compiled, seed) for seed in range(6)]
        with BatchScheduler(
            target, max_batch_size=64, max_wait_ms=10_000.0
        ) as scheduler:
            futures = [scheduler.submit(stims[0])]
            target.wait_for(1)
            assert scheduler.stats.in_flight == 1
            futures += [scheduler.submit(stim) for stim in stims[1:]]
            # The completion, not the deadline, releases all five as one
            # batch.
            target.finish(0)
            target.wait_for(2)
            assert target.words(1) == 5
            target.finish(1)
            for future, stim in zip(futures, stims):
                assert_result_equal(
                    future.result(timeout=30), session.run(stim)
                )
            assert scheduler.stats.released["slot_free"] == 2
            assert scheduler.stats.released["deadline"] == 0
            assert scheduler.stats.max_wait_s < 5.0
            assert scheduler.stats.in_flight == 0

    def test_two_slots_fly_two_batches_and_hold_the_third(self, compiled):
        session = Session(compiled.program)
        target = GatedTarget(session.run)
        stims = [self._stim(compiled, seed) for seed in range(5)]
        with BatchScheduler(
            target, max_batch_size=64, max_wait_ms=10_000.0, slots=2
        ) as scheduler:
            futures = [scheduler.submit(stims[0])]
            target.wait_for(1)
            futures.append(scheduler.submit(stims[1]))
            target.wait_for(2)  # second slot: no waiting either
            assert scheduler.stats.in_flight == 2
            futures += [scheduler.submit(stim) for stim in stims[2:]]
            target.finish(1)  # any completion frees a slot
            target.wait_for(3)
            assert target.words(2) == 3  # held together until then
            assert scheduler.stats.in_flight == 2
            target.finish(0)
            target.finish(2)
            for future, stim in zip(futures, stims):
                assert_result_equal(
                    future.result(timeout=30), session.run(stim)
                )
            assert scheduler.stats.released["slot_free"] == 3
            assert scheduler.stats.in_flight == 0

    def test_full_batch_goes_even_with_every_slot_busy(self, compiled):
        session = Session(compiled.program)
        target = GatedTarget(session.run)
        with BatchScheduler(
            target, max_batch_size=3, max_wait_ms=10_000.0
        ) as scheduler:
            futures = [scheduler.submit(self._stim(compiled))]
            target.wait_for(1)
            futures += [
                scheduler.submit(self._stim(compiled)) for _ in range(3)
            ]
            target.wait_for(2)  # saturated regime: full still releases
            assert target.words(1) == 3
            assert scheduler.stats.released["full"] == 1
            assert scheduler.stats.in_flight == 2
            target.finish(0)
            target.finish(1)
            for future in futures:
                future.result(timeout=30)
            assert scheduler.stats.in_flight == 0

    def test_slot_released_when_dispatch_raises(self, compiled):
        def dispatch(inputs):
            raise RuntimeError("engine exploded")

        with BatchScheduler(dispatch, max_wait_ms=10_000.0) as scheduler:
            for _ in range(3):
                future = scheduler.submit(self._stim(compiled))
                with pytest.raises(RuntimeError, match="engine exploded"):
                    future.result(timeout=30)
                assert scheduler.stats.in_flight == 0
            # A leaked slot would have held the later ones to the deadline.
            assert scheduler.stats.released["slot_free"] == 3

    def test_slot_released_when_batch_future_fails(self, compiled):
        session = Session(compiled.program)
        target = GatedTarget(session.run)
        with BatchScheduler(target, max_wait_ms=10_000.0) as scheduler:
            doomed = scheduler.submit(self._stim(compiled))
            target.wait_for(1)
            target.fail(0, RuntimeError("worker exploded"))
            with pytest.raises(RuntimeError, match="worker exploded"):
                doomed.result(timeout=30)
            assert scheduler.stats.in_flight == 0
            survivor = scheduler.submit(self._stim(compiled))
            target.wait_for(2)
            target.finish(1)
            survivor.result(timeout=30)
            assert scheduler.stats.released["slot_free"] == 2
            assert scheduler.stats.in_flight == 0

    def test_slots_released_after_close_without_drain(self, compiled):
        session = Session(compiled.program)
        target = GatedTarget(session.run)
        scheduler = BatchScheduler(
            target, max_batch_size=8, max_wait_ms=10_000.0
        )
        futures = [scheduler.submit(self._stim(compiled))]
        target.wait_for(1)
        futures += [scheduler.submit(self._stim(compiled)) for _ in range(3)]
        scheduler.close(drain=False)
        # Whatever the collector already held left as a "closing" batch,
        # the rest was cancelled; every dispatched batch owns one slot.
        assert scheduler.stats.in_flight == len(target.unresolved())
        for index in target.unresolved():
            target.finish(index)
        assert scheduler.stats.in_flight == 0
        for future in futures:
            assert future.cancelled() or future.result(timeout=30)
        assert scheduler.stats.released["deadline"] == 0

    def test_slot_count_survives_a_thread_stress(self, compiled):
        """More workers and submitters than cores under a tiny switch
        interval: a lost update on ``in_flight`` (taken on the scheduler
        thread, released on worker threads) would leave it off zero."""
        session = Session(compiled.program)
        stim = self._stim(compiled)
        expected = session.run(stim)

        def client(_):
            for _ in range(50):
                assert_result_equal(
                    scheduler.submit(stim).result(timeout=60), expected
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(compiled.program, num_workers=4) as pool:
                with BatchScheduler(
                    pool.submit, max_batch_size=4, max_wait_ms=1.0, slots=4
                ) as scheduler:
                    with ThreadPoolExecutor(8) as executor:
                        list(executor.map(client, range(8)))
                    assert scheduler.stats.in_flight == 0
        finally:
            sys.setswitchinterval(interval)
        stats = scheduler.stats
        assert stats.requests == 8 * 50
        assert sum(stats.released.values()) == stats.batches

    def test_stats_report_is_additive(self, compiled):
        session = Session(compiled.program)
        with BatchScheduler(session.run) as scheduler:
            scheduler.submit(self._stim(compiled)).result(timeout=30)
            report = scheduler.stats.as_dict()
        assert set(report["released"]) == set(RELEASE_TRIGGERS)
        assert sum(report["released"].values()) == report["batches"] == 1
        assert {
            "requests", "expired", "batches", "mean_batch", "max_batch",
            "max_wait_ms", "mean_wait_ms", "wait_p50_ms", "wait_p99_ms",
            "wait_histogram_ms", "in_flight", "released",
        } == set(report)


#: Module-cached program for the hypothesis properties (fixtures don't
#: mix with @given; lowering is shared through the lowering cache).
_PROPERTY_CACHE = {}


def _property_program():
    if "program" not in _PROPERTY_CACHE:
        g = random_dag(5, 40, 2, seed=3)
        _PROPERTY_CACHE["program"] = compile_ffcl(g, SMALL).program
    return _PROPERTY_CACHE["program"]


@settings(max_examples=15, deadline=None)
@given(
    count=st.integers(1, 10),
    max_batch=st.integers(1, 8),
    max_wait_ms=st.sampled_from([0.0, 1.0, 20.0]),
    seed=st.integers(0, 100),
)
def test_property_scheduler_bit_identical(count, max_batch, max_wait_ms, seed):
    """ANY interleaving of requests through the scheduler — any request
    count, batch bound, and wait policy — is bit-identical to direct
    per-request Session.run, statistics included, in request order."""
    program = _property_program()
    session = Session(program)
    requests = _requests(program.graph, count, seed=seed)
    with BatchScheduler(
        session.run, max_batch_size=max_batch, max_wait_ms=max_wait_ms
    ) as scheduler:
        futures = [scheduler.submit(r) for r in requests]
        results = [f.result(timeout=60) for f in futures]
    direct = Session(program)
    for served, request in zip(results, requests):
        assert_result_equal(served, direct.run(request))
    for size, _words, waited in scheduler.stats.recent:
        assert size <= max_batch
        if size < max_batch:
            # A non-full batch must have been released by the deadline
            # (generous slack: CI schedulers can stall threads).
            assert waited <= max_wait_ms / 1e3 + 10.0


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(1, 12),
    max_batch=st.integers(1, 6),
    max_wait_ms=st.sampled_from([0.0, 1.0, 20.0]),
    slots=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_property_work_conserving_scheduler(
    count, max_batch, max_wait_ms, slots, seed
):
    """Any request count, batch bound, wait policy and slot count, with
    batches completing in ANY order: every result is bit-identical to a
    direct run, no batch is oversized, no request outwaits the policy,
    and the slot count never goes negative or leaks."""
    program = _property_program()
    session = Session(program)
    requests = _requests(program.graph, count, seed=seed)
    target = GatedTarget(session.run)
    order = random.Random(seed)
    with BatchScheduler(
        target,
        max_batch_size=max_batch,
        max_wait_ms=max_wait_ms,
        slots=slots,
    ) as scheduler:
        futures = [scheduler.submit(r) for r in requests]
        resolved = 0
        while not all(f.done() for f in futures):
            # Some batch is always outstanding or about to be: with
            # every dispatched batch resolved, all slots are free.
            target.wait_for(resolved + 1)
            in_flight = scheduler.stats.in_flight
            # (+1: the slot is taken just before the target is called)
            assert 0 <= in_flight <= len(target.batches) - resolved + 1
            target.finish(order.choice(target.unresolved()))
            resolved += 1
        results = [f.result(timeout=60) for f in futures]
    direct = Session(program)
    for served, request in zip(results, requests):
        assert_result_equal(served, direct.run(request))
    stats = scheduler.stats
    assert stats.in_flight == 0
    assert stats.requests == count
    assert sum(stats.released.values()) == stats.batches == resolved
    for size, _words, _waited in stats.recent:
        assert size <= max_batch
    # Dispatched within the policy's bound (generous slack: CI
    # schedulers can stall threads).
    assert max(stats.recent_waits_ms) <= max_wait_ms + 10_000.0


class TestWorkerPool:
    def test_round_robin_spreads_batches(self, compiled):
        with WorkerPool(
            compiled.program, num_workers=3, placement="round_robin"
        ) as pool:
            stim = random_stimulus(compiled.program.graph, 1, seed=0)
            futures = [pool.submit(stim) for _ in range(9)]
            for future in futures:
                future.result(timeout=30)
            assert pool.stats()["dispatched"] == [3, 3, 3]

    def test_least_loaded_prefers_idle_workers(self, compiled):
        with WorkerPool(
            compiled.program, num_workers=2, placement="least_loaded"
        ) as pool:
            stim = random_stimulus(compiled.program.graph, 1, seed=0)
            futures = [pool.submit(stim) for _ in range(8)]
            for future in futures:
                future.result(timeout=30)
            dispatched = pool.stats()["dispatched"]
            assert sum(dispatched) == 8
            assert all(count > 0 for count in dispatched)
            assert pool.stats()["pending_words"] == [0, 0]

    def test_results_bit_identical(self, compiled):
        session = Session(compiled.program)
        requests = _requests(compiled.program.graph, 6)
        with WorkerPool(compiled.program, num_workers=2) as pool:
            results = [pool.run(r) for r in requests]
        for served, request in zip(results, requests):
            assert_result_equal(served, session.run(request))

    def test_worker_error_propagates(self, compiled):
        with WorkerPool(compiled.program, num_workers=1) as pool:
            future = pool.submit({})
            with pytest.raises(KeyError):
                future.result(timeout=30)

    def test_submit_after_close_rejected(self, compiled):
        pool = WorkerPool(compiled.program, num_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(random_stimulus(compiled.program.graph, 1, seed=0))

    def test_validation(self, compiled):
        with pytest.raises(ValueError, match="num_workers"):
            WorkerPool(compiled.program, num_workers=0)
        with pytest.raises(ValueError, match="placement"):
            WorkerPool(compiled.program, placement="warp")
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(compiled.program, backend="gpu")

    def test_workers_share_one_lowering(self, compiled):
        clear_lowering_cache()
        with WorkerPool(compiled.program, num_workers=4):
            assert lowering_cache_stats()["misses"] == 1

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="process backend needs fork",
    )
    def test_process_backend_bit_identical(self, compiled):
        session = Session(compiled.program)
        requests = _requests(compiled.program.graph, 4)
        with WorkerPool(
            compiled.program, num_workers=2, backend="process"
        ) as pool:
            results = [pool.submit(r) for r in requests]
            for served, request in zip(results, requests):
                assert_result_equal(
                    served.result(timeout=120), session.run(request)
                )


class TestInferenceServer:
    @pytest.mark.parametrize("placement", ["round_robin", "least_loaded"])
    def test_end_to_end_bit_identical_in_order(self, compiled, placement):
        requests = _requests(compiled.program.graph, 24)
        direct = naive_serve(compiled.program, requests)
        served = serve(
            compiled.program,
            requests,
            serving=ServeConfig(
                num_workers=2, max_batch_size=6, max_wait_ms=5.0,
                placement=placement,
            ),
        )
        assert len(served) == len(direct)
        for got, ref in zip(served, direct):
            assert_result_equal(got, ref)

    def test_concurrent_clients(self, compiled):
        requests = _requests(compiled.program.graph, 32)
        session = Session(compiled.program)
        with InferenceServer(
            compiled.program,
            serving=ServeConfig(num_workers=2, max_batch_size=8),
        ) as server:
            with ThreadPoolExecutor(8) as executor:
                results = list(executor.map(server.infer, requests))
        for got, request in zip(results, requests):
            assert_result_equal(got, session.run(request))

    def test_stats_shape(self, compiled):
        with InferenceServer(compiled.program) as server:
            server.infer(random_stimulus(compiled.program.graph, 1, seed=0))
            stats = server.stats()
        assert set(stats) == {"cache", "scheduler", "pool"}
        assert stats["scheduler"]["requests"] == 1
        assert stats["pool"]["num_workers"] == 1

    def test_compiles_from_graph_through_cache(self):
        g = random_dag(5, 30, 2, seed=8)
        cache = ProgramCache()
        serving = ServeConfig(cache=cache)
        with InferenceServer(g, TINY, serving=serving) as server:
            result = server.infer(random_stimulus(g, 2, seed=0))
        reference = evaluate_graph(g, random_stimulus(g, 2, seed=0))
        for name, word in reference.items():
            assert np.array_equal(result.outputs[name], word)
        assert cache.stats.misses == 1
        # A second server over the same workload hits the cache.
        with InferenceServer(g.copy(), TINY, serving=serving):
            pass
        assert cache.stats.hits >= 1

    def test_close_is_idempotent(self, compiled):
        server = InferenceServer(compiled.program)
        server.close()
        server.close()


class TestRequestDeadlines:
    """Deadline-expiry boundaries at the scheduler surface (the full
    fault-tolerance matrix lives in test_faults.py)."""

    def test_deadline_on_the_boundary_of_the_wait(self, compiled):
        # A request only queues behind a busy slot, so both halves hold
        # the one slot with an unresolved batch first.
        session = Session(compiled.program)
        request = _requests(compiled.program.graph, 1)[0]
        # deadline > fill-wait: the batch dispatches at max_wait and
        # the request completes well inside its budget.
        target = GatedTarget(session.run)
        with BatchScheduler(
            target, max_batch_size=8, max_wait_ms=5.0
        ) as scheduler:
            blocker = scheduler.submit(request)
            target.wait_for(1)
            future = scheduler.submit(request, deadline_ms=5_000.0)
            target.wait_for(2)
            assert scheduler.stats.released["deadline"] == 1
            target.finish(1)
            assert_result_equal(
                future.result(timeout=30), session.run(request)
            )
            target.finish(0)
            blocker.result(timeout=30)
            assert scheduler.stats.expired == 0
        # deadline < fill-wait: shed typed within ~one scheduler tick,
        # nowhere near the 10-second fill window.
        target = GatedTarget(session.run)
        with BatchScheduler(
            target, max_batch_size=8, max_wait_ms=10_000.0
        ) as scheduler:
            blocker = scheduler.submit(request)
            target.wait_for(1)
            started = time.monotonic()
            doomed = scheduler.submit(request, deadline_ms=20.0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                doomed.result(timeout=30)
            assert excinfo.value.deadline_ms == 20.0
            assert excinfo.value.waited_ms >= 19.0
            assert (time.monotonic() - started) < 5.0
            assert scheduler.stats.as_dict()["expired"] == 1
            assert len(target.batches) == 1  # never dispatched
            target.finish(0)
            blocker.result(timeout=30)

    def test_zero_or_negative_deadline_rejected(self, compiled):
        with InferenceServer(compiled.program) as server:
            request = _requests(compiled.program.graph, 1)[0]
            for bad in (0.0, -3.5):
                with pytest.raises(ValueError, match="deadline"):
                    server.submit(request, deadline_ms=bad)

    def test_default_deadline_from_config(self, compiled):
        with InferenceServer(
            compiled.program,
            serving=ServeConfig(default_deadline_ms=60_000.0),
        ) as server:
            assert server.effective_deadline_ms() == 60_000.0
            assert server.effective_deadline_ms(100.0) == 100.0
