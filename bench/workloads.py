"""The six workloads.  Each one draws its inputs from ``--seed``, boots
its slice of the stack from generated programs, warms it, drives it for
a window and keeps results for the oracle; with a
:class:`~measure.Tracer` the same loop records a span around every call
into a layer's public function.

Only public surfaces of ``repro`` are touched: constructors, ``run`` /
``infer`` / ``submit``, ``stats()``, ``pass_records``, ``last_latency``.
"""

from __future__ import annotations

import collections
import time
from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.artifact import ExecutableArtifact
from repro.core import build_fanout, fuse_trace, lower_program
from repro.engine import Session
from repro.serve import (
    InferenceServer,
    ProgramCache,
    ServeConfig,
    StreamingServer,
    make_stream,
)
from repro.serve.fabric import (
    FabricClient,
    FabricNode,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

import corpus
import probes
from corpus import WORD, same_result
from measure import (
    Lane, NullTracer, median, median_seconds, now, percentile, run_threads,
)

UNTRACED = NullTracer()


def package(graph, **sections):
    """Cold compile to artifact bytes; returns (compile result, bytes)."""
    result = corpus.compile_cold(graph)
    return result, result.to_artifact(**sections).to_bytes()


class Workload:
    """Interface the runner drives; one instance per process.

    ``prepare`` draws the inputs once.  ``boot`` may run several times
    (set-up is timed as the median boot + warm-up); it returns a state
    namespace holding at least ``lanes`` (the first one collects warm-up
    results) and ``sizes`` (``{program: (artifact bytes, macro-cycles)}``),
    and appends one sample to ``self.cold``: artifact bytes to first
    result through this workload's stack, in ms."""

    name = ""
    slugs: Tuple[str, ...] = ()
    window_s = 10.0  # window when no --seconds is given
    align = 1  # samples per round: segments hold whole rounds
    open_loop = False  # paced by a schedule, not by the replies
    cycle_check = False  # compare one served result with the cycle engine
    cold_extra = 0  # cold starts sampled per run beyond the one per boot

    def __init__(self) -> None:
        self.cold: List[float] = []

    def prepare(self, ctx) -> None:
        raise NotImplementedError

    def boot(self, ctx) -> SimpleNamespace:
        raise NotImplementedError

    def warm(self, ctx, state) -> None:
        raise NotImplementedError

    def cold_start(self, ctx, state) -> None:
        """One more cold start from ``state``'s artifact bytes, torn down
        again; its first result is kept for the oracle."""
        raise NotImplementedError

    def run(self, ctx, state, seconds: float, tracer) -> Tuple[List[Lane], float]:
        """Drive the window; returns its lanes and its start time."""
        raise NotImplementedError

    def layer_metrics(self, ctx, state, tracer) -> Dict[str, float]:
        """Per-layer numbers this workload's traced window measured."""
        return {}

    def coldstart(self, state) -> Tuple[float, List[float]]:
        """(``coldstart_ms``, the samples it is the median of)."""
        return median(self.cold), self.cold

    def end_to_end(self, state) -> Dict[str, float]:
        return {
            "artifact_bytes": sum(size for size, _ in state.sizes.values()),
            "lpu_macro_cycles": sum(cycles for _, cycles in state.sizes.values()),
        }

    def verify(self, ctx, state) -> int:
        """Oracle check of everything kept; returns the number wrong."""
        by_slug = collections.defaultdict(list)
        for lane in state.lanes:
            for slug, inputs, result in lane.kept:
                by_slug[slug].append((inputs, result))
        wrong = sum(
            corpus.count_wrong(ctx.graphs[slug], kept)
            for slug, kept in by_slug.items()
        )
        if self.cycle_check:
            _, inputs, served = state.lanes[0].kept[0]
            with_cycle = Session(state.artifact, engine="cycle").run(inputs)
            wrong += 0 if same_result(served, with_cycle) else 1
        return wrong

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
class CompileCold(Workload):
    name = "compile_cold"
    slugs = corpus.SLUGS
    window_s = 15.0
    align = len(corpus.SLUGS)

    def prepare(self, ctx) -> None:
        self.stimuli = {
            slug: corpus.stimuli(graph, 1, 1, ctx.seed)[0]
            for slug, graph in ctx.graphs.items()
        }

    def boot(self, ctx):
        return SimpleNamespace(
            lanes=[Lane()], coldstart={}, sizes={}, rounds=[], counts={})

    def warm(self, ctx, state) -> None:
        self._round(ctx, state, state.lanes[0], UNTRACED, warm=True)

    def run(self, ctx, state, seconds, tracer):
        lane = Lane()
        state.lanes.append(lane)
        state.coldstart.clear()
        state.rounds.clear()
        start = now()
        rounds = 0
        # Whole rounds only (a round is ~1 s, so a last one that would
        # overrun is not started), one per segment unless smoke-sized.
        least = 3 if seconds >= 3 else 1
        while True:
            began = now()
            self._round(ctx, state, lane, tracer)
            rounds += 1
            if rounds >= least and 2 * now() - began - start > seconds:
                break
        return [lane], start

    def _round(self, ctx, state, lane, tracer, warm=False) -> None:
        sums = collections.defaultdict(float)
        for slug, graph in ctx.graphs.items():
            stim = self.stimuli[slug]
            op = lane.attempted
            lane.attempted += 1
            try:
                start = now()
                with tracer.span("compile_cold.package", op):
                    with tracer.span("compiler.compile_ffcl", op):
                        result = corpus.compile_cold(graph)
                    if tracer.enabled:
                        # to_artifact() lowers and fuses through the same
                        # caches, so these spans time work it then skips.
                        with tracer.span("core.trace.lower_program", op):
                            trace = lower_program(result.program)
                        with tracer.span("core.liveness.fuse_trace", op):
                            fused = fuse_trace(trace)
                    with tracer.span("artifact.to_artifact", op):
                        data = result.to_artifact().to_bytes()
                packaged = now()
                with tracer.span("compile_cold.coldstart", op):
                    with tracer.span("artifact.from_bytes", op):
                        cold = ExecutableArtifact.from_bytes(data)
                    with tracer.span("engine.session.init", op):
                        session = Session(cold)
                    with tracer.span("engine.session.first_run", op):
                        first = session.run(stim)
                done = now()
            except Exception as exc:  # counted and reported; the run goes on
                lane.fail(exc)
                continue
            lane.keep(slug, stim, first, always=warm)
            if warm:
                continue
            lane.samples.append((done, packaged - start))
            state.coldstart.setdefault(slug, []).append((done - packaged) * 1e3)
            state.sizes[slug] = (len(data), result.schedule.makespan)
            if tracer.enabled:
                with tracer.span("artifact.to_bytes", op):
                    cold.to_bytes()
                for record in result.pass_records:
                    sums[f"compiler.pass.{record.name}.ms"] += record.seconds * 1e3
                    sums["compiler.total_ms"] += record.seconds * 1e3
                metrics = result.metrics
                state.counts[slug] = {
                    "compiler.ir.gates_balanced": metrics.gates_balanced,
                    "core.partition.mfgs": metrics.mfgs_before_merge,
                    "core.merge.mfgs": metrics.mfgs_after_merge,
                    "core.codegen.instructions": metrics.compute_instructions,
                    "core.schedule.makespan": result.schedule.makespan,
                    "core.liveness.registers": fused.num_regs,
                }
        if sums:
            state.rounds.append(dict(sums))

    def coldstart(self, state):
        """Summed over the corpus, each program's median over the rounds;
        the samples are the per-round sums."""
        total = sum(median(times) for times in state.coldstart.values())
        return total, [sum(r) for r in zip(*state.coldstart.values())]

    def layer_metrics(self, ctx, state, tracer):
        out = {
            name: median(r[name] for r in state.rounds)
            for name in state.rounds[0]
        }
        for span, metric in (
            ("core.trace.lower_program", "core.trace.lower_ms"),
            ("core.liveness.fuse_trace", "core.liveness.fuse_ms"),
            ("artifact.to_bytes", "artifact.encode_ms"),
            ("artifact.from_bytes", "artifact.decode_ms"),
            ("engine.session.init", "engine.session.init_ms"),
            ("engine.session.first_run", "engine.first_run_ms"),
        ):
            # summed over the corpus = mean span * programs per round
            durations = tracer.durations_ms(span)
            out[metric] = sum(durations) * len(ctx.graphs) / len(durations)
        for name in next(iter(state.counts.values())):
            out[name] = sum(counts[name] for counts in state.counts.values())
        out["artifact.bytes_max_program"] = max(s for s, _ in state.sizes.values())
        return out


# ----------------------------------------------------------------------
class KernelBatch(Workload):
    name = "kernel_batch"
    slugs = corpus.SLUGS
    window_s = 12.0
    cold_extra = 4
    WORDS = 1024
    WARM_ROUNDS = 2

    def prepare(self, ctx) -> None:
        self.probes = {
            slug: corpus.stimuli(graph, 1, 1, ctx.seed)[0]
            for slug, graph in ctx.graphs.items()
        }
        self.stimuli = {
            slug: corpus.stimuli(graph, self.WORDS, 2, ctx.seed)
            for slug, graph in ctx.graphs.items()
        }

    def boot(self, ctx):
        state = SimpleNamespace(
            lanes=[Lane()], data={}, sizes={}, instructions={})
        for slug, graph in ctx.graphs.items():
            result, state.data[slug] = package(graph)
            state.sizes[slug] = (len(state.data[slug]), result.schedule.makespan)
            state.instructions[slug] = result.program.num_compute_instructions
        state.sessions = self._sessions(state)
        return state

    def _sessions(self, state) -> Dict[str, Session]:
        """Cold start of the whole corpus: bytes -> session -> first run."""
        sessions = {}
        elapsed = 0.0
        for slug, data in state.data.items():
            probe = self.probes[slug]
            start = now()
            sessions[slug] = Session(ExecutableArtifact.from_bytes(data))
            first = sessions[slug].run(probe)
            elapsed += now() - start
            state.lanes[0].keep(slug, probe, first, always=True)
        self.cold.append(elapsed * 1e3)
        return sessions

    def cold_start(self, ctx, state) -> None:
        self._sessions(state)

    def warm(self, ctx, state) -> None:
        lane = state.lanes[0]
        for index in range(self.WARM_ROUNDS):
            for slug, session in state.sessions.items():
                stim = self.stimuli[slug][index % 2]
                lane.attempted += 1
                lane.keep(slug, stim, session.run(stim), always=True)

    def run(self, ctx, state, seconds, tracer):
        """One sample is one sweep of the nine programs: the median single
        run is a light program's, whose time moves 7 % from process to
        process with where its arrays landed."""
        lane = Lane()
        state.lanes.append(lane)
        sessions = list(state.sessions.items())
        start = now()
        rounds = 0
        while now() - start < seconds:
            began = now()
            for slug, session in sessions:
                stim = self.stimuli[slug][rounds % 2]
                op = lane.attempted
                lane.attempted += 1
                try:
                    with tracer.span(f"engine.session.run.{slug}", op):
                        result = session.run(stim)
                except Exception as exc:
                    lane.fail(exc)
                    continue
                lane.keep(slug, stim, result)
            done = now()
            lane.samples.append((done, done - began))
            rounds += 1
        return [lane], start

    def layer_metrics(self, ctx, state, tracer):
        out = {}
        seconds = {}
        for slug in state.sessions:
            seconds[slug] = median(
                tracer.durations_ms(f"engine.session.run.{slug}")) / 1e3
            out[f"engine.fused.msamples_per_s.{slug}"] = (
                self.WORDS * WORD / seconds[slug] / 1e6)
        total = sum(seconds.values())
        gate_words = self.WORDS * sum(state.instructions.values())
        out["engine.fused.gate_evals_per_s"] = gate_words * WORD / total
        # computed, not measured: two operand reads and one result write
        # of 8 B per instruction per word
        out["engine.fused.bytes_per_s"] = 3 * 8 * gate_words / total
        out.update(state.lanes[0].probed(
            probes.engine(ctx, state.sessions, self.stimuli)))
        return out


# ----------------------------------------------------------------------
class _Serving(Workload):
    """Shared by the four workloads that serve one program: ``_start``
    brings the stack up from artifact bytes and returns it with its first
    input and result; ``_stop`` tears a stack down."""

    cycle_check = True
    LANES = 2
    WARM_OPS = 100
    STIMULI = 256
    SECTIONS: Dict[str, bool] = {}  # optional artifact sections to embed

    def _start(self, data):
        raise NotImplementedError

    def _stop(self, stack) -> None:
        raise NotImplementedError

    def _cold_start(self, data):
        start = now()
        started = self._start(data)
        self.cold.append((now() - start) * 1e3)
        return started

    def boot(self, ctx):
        slug = self.slugs[0]
        result, data = package(ctx.graphs[slug], **self.SECTIONS)
        stack, inputs, first = self._cold_start(data)
        state = SimpleNamespace(
            lanes=[Lane() for _ in range(self.LANES)],
            data=data,
            stack=stack,
            artifact=stack.artifact,
            sizes={slug: (len(data), result.schedule.makespan)},
        )
        state.lanes[0].keep(slug, inputs, first, always=True)
        return state

    def cold_start(self, ctx, state) -> None:
        stack, inputs, first = self._cold_start(state.data)
        self._stop(stack)
        state.lanes[0].keep(self.slugs[0], inputs, first, always=True)

    def close(self, state) -> None:
        self._stop(state.stack)


class _OneWord(_Serving):
    """fabric_open and serve_burst: 1-word requests on the serving program."""

    slugs = (corpus.SERVING_PROGRAM,)
    cold_extra = 6

    def prepare(self, ctx) -> None:
        self.stimuli = corpus.stimuli(
            ctx.graphs[self.slugs[0]], 1, self.STIMULI, ctx.seed)


def _serving_layer_metrics(server_stats) -> Dict[str, float]:
    scheduler, pool, cache = (
        server_stats["scheduler"], server_stats["pool"], server_stats["cache"],
    )
    return {
        "serve.scheduler.wait_p50_ms": scheduler["wait_p50_ms"],
        "serve.scheduler.mean_batch": scheduler["mean_batch"],
        "serve.scheduler.batches": scheduler["batches"],
        "serve.scheduler.expired": scheduler["expired"],
        "serve.pool.dispatched": sum(pool["dispatched"]),
        "serve.pool.restarts": pool["total_restarts"],
        "serve.cache.hits": cache["hits"],
        "serve.cache.misses": cache["misses"],
    }


class FabricOpen(_OneWord):
    name = "fabric_open"
    window_s = 8.0
    open_loop = True
    RATE = 200  # reference rate, req/s over both lanes
    RAMP = (400, 600, 800, 1200, 1600)
    LIMIT_P90_MS = 10.0
    LATE_ABORT_S = 0.25

    def _start(self, data):
        artifact = ExecutableArtifact.from_bytes(data)
        # a cache of its own: the process-wide default would turn every
        # boot after the first into a warm one
        node = FabricNode(artifact, serving=ServeConfig(cache=ProgramCache()))
        stack = SimpleNamespace(artifact=artifact, node=node, clients=[])
        try:
            node.start()
            stack.clients = [FabricClient(node.url) for _ in range(self.LANES)]
            return stack, self.stimuli[0], stack.clients[0].infer(self.stimuli[0])
        except BaseException:
            self._stop(stack)
            raise

    def _stop(self, stack) -> None:
        for client in stack.clients:
            client.close()
        stack.node.stop()

    def warm(self, ctx, state) -> None:
        for index in range(self.WARM_OPS):
            lane = state.lanes[index % self.LANES]
            stim = self.stimuli[index % self.STIMULI]
            lane.attempted += 1
            try:
                result = state.stack.clients[index % self.LANES].infer(stim)
            except Exception as exc:
                lane.fail(exc)
                continue
            lane.keep(self.slugs[0], stim, result, always=True)

    def run(self, ctx, state, seconds, tracer):
        if tracer.enabled:
            state.session = Session(state.artifact)
        state.window_s = seconds
        lanes, start = self._phase(state, self.RATE, seconds, tracer)
        state.lanes.extend(lanes)
        return lanes, start

    def _phase(self, state, rate, seconds, tracer):
        """One open-loop phase at ``rate`` req/s split over the lanes:
        request k of lane i is due at start + (k*LANES + i)/rate and its
        latency is timed from then, not from when it was sent."""
        lanes = [Lane() for _ in range(self.LANES)]
        per_lane = int(seconds * rate / self.LANES)
        start = now() + 0.02

        def drive(index: int) -> None:
            lane, client = lanes[index], state.stack.clients[index]
            for k in range(per_lane):
                due = start + (k * self.LANES + index) / rate
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
                elif -wait > self.LATE_ABORT_S:
                    # the generator cannot keep the schedule: the rest of
                    # the phase counts as missed
                    lane.attempted += per_lane - k
                    lane.fail(
                        RuntimeError(f"lane {-wait:.3f} s late at {rate} req/s"),
                        per_lane - k)
                    return
                stim = self.stimuli[(k * self.LANES + index) % self.STIMULI]
                lane.attempted += 1
                lane.late.append(max(0.0, now() - due))
                try:
                    with tracer.span("serve.fabric.client.infer", k) as span:
                        result = client.infer(stim)
                    done = now()
                except Exception as exc:
                    lane.fail(exc)
                    continue
                lane.samples.append((done, done - due))
                lane.keep(self.slugs[0], stim, result)
                if tracer.enabled:
                    self._node_spans(tracer, span, client.last_latency, k)
                    if index == 0:
                        self._lower_rungs(state, tracer, lane, stim, result, k)

        run_threads([lambda i=i: drive(i) for i in range(self.LANES)])
        return lanes, start

    @staticmethod
    def _node_spans(tracer, span, latency, op) -> None:
        """The node-reported admission/service/total of one request as
        child spans, centred in the client's round trip."""
        total = latency.get("total_ms", 0.0) / 1e3
        begin = span.start + max(0.0, (span.end - span.start - total) / 2)
        parent = tracer.add(
            "serve.fabric.node.total", begin, begin + total, span.index, op)
        admitted = begin + latency.get("admission_ms", 0.0) / 1e3
        tracer.add("serve.fabric.node.admission", begin, admitted, parent, op)
        tracer.add("serve.fabric.node.service", admitted,
                   admitted + latency.get("service_ms", 0.0) / 1e3, parent, op)

    @staticmethod
    def _lower_rungs(state, tracer, lane, stim, over_http, op) -> None:
        """The same stimulus down the ladder, after the timed request."""
        with tracer.span("serve.server.infer", op):
            in_process = state.stack.node.server.infer(stim)
        with tracer.span("engine.session.run", op):
            bare = state.session.run(stim)
        if not (same_result(in_process, over_http) and same_result(bare, over_http)):
            lane.fail(RuntimeError("ladder rungs disagree"))

    def _ramp(self, state) -> Dict[int, SimpleNamespace]:
        """Latency at each higher rate, each for a quarter of the
        reference window.  Every rate is tried, also past the first that
        fails, so each run reports the same metric set; a rate past
        capacity aborts within LATE_ABORT_S.  Requests these phases miss
        are the measurement, not failures of the run."""
        phases = {}
        for rate in self.RAMP:
            lanes, _ = self._phase(
                state, rate, max(0.3, state.window_s / 4), UNTRACED)
            latencies = [lat * 1e3 for lane in lanes for _, lat in lane.samples]
            phases[rate] = SimpleNamespace(
                p90=percentile(latencies, 90) if latencies else float("inf"),
                failed=sum(lane.failed for lane in lanes),
            )
        return phases

    def layer_metrics(self, ctx, state, tracer):
        reference = state.lanes[-self.LANES:]
        latencies = [lat * 1e3 for lane in reference for _, lat in lane.samples]
        rtt = median(tracer.durations_ms("serve.fabric.client.infer"))
        node_total = median(tracer.durations_ms("serve.fabric.node.total"))
        # read before the ramp drives the node past capacity
        stats = state.stack.node.stats()
        out = _serving_layer_metrics(stats["server"])
        p90_key = "serve.fabric.lat_p90_ms.r{}".format
        out.update({
            "serve.fabric.node.admission_ms": median(
                tracer.durations_ms("serve.fabric.node.admission")),
            "serve.fabric.node.service_ms": median(
                tracer.durations_ms("serve.fabric.node.service")),
            "serve.fabric.node.total_ms": node_total,
            "serve.fabric.client.rtt_ms": rtt,
            "serve.fabric.http_self_ms": rtt - node_total,
            "serve.fabric.admission.rejected": (
                stats["admission"]["rejected_saturated"]
                + stats["admission"]["rejected_throttled"]),
            "serve.fabric.client.retries": sum(
                client.retries for client in state.stack.clients),
            "serve.fabric.loadgen.late_p50_ms": median(
                late * 1e3 for lane in reference for late in lane.late),
            "serve.fabric.lat_p99_ms": percentile(latencies, 99),
            p90_key(self.RATE): percentile(latencies, 90),
        })
        # highest rate reached with every lower rate also within the limit
        ok = (out[p90_key(self.RATE)] <= self.LIMIT_P90_MS
              and not any(lane.failed for lane in reference))
        out["serve.fabric.max_ok_rps"] = self.RATE if ok else 0
        for rate, phase in self._ramp(state).items():
            out[p90_key(rate)] = phase.p90
            ok = ok and phase.p90 <= self.LIMIT_P90_MS and not phase.failed
            if ok:
                out["serve.fabric.max_ok_rps"] = rate
        infer_us = median(tracer.durations_ms("serve.server.infer")) * 1e3
        engine_us = median(tracer.durations_ms("engine.session.run")) * 1e3
        out.update({
            "serve.server.infer_us.w1": infer_us,
            "serve.server.self_us": (
                infer_us - out["serve.scheduler.wait_p50_ms"] * 1e3 - engine_us),
            "ladder.engine_base_us": engine_us,
            "ladder.serve_base_us": infer_us,
            "ladder.serve_over_engine": infer_us / engine_us,
            "ladder.fabric_over_serve": rtt * 1e3 / infer_us,
        })
        out.update(self._wire_metrics(state))
        return out

    @staticmethod
    def _wire_metrics(state, repeats: int = 400) -> Dict[str, float]:
        _, stim, result = state.lanes[0].kept[0]
        request, response = encode_request(stim), encode_response(result)
        return {
            f"serve.fabric.wire.{fn.__name__}_us":
                median_seconds(fn, arg, repeats) * 1e6
            for fn, arg in (
                (encode_request, stim), (decode_request, request),
                (encode_response, result), (decode_response, response),
            )
        }


# ----------------------------------------------------------------------
class ServeBurst(_OneWord):
    name = "serve_burst"
    window_s = 12.0
    IN_FLIGHT = 32

    def _start(self, data):
        artifact = ExecutableArtifact.from_bytes(data)
        server = InferenceServer(
            artifact, serving=ServeConfig(cache=ProgramCache()))
        stack = SimpleNamespace(artifact=artifact, server=server)
        try:
            return stack, self.stimuli[0], server.infer(self.stimuli[0])
        except BaseException:
            server.close()
            raise

    def _stop(self, stack) -> None:
        stack.server.close()

    def warm(self, ctx, state) -> None:
        lane = state.lanes[0]
        stims = [self.stimuli[i % self.STIMULI] for i in range(self.WARM_OPS)]
        lane.attempted += len(stims)
        futures = [state.stack.server.submit(stim) for stim in stims]
        for stim, future in zip(stims, futures):
            try:
                lane.keep(self.slugs[0], stim, future.result(), always=True)
            except Exception as exc:
                lane.fail(exc)

    def run(self, ctx, state, seconds, tracer):
        lanes = [Lane() for _ in range(self.LANES)]
        server = state.stack.server
        start = now()
        deadline = start + seconds

        def drive(index: int) -> None:
            lane = lanes[index]
            in_flight = collections.deque()
            sent = 0
            while True:
                while len(in_flight) < self.IN_FLIGHT and now() < deadline:
                    stim = self.stimuli[(sent * self.LANES + index) % self.STIMULI]
                    submitted = now()

                    def finished(future, submitted=submitted, op=sent):
                        # runs on the thread that completed the request
                        if future.exception() is None:
                            done = now()
                            lane.samples.append((done, done - submitted))
                            if tracer.enabled:
                                tracer.add("serve.server.request", submitted,
                                           done, -1, op)

                    with tracer.span("serve.server.submit", sent):
                        future = server.submit(stim)
                    future.add_done_callback(finished)
                    in_flight.append((stim, future))
                    lane.attempted += 1
                    sent += 1
                if not in_flight:
                    return
                stim, future = in_flight.popleft()
                try:
                    lane.keep(self.slugs[0], stim, future.result())
                except Exception as exc:
                    lane.fail(exc)

        run_threads([lambda i=i: drive(i) for i in range(self.LANES)])
        state.lanes.extend(lanes)
        return lanes, start

    def layer_metrics(self, ctx, state, tracer):
        return _serving_layer_metrics(state.stack.server.stats())


# ----------------------------------------------------------------------
class Stream(_Serving):
    slugs = (corpus.STREAM_PROGRAM,)
    window_s = 10.0
    cold_extra = 4
    SECTIONS = {"fanout": True}

    def __init__(self, dense: bool) -> None:
        super().__init__()
        self.dense = dense
        self.name = "stream_dense" if dense else "stream_sparse"
        # independent steps cost ~3 ms each to draw and their order does
        # not matter, so the dense lanes replay a shorter stream
        self.steps = 128 if dense else 512

    def prepare(self, ctx) -> None:
        if ctx.smoke:
            self.steps = 32
        self.streams = [
            make_stream(ctx.graphs[self.slugs[0]], steps=self.steps, flip_bits=1,
                        random_stream=self.dense,
                        seed=ctx.seed * 7919 + lane * self.steps)
            for lane in range(self.LANES)
        ]

    def _start(self, data):
        artifact = ExecutableArtifact.from_bytes(data)
        server = StreamingServer(
            artifact, serving=ServeConfig(engine="delta", cache=ProgramCache()))
        stack = SimpleNamespace(artifact=artifact, server=server, sessions=[])
        try:
            stack.sessions = [server.open_session() for _ in range(self.LANES)]
            first = self.streams[0][0]
            return stack, first, stack.sessions[0].run(first)
        except BaseException:
            self._stop(stack)
            raise

    def _stop(self, stack) -> None:
        for session in stack.sessions:
            session.close()
        stack.server.close()

    def boot(self, ctx):
        fanout_ms = None
        if ctx.tracer.enabled:
            result = corpus.compile_cold(ctx.graphs[self.slugs[0]])
            fused = fuse_trace(lower_program(result.program))
            with ctx.tracer.span("core.fanout.build_fanout") as span:
                build_fanout(fused)
            fanout_ms = (span.end - span.start) * 1e3
        state = super().boot(ctx)
        state.position = [0] * self.LANES
        state.fanout_ms = fanout_ms
        return state

    def _step(self, state, index: int):
        """The lane's next step: forward then backward through its
        stream, so consecutive steps always differ by one flip."""
        position = state.position[index]
        state.position[index] = position + 1
        fold = position % (2 * self.steps - 2)
        if fold >= self.steps:
            fold = 2 * self.steps - 2 - fold
        return self.streams[index][fold]

    def warm(self, ctx, state) -> None:
        for count in range(self.WARM_OPS):
            index = count % self.LANES
            lane, stim = state.lanes[index], self._step(state, index)
            lane.attempted += 1
            try:
                result = state.stack.sessions[index].run(stim)
            except Exception as exc:
                lane.fail(exc)
                continue
            lane.keep(self.slugs[0], stim, result, always=True)

    def run(self, ctx, state, seconds, tracer):
        lanes = [Lane() for _ in range(self.LANES)]
        start = now()
        deadline = start + seconds

        def drive(index: int) -> None:
            lane, session = lanes[index], state.stack.sessions[index]
            while True:
                began = now()
                if began >= deadline:
                    return
                stim = self._step(state, index)
                lane.attempted += 1
                try:
                    with tracer.span("serve.stream.session.run", lane.attempted):
                        result = session.run(stim)
                    done = now()
                except Exception as exc:
                    lane.fail(exc)
                    continue
                lane.samples.append((done, done - began))
                lane.keep(self.slugs[0], stim, result)

        run_threads([lambda i=i: drive(i) for i in range(self.LANES)])
        state.lanes.extend(lanes)
        return lanes, start

    def layer_metrics(self, ctx, state, tracer):
        counters = [session.stats() for session in state.stack.sessions]
        steps = sum(c["runs"] for c in counters)
        out = {
            "serve.stream.step_us": median(
                tracer.durations_ms("serve.stream.session.run")) * 1e3,
            # useful-to-attempted: steps served by the sparse sweep
            "engine.delta.sparse_frac": (
                sum(c["sparse_runs"] for c in counters) / steps),
        }
        if state.fanout_ms is not None:
            out["core.fanout.build_ms"] = state.fanout_ms
        if not self.dense:
            out.update(state.lanes[0].probed(
                probes.delta(ctx, state.artifact, self.streams[0])))
        return out


def all_workloads() -> List[Workload]:
    return [
        CompileCold(), KernelBatch(), FabricOpen(), ServeBurst(),
        Stream(dense=False), Stream(dense=True),
    ]
