"""Tests for the distributed serving fabric (:mod:`repro.serve.fabric`)
and the :class:`~repro.serve.config.ServeConfig` API.

The load-bearing invariants:

* **wire fidelity** — a result decoded from either wire format (binary
  LPW frames or JSON) is bit-identical — outputs AND statistics — to a
  direct :meth:`Session.run`, for every model workload,
* **admission fairness** — per-client token buckets mean no client can
  push its sustained admission rate above its own bucket, and a greedy
  neighbor never starves a polite client (property-tested on a virtual
  clock),
* **store conformance** — every :class:`StoreBackend` (directory,
  memory, HTTP against a live store-only node) honours the same
  put/get/delete/keys contract,
* **fleet warm boot** — a second node wired to a warm node's HTTP store
  reaches ready-to-serve with zero compile passes,
* **one config surface** — every serving entry point takes its knobs,
  compile options included, as one ``serving=ServeConfig(...)``; a stray
  serving keyword is Python's own ``TypeError``.
"""

import asyncio
import json
import logging
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import (
    ArtifactStore,
    ExecutableArtifact,
    HTTPStoreBackend,
    MemoryStoreBackend,
)
from repro.core import LPUConfig, compile_ffcl
from repro.engine import Session
from repro.engine.arena import SharedTableArena, fused_table_arrays
from repro.lpu import random_stimulus
from repro.lpu.simulator import SimulationResult
from repro.models import (
    jsc_l_workload,
    jsc_m_workload,
    layer_block,
    lenet5_workload,
    mlpmixer_b4_workload,
    mlpmixer_s4_workload,
    nid_workload,
    vgg16_workload,
)
from repro.netlist import random_dag
from repro.serve import (
    InferenceServer,
    ProgramCache,
    ServeConfig,
    StreamingServer,
    naive_serve,
    serve,
)
from repro.serve.fabric import (
    AdmissionController,
    FabricClient,
    FabricConfig,
    FabricError,
    FabricNode,
    FabricRejected,
    TokenBucket,
)
from repro.serve.fabric.httpio import (
    HTTPProtocolError,
    read_request,
    render_response,
    split_status,
)
from repro.serve.fabric.wire import (
    WireError,
    decode_json_request,
    decode_json_response,
    decode_request,
    decode_response,
    encode_json_response,
    encode_request,
    encode_response,
)

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)

MODEL_FACTORIES = [
    vgg16_workload,
    lenet5_workload,
    mlpmixer_s4_workload,
    mlpmixer_b4_workload,
    nid_workload,
    jsc_m_workload,
    jsc_l_workload,
]

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
    g = random_dag(7, 50, 4, seed=11)
    return compile_ffcl(g, SMALL)


@pytest.fixture(scope="module")
def node(compiled):
    with FabricNode(
        compiled.program,
        serving=ServeConfig(num_workers=2),
        fabric=FabricConfig(verify_artifacts=True),
    ) as running:
        yield running


# ----------------------------------------------------------------------
# HTTP codec
# ----------------------------------------------------------------------
def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHTTPCodec:
    def test_parses_request_line_headers_and_body(self):
        request = _parse(
            b"POST /v1/infer?x=1 HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 4\r\n"
            b"\r\nabcd"
        )
        assert request.method == "POST"
        assert request.path == "/v1/infer"
        assert request.query == {"x": "1"}
        assert request.headers["content-type"] == "application/json"
        assert request.body == b"abcd"
        assert request.keep_alive  # HTTP/1.1 default

    def test_connection_close_disables_keep_alive(self):
        request = _parse(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_eof_before_request_is_clean_none(self):
        assert _parse(b"") is None

    def test_garbage_request_line_raises(self):
        with pytest.raises(HTTPProtocolError):
            _parse(b"NOT-HTTP\r\n\r\n")

    def test_body_larger_than_cap_raises(self):
        with pytest.raises(HTTPProtocolError):
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
            )

    def test_percent_encoded_path_is_decoded(self):
        request = _parse(b"GET /v1/store/a%2Eb HTTP/1.1\r\n\r\n")
        assert request.path == "/v1/store/a.b"

    def test_response_has_exact_content_length(self):
        raw = render_response(200, b"hello", content_type="text/plain")
        status, headers, body = split_status(raw)
        assert status == 200
        assert body == b"hello"
        assert headers["content-length"] == "5"


# ----------------------------------------------------------------------
# Wire formats
# ----------------------------------------------------------------------
class TestWireCodec:
    def _result(self):
        return SimulationResult(
            outputs={
                "y0": np.array([1, 2**63], dtype=np.uint64),
                "y1": np.array([0, 7], dtype=np.uint64),
            },
            macro_cycles=3,
            clock_cycles=18,
            compute_instructions_executed=57,
            switch_routes=12,
            peak_buffer_words=9,
            buffer_writes=21,
        )

    def test_request_roundtrip(self):
        inputs = {
            "a": np.array([5, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
            "b": np.array([0, 1], dtype=np.uint64),
        }
        back = decode_request(encode_request(inputs))
        assert set(back) == set(inputs)
        for name in inputs:
            assert np.array_equal(back[name], inputs[name])

    def test_response_roundtrip_with_stats_and_latency(self):
        result = self._result()
        latency = {"total_ms": 1.25, "service_ms": 1.0}
        back, lat = decode_response(encode_response(result, latency))
        assert_results_identical(result, back)
        assert lat == latency

    def test_json_roundtrips_are_exact(self):
        inputs = {"a": np.array([2**64 - 1], dtype=np.uint64)}
        body = json.dumps(
            {"inputs": {"a": [2**64 - 1]}}
        ).encode()
        back = decode_json_request(body)
        assert np.array_equal(back["a"], inputs["a"])
        result = self._result()
        decoded, _ = decode_json_response(
            encode_json_response(result, {})
        )
        assert_results_identical(result, decoded)

    def test_bad_magic_rejected(self):
        with pytest.raises(WireError):
            decode_request(b"XXXX" + b"\x00" * 16)

    def test_truncated_payload_rejected(self):
        frame = encode_request(
            {"a": np.array([1, 2, 3], dtype=np.uint64)}
        )
        with pytest.raises(WireError):
            decode_request(frame[:-8])

    def test_mismatched_word_counts_rejected(self):
        with pytest.raises(WireError):
            encode_request(
                {
                    "a": np.array([1], dtype=np.uint64),
                    "b": np.array([1, 2], dtype=np.uint64),
                }
            )

    def test_non_flat_signal_rejected(self):
        with pytest.raises(WireError, match="must be a flat word array"):
            encode_request({"a": np.zeros((2, 2), dtype=np.uint64)})

    def test_encoder_normalises_what_is_not_flat_uint64(self):
        # The flat-uint64 fast path must not change what else encodes:
        # scalars, lists and other integer dtypes still coerce.
        reference = decode_request(
            encode_request(
                {
                    "a": np.array([7], dtype=np.uint64),
                    "b": np.array([9], dtype=np.uint64),
                }
            )
        )
        coerced = decode_request(
            encode_request({"a": np.uint64(7), "b": [9]})
        )
        for name, words in reference.items():
            assert np.array_equal(coerced[name], words)
            assert coerced[name].dtype == np.uint64

    def test_decoded_signals_are_read_only_aligned_rows(self):
        inputs = {
            name: np.array([index, index + 1], dtype=np.uint64)
            for index, name in enumerate("abc")
        }
        back = decode_request(encode_request(inputs))
        for name, words in inputs.items():
            row = back[name]
            assert np.array_equal(row, words)
            assert row.shape == (2,) and row.flags.aligned
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class VirtualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire()

    def test_tokens_capped_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(1000.0)
        assert bucket.tokens == pytest.approx(2.0)

    @given(
        rate=st.floats(0.5, 50.0),
        burst=st.integers(1, 10),
        steps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_limit_upper_bound(self, rate, burst, steps):
        """Admissions over any schedule never exceed burst + rate*T."""
        clock = VirtualClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        admitted = 0
        for dt in steps:
            clock.advance(dt)
            if bucket.try_acquire():
                admitted += 1
        elapsed = sum(steps)
        assert admitted <= burst + rate * elapsed + 1e-6


class TestAdmissionController:
    def test_inflight_cap_saturates_and_releases(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.admit("a").admitted
        assert controller.admit("b").admitted
        rejected = controller.admit("c")
        assert not rejected.admitted
        assert rejected.reason == "saturated"
        controller.release()
        assert controller.admit("c").admitted
        stats = controller.as_dict()
        assert stats["rejected_saturated"] == 1
        assert stats["peak_inflight"] == 2

    def test_throttle_reports_retry_after(self):
        clock = VirtualClock()
        controller = AdmissionController(
            max_inflight=64, client_rate=1.0, client_burst=1,
            clock=clock,
        )
        assert controller.admit("c").admitted
        controller.release()
        decision = controller.admit("c")
        assert not decision.admitted
        assert decision.reason == "throttled"
        assert decision.retry_after == pytest.approx(1.0)

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(0, 3),            # which client attempts
                st.floats(0.0, 0.2),          # time since last attempt
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_no_client_starves(self, schedule):
        """A polite client attempting once per token period is always
        admitted, no matter how aggressively the others hammer."""
        clock = VirtualClock()
        controller = AdmissionController(
            max_inflight=10_000, client_rate=10.0, client_burst=1,
            clock=clock,
        )
        # The adversarial interleaving from hypothesis...
        for client, dt in schedule:
            clock.advance(dt)
            decision = controller.admit(f"noise-{client}")
            if decision.admitted:
                controller.release()
            # ...never affects the polite client's own bucket (one
            # token period plus an epsilon for float refill rounding):
            clock.advance(0.1 + 1e-6)
            polite = controller.admit("polite")
            assert polite.admitted
            controller.release()


# ----------------------------------------------------------------------
# Store backend conformance (directory / memory / HTTP)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def store_node():
    """A store-only fabric node (no engine) backing the HTTP backend."""
    with FabricNode(store=MemoryStoreBackend()) as running:
        yield running


def _backends(tmp_path, store_node):
    return {
        "directory": ArtifactStore(str(tmp_path / "store")),
        "memory": MemoryStoreBackend(),
        "http": HTTPStoreBackend(store_node.store_url),
    }


class TestStoreBackendConformance:
    @pytest.fixture(params=["directory", "memory", "http"])
    def backend(self, request, tmp_path, store_node):
        return _backends(tmp_path, store_node)[request.param]

    def test_put_get_delete_keys_contract(self, backend):
        key = "k" * 16
        assert backend.get_bytes(key, suffix=".bin") is None
        assert not backend.contains(key, suffix=".bin")
        backend.put_bytes(key, b"payload", suffix=".bin")
        assert backend.get_bytes(key, suffix=".bin") == b"payload"
        assert backend.contains(key, suffix=".bin")
        assert key in backend.keys(".bin")
        # Overwrite is last-write-wins.
        backend.put_bytes(key, b"payload2", suffix=".bin")
        assert backend.get_bytes(key, suffix=".bin") == b"payload2"
        assert backend.delete(key, suffix=".bin")
        assert not backend.delete(key, suffix=".bin")
        assert backend.get_bytes(key, suffix=".bin") is None

    def test_suffixes_are_distinct_namespaces(self, backend):
        backend.put_bytes("samekey", b"a", suffix=".a")
        backend.put_bytes("samekey", b"b", suffix=".b")
        assert backend.get_bytes("samekey", suffix=".a") == b"a"
        assert backend.get_bytes("samekey", suffix=".b") == b"b"
        backend.delete("samekey", suffix=".a")
        backend.delete("samekey", suffix=".b")

    def test_stats_count_hits_and_misses(self, backend):
        before = backend.stats.as_dict()
        backend.put_bytes("statkey", b"x", suffix=".s")
        backend.get_bytes("statkey", suffix=".s")
        backend.get_bytes("absent", suffix=".s")
        after = backend.stats.as_dict()
        assert after["writes"] == before["writes"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] >= before["misses"] + 1
        backend.delete("statkey", suffix=".s")


class TestHTTPStoreBackend:
    def test_unreachable_server_degrades_to_misses(self):
        backend = HTTPStoreBackend(
            "http://127.0.0.1:9", timeout=0.2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert backend.get_bytes("k", suffix=".x") is None
            backend.put_bytes("k", b"v", suffix=".x")
            assert backend.keys(".x") == []
        assert backend.transport_errors > 0


# ----------------------------------------------------------------------
# ServeConfig: the one serving surface
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_and_replace(self):
        config = ServeConfig()
        assert config.num_workers == 1
        tuned = config.replace(num_workers=3, engine="trace")
        assert tuned.num_workers == 3
        assert tuned.engine == "trace"
        assert config.num_workers == 1  # frozen original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(num_workers=0)
        with pytest.raises(ValueError):
            ServeConfig(backend="carrier-pigeon")

    @pytest.mark.parametrize(
        "entry",
        [
            lambda program, stim: InferenceServer(program, num_workers=2),
            lambda program, stim: serve(program, [stim], num_workers=2),
            lambda program, stim: naive_serve(program, [stim], num_workers=2),
            lambda program, stim: StreamingServer(program, num_workers=2),
        ],
        ids=["InferenceServer", "serve", "naive_serve", "StreamingServer"],
    )
    def test_serving_keyword_is_a_type_error(self, compiled, entry):
        stim = random_stimulus(compiled.program.graph, array_size=1, seed=0)
        with pytest.raises(TypeError, match="num_workers"):
            entry(compiled.program, stim)

    def test_compile_options_reach_the_compile(self):
        graph = random_dag(7, 50, 4, seed=11)
        unmerged = compile_ffcl(graph, SMALL, merge=False).metrics
        merged = compile_ffcl(graph, SMALL).metrics
        assert unmerged.mfgs_after_merge != merged.mfgs_after_merge
        serving = ServeConfig(
            cache=ProgramCache(), compile_options={"merge": False}
        )
        with InferenceServer(graph, SMALL, serving=serving) as server:
            served_mfgs = len(server.program.schedule.items)
        assert served_mfgs == unmerged.mfgs_after_merge

    def test_streaming_server_defaults_to_delta(self, compiled):
        stim = random_stimulus(compiled.program.graph, array_size=1, seed=0)
        with StreamingServer(compiled.program) as server:
            assert server.engine_name == "delta"
            with server.open_session() as session:
                assert session.stateful
                got = session.run(stim)
                assert session.stats()["runs"] == 1
        assert_results_identical(Session(compiled.program).run(stim), got)

    def test_server_accepts_serving_object(self, compiled):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            server = InferenceServer(
                compiled.program,
                serving=ServeConfig(num_workers=1, max_wait_ms=0.5),
            )
        try:
            stim = random_stimulus(
                compiled.program.graph, array_size=1, seed=0
            )
            expected = Session(compiled.program).run(stim)
            assert_results_identical(expected, server.infer(stim))
        finally:
            server.close()


# ----------------------------------------------------------------------
# The fabric node end to end
# ----------------------------------------------------------------------
class TestFabricEndToEnd:
    def test_binary_and_json_wire_bit_identical(self, compiled, node):
        graph = compiled.program.graph
        session = Session(compiled.program)
        for seed in range(3):
            stim = random_stimulus(
                graph, array_size=1 + seed % 3, seed=seed
            )
            expected = session.run(stim)
            with FabricClient(node.url, wire="binary") as client:
                assert_results_identical(expected, client.infer(stim))
                assert client.last_latency["total_ms"] >= 0.0
                assert (
                    client.last_latency["service_ms"]
                    <= client.last_latency["total_ms"]
                )
            with FabricClient(node.url, wire="json") as client:
                assert_results_identical(expected, client.infer(stim))

    def test_stop_with_open_connections_is_clean(self, compiled, caplog):
        """Regression: ``stop()`` used to leave open keep-alive handlers
        to ``asyncio.run``'s teardown, which cancelled them inside
        ``writer.wait_closed()`` — one "Exception in callback ...
        CancelledError" from the loop's exception handler per stop.
        The loser of that race is a handler whose client hung up just
        before the stop; a client still connected must not be one
        either."""
        stim = random_stimulus(compiled.program.graph, 1, seed=0)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            for round_ in range(10):
                node = FabricNode(compiled.program).start()
                with FabricClient(node.url) as client:
                    client.infer(stim)
                    if round_ < 2:
                        node.stop()  # with the connection open
                node.stop()
        # The default loop exception handler logs to "asyncio".
        assert [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio"
        ] == []

    def test_health_and_stats(self, node):
        with FabricClient(node.url) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["role"] == "serve"
            assert health["ready"] is True
            stats = client.stats()
            assert stats["admission"]["admitted"] >= 1
            assert "scheduler" in stats["server"]
            assert stats["draining"] is False
            assert stats["deadline_504"] == 0

    def test_liveness_vs_readiness_endpoints(self, node):
        with FabricClient(node.url) as client:
            status, _, _ = client._request("GET", "/v1/health/live")
            assert status == 200
            status, _, _ = client._request("GET", "/v1/health/ready")
            assert status == 200

    def test_unknown_route_404(self, node):
        with FabricClient(node.url) as client:
            status, _, _ = client._request("GET", "/nope")
            assert status == 404

    def test_malformed_inference_body_400(self, node):
        with FabricClient(node.url) as client:
            status, _, _ = client._request(
                "POST", "/v1/infer", body=b"{broken",
                headers={"Content-Type": "application/json"},
            )
            assert status == 400

    def test_unknown_input_name_is_client_error(self, node):
        with FabricClient(node.url) as client:
            with pytest.raises(FabricError):
                client.infer(
                    {"no_such_pi": np.array([1], dtype=np.uint64)}
                )

    def test_store_endpoint_roundtrip(self, node):
        with FabricClient(node.url) as client:
            status, _, _ = client._request(
                "PUT", "/v1/store/deadbeef.bin", body=b"blob"
            )
            assert status == 204
            status, _, data = client._request(
                "GET", "/v1/store/deadbeef.bin"
            )
            assert (status, data) == (200, b"blob")
            status, _, data = client._request(
                "GET", "/v1/store?suffix=.bin"
            )
            assert "deadbeef" in json.loads(data)["keys"]
            status, _, _ = client._request(
                "DELETE", "/v1/store/deadbeef.bin"
            )
            assert status == 204

    def test_corrupt_artifact_upload_rejected_422(self, node):
        # node has verify_artifacts=True: garbage .lpa must not land.
        with FabricClient(node.url) as client:
            status, _, data = client._request(
                "PUT", "/v1/store/bad.lpa", body=b"not an artifact"
            )
            assert status == 422
            status, _, _ = client._request("GET", "/v1/store/bad.lpa")
            assert status == 404

    def test_genuine_artifact_upload_accepted(self, compiled, node):
        artifact = compiled.to_artifact(probe_words=2)
        with FabricClient(node.url) as client:
            status, _, _ = client._request(
                "PUT", "/v1/store/good.lpa", body=artifact.to_bytes()
            )
            assert status == 204
            status, _, data = client._request(
                "GET", "/v1/store/good.lpa"
            )
            assert status == 200
            assert (
                ExecutableArtifact.from_bytes(data).fingerprint
                == artifact.fingerprint
            )

    def test_throttled_client_gets_429_with_retry_after(self, compiled):
        with FabricNode(
            compiled.program,
            serving=ServeConfig(),
            fabric=FabricConfig(client_rate=0.5, client_burst=1),
        ) as throttling:
            stim = random_stimulus(
                compiled.program.graph, array_size=1, seed=0
            )
            with FabricClient(
                throttling.url, client_id="greedy"
            ) as client:
                client.infer(stim)
                with pytest.raises(FabricRejected) as info:
                    client.infer(stim)
                assert info.value.status == 429
                assert info.value.retry_after > 0

    def test_concurrent_clients_all_bit_identical(self, compiled, node):
        graph = compiled.program.graph
        session = Session(compiled.program)
        stimuli = [
            random_stimulus(graph, array_size=1, seed=100 + i)
            for i in range(12)
        ]
        expected = [session.run(stim) for stim in stimuli]
        failures = []

        def lane(lane_id):
            try:
                with FabricClient(
                    node.url, client_id=f"t{lane_id}"
                ) as client:
                    for i in range(lane_id, len(stimuli), 3):
                        assert_results_identical(
                            expected[i], client.infer(stimuli[i])
                        )
            except Exception as exc:  # noqa: BLE001 - collected below
                failures.append(exc)

        threads = [
            threading.Thread(target=lane, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


class TestModelWorkloadsOverHTTP:
    @pytest.mark.parametrize(
        "factory", MODEL_FACTORIES, ids=lambda f: f.__name__
    )
    def test_http_roundtrip_bit_identical(self, factory):
        model = factory()
        layer = min(
            model.layers, key=lambda l: (l.fan_in, l.num_neurons)
        )
        block, _ = layer_block(layer, sample_neurons=2, seed=0)
        result = compile_ffcl(block, SMALL)
        session = Session(result.program)
        with FabricNode(
            result.program, serving=ServeConfig()
        ) as serving_node:
            with FabricClient(serving_node.url) as client:
                for seed, array_size in ((0, 1), (1, 4)):
                    stim = random_stimulus(
                        block, array_size=array_size, seed=seed
                    )
                    assert_results_identical(
                        session.run(stim), client.infer(stim)
                    )


# ----------------------------------------------------------------------
# Fleet warm boot: node B compiles nothing
# ----------------------------------------------------------------------
class TestWarmFleetBoot:
    def test_second_node_boots_from_http_store_with_zero_compiles(
        self, compiled
    ):
        graph = compiled.program.graph
        # The warm node boots from the GRAPH so its compile lands in the
        # store tier (already-compiled Program sources never re-package).
        with FabricNode(graph, SMALL, serving=ServeConfig()) as warm:
            warm_cache = warm.stats()["server"]["cache"]
            assert warm_cache["disk_stores"] >= 1
            backend = HTTPStoreBackend(warm.store_url)
            with FabricNode(
                graph,
                SMALL,
                serving=ServeConfig(store=backend),
            ) as cold:
                cold_cache = cold.stats()["server"]["cache"]
                assert cold_cache["disk_hits"] >= 1
                assert cold_cache["disk_misses"] == 0
                stim = random_stimulus(graph, array_size=2, seed=5)
                expected = Session(compiled.program).run(stim)
                with FabricClient(cold.url) as client:
                    assert_results_identical(
                        expected, client.infer(stim)
                    )


# ----------------------------------------------------------------------
# Shared-table arena
# ----------------------------------------------------------------------
class TestSharedTableArena:
    def test_publish_attach_rebind_roundtrip(self, compiled):
        artifact = compiled.to_artifact()
        fused = artifact.fused_program()
        tables = fused_table_arrays(fused)
        assert tables  # at least one level of index tables
        arena = SharedTableArena.publish(fused)
        try:
            attached = SharedTableArena.attach(arena.handle())
            try:
                views = dict(attached.arrays())
                for name, expected in tables:
                    assert np.array_equal(views[name], expected)
                    assert not views[name].flags.writeable
            finally:
                attached.close()
        finally:
            arena.close()

    def test_rebind_refuses_mismatched_program(self, compiled):
        g2 = random_dag(7, 50, 4, seed=99)
        other = compile_ffcl(g2, SMALL)
        arena = SharedTableArena.publish(
            compiled.to_artifact().fused_program()
        )
        try:
            attached = SharedTableArena.attach(arena.handle())
            try:
                mismatched = other.to_artifact().fused_program()
                with pytest.raises(ValueError):
                    attached.rebind(mismatched)
            finally:
                attached.close()
        finally:
            arena.close()

    def test_share_tables_serving_is_bit_identical(self, compiled):
        stimuli = [
            random_stimulus(
                compiled.program.graph, array_size=1, seed=i
            )
            for i in range(6)
        ]
        expected = naive_serve(
            compiled.program, stimuli, serving=ServeConfig()
        )
        server = InferenceServer(
            compiled.program,
            serving=ServeConfig(
                num_workers=2, backend="spawn", share_tables=True
            ),
        )
        try:
            assert server.pool.stats()["shared_table_bytes"] > 0
            got = server.map(stimuli)
        finally:
            server.close()
        for want, have in zip(expected, got):
            assert_results_identical(want, have)
