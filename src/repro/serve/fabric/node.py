"""The fabric node: an async HTTP front-end over the serving stack.

One :class:`FabricNode` is one network-addressable serving process.  It
owns an :class:`~repro.serve.server.InferenceServer` (cache → worker
pool → batch scheduler), runs a single-threaded :mod:`asyncio` event
loop accepting HTTP/1.1 connections (:mod:`.httpio` — no third-party
server), gates every inference through the admission controller
(:mod:`.admission`), and optionally serves its artifact store to the
rest of the fleet over the ``/v1/store`` protocol that
:class:`~repro.artifact.backends.HTTPStoreBackend` speaks.

Endpoints:

* ``POST /v1/infer`` — one inference request, binary
  (``application/x-lpw``) or JSON; the response carries outputs
  bit-identical to a direct :meth:`Session.run
  <repro.engine.session.Session.run>`, the run statistics, and
  per-request latency metadata (admission / service / total).  A
  ``deadline_ms`` field (frame header or JSON key) bounds the wait:
  a request the node cannot answer in time fails with **504** and
  partial-wait evidence instead of hanging the caller.
* ``GET /v1/health/live`` — liveness: 200 whenever the process is up.
* ``GET /v1/health/ready`` — readiness: 200 only when the node is
  accepting traffic (engine loaded, not draining); 503 with a JSON
  ``reason`` otherwise, so fleet load balancers stop routing to
  draining or rebuilding nodes while supervisors leave them alone.
* ``GET /v1/health`` — the combined legacy probe (readiness-gated).
* ``GET /v1/stats`` — admission, scheduler, pool, cache, and store
  counters in one JSON report.
* ``GET/PUT/DELETE /v1/store/{key}{suffix}``, ``GET
  /v1/store?suffix=`` — the shared blob store (disable with
  ``serve_store=False``).

The fleet story in two lines::

    node_a = FabricNode(graph, serving=ServeConfig(num_workers=4))
    node_b = FabricNode(graph, serving=ServeConfig(
        store=HTTPStoreBackend(node_a.url + "/v1/store")))

Node A compiles once and persists the artifact through its cache's
store tier; node B's cache resolves it over the wire and reaches
ready-to-serve with **zero compile passes**.

A node with ``source=None`` is a *store-only* node: no engine, no
``/v1/infer`` — just the shared artifact store for a fleet.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ...core.codegen import Program
from ...core.config import LPUConfig
from ...netlist.graph import LogicGraph
from ..config import ServeConfig
from ..scheduler import DeadlineExceeded
from .admission import AdmissionController
from .httpio import (
    HTTPProtocolError,
    Request,
    json_response,
    read_request,
    render_response,
)
from .wire import (
    BINARY_CONTENT_TYPE,
    WireError,
    decode_json_request_meta,
    decode_request_meta,
    encode_json_response,
    encode_response,
)

__all__ = ["FabricConfig", "FabricNode"]

#: how long a stopping node waits for its open connections' handlers to
#: finish (an in-flight reply, the close handshake) before the loop
#: teardown cancels whatever is left.
_HANDLER_GRACE_S = 5.0


@dataclass(frozen=True)
class FabricConfig:
    """Front-end parameters of one fabric node.

    Args:
        host: bind address (loopback default).
        port: bind port; ``0`` picks a free one (read it back from
            :attr:`FabricNode.port` after start).
        max_inflight: node-wide admission cap on in-flight requests.
        client_rate: per-client admissions/second (token bucket);
            ``None`` disables per-client throttling.
        client_burst: per-client token reserve.
        serve_store: expose the node's artifact store at ``/v1/store``.
        verify_artifacts: replay embedded probe vectors before
            accepting an ``.lpa`` upload into the store (rejecting
            corrupt or miscompiled artifacts at the door).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    client_rate: Optional[float] = None
    client_burst: float = 8.0
    serve_store: bool = True
    verify_artifacts: bool = False


class FabricNode:
    """One serving node: async HTTP front-end + engine + shared store.

    Args:
        source: the workload to serve — a :class:`LogicGraph`, compiled
            :class:`Program`, or
            :class:`~repro.artifact.format.ExecutableArtifact`; ``None``
            boots a store-only node (no inference endpoint).
        config: LPU parameters when compiling from a graph.
        serving: the :class:`~repro.serve.config.ServeConfig` for the
            embedded :class:`~repro.serve.server.InferenceServer`.  Its
            store wiring doubles as the node's served store.
        fabric: the :class:`FabricConfig` front-end parameters.
        store: the blob store served at ``/v1/store`` and wired as the
            program cache's disk tier (an in-memory backend by default).
    """

    def __init__(
        self,
        source: Optional[Union[LogicGraph, Program, object]] = None,
        config: Optional[LPUConfig] = None,
        *,
        serving: Optional[ServeConfig] = None,
        fabric: Optional[FabricConfig] = None,
        store=None,
    ) -> None:
        from ...artifact.backends import MemoryStoreBackend

        self.fabric = fabric if fabric is not None else FabricConfig()
        serving = serving if serving is not None else ServeConfig()
        if store is None:
            store = serving.store
        if store is None:
            store = MemoryStoreBackend()
        self.store = store
        if serving.cache is None and serving.store is None:
            serving = serving.replace(store=store)
        self.serving = serving
        self._source = source
        self._config = config
        self.admission = AdmissionController(
            max_inflight=self.fabric.max_inflight,
            client_rate=self.fabric.client_rate,
            client_burst=self.fabric.client_burst,
        )
        self.server = None  # built on start()
        self.port: Optional[int] = None
        self._requests: Dict[str, int] = {"binary": 0, "json": 0}
        self._deadline_504 = 0
        self._draining = False
        self._injector = getattr(serving, "injector", None)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        #: live connection handlers -> their writers (loop thread only).
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("node is not started")
        return f"http://{self.fabric.host}:{self.port}"

    @property
    def store_url(self) -> str:
        return self.url + "/v1/store"

    def start(self, *, timeout: float = 60.0) -> "FabricNode":
        """Boot the engine (compile or warm-store load) and bind the
        listener; returns once ready to serve."""
        if self._thread is not None:
            raise RuntimeError("node already started")
        if self._source is not None:
            from ..server import InferenceServer

            # Resolve the program before accepting traffic: a cold
            # start compiles, a warm one loads from the store tier with
            # zero compile passes (watch cache.stats.disk_hits).
            self.server = InferenceServer(
                self._source, self._config, serving=self.serving
            )
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-fabric", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("fabric node failed to become ready")
        if self._startup_error is not None:
            raise RuntimeError(
                "fabric node failed to start"
            ) from self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup races
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        listener = await asyncio.start_server(
            self._handle_connection, self.fabric.host, self.fabric.port
        )
        self.port = listener.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            listener.close()  # no new connections from here on
            await self._finish_connections()
            await listener.wait_closed()
            self.port = None

    async def _finish_connections(self) -> None:
        """Close every open connection and let its handler run to the
        end.  Left to ``asyncio.run``'s teardown instead, a handler is
        cancelled inside ``writer.wait_closed()`` and the loop logs an
        "Exception in callback ... CancelledError" per connection."""
        if not self._connections:
            return
        for writer in self._connections.values():
            # An idle keep-alive handler reads EOF and exits; one
            # mid-request finishes, fails its write and exits.
            writer.close()
        await asyncio.wait(
            list(self._connections), timeout=_HANDLER_GRACE_S
        )

    def drain(self, *, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, finish in-flight work,
        then stop.

        The node flips to not-ready the moment draining starts
        (``/v1/health/ready`` answers 503 ``draining``, new
        ``/v1/infer`` requests are rejected 503), waits for the
        in-flight count to reach zero (bounded by ``timeout``), and
        only then tears the listener and engine down — no accepted
        request is dropped on the floor.
        """
        self._draining = True
        limit = time.monotonic() + timeout
        while self.admission.inflight > 0 and time.monotonic() < limit:
            time.sleep(0.005)
        self.stop()

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self) -> None:
        """Stop accepting, drain the engine, release the port."""
        self._draining = True
        loop, thread = self._loop, self._thread
        if loop is not None and self._shutdown is not None:
            try:
                loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if thread is not None:
            thread.join(timeout=30)
        self._thread = None
        self._loop = None
        if self.server is not None:
            self.server.close()
            self.server = None

    def __enter__(self) -> "FabricNode":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPProtocolError as exc:
                    writer.write(
                        json_response(
                            400, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request, peer_id)
                if response is None:
                    # Injected response drop: sever the connection
                    # without answering (the client sees a transport
                    # error, exactly like a mid-flight network loss).
                    break
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to salvage
        except asyncio.CancelledError:
            pass  # node shutting down with the connection still open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            finally:
                self._connections.pop(handler, None)

    async def _dispatch(
        self, request: Request, peer_id: str
    ) -> Optional[bytes]:
        path = request.path
        try:
            if path == "/v1/infer":
                if request.method != "POST":
                    return json_response(
                        405, {"error": "POST /v1/infer"}
                    )
                return await self._infer(request, peer_id)
            if path == "/v1/health/live" and request.method == "GET":
                # Liveness: answering at all is the proof.
                return json_response(200, {"status": "live"})
            if path == "/v1/health/ready" and request.method == "GET":
                ready, reason = self._ready_state()
                if ready:
                    return json_response(200, {"status": "ready"})
                return json_response(
                    503, {"status": "not-ready", "reason": reason}
                )
            if path == "/v1/health" and request.method == "GET":
                ready, _ = self._ready_state()
                return json_response(200 if ready else 503, self._health())
            if path == "/v1/stats" and request.method == "GET":
                return json_response(200, self.stats())
            if (
                path == "/v1/store" or path.startswith("/v1/store/")
            ) and self.fabric.serve_store:
                return await self._store_endpoint(request)
            return json_response(404, {"error": f"no route {path!r}"})
        except Exception as exc:  # noqa: BLE001 - the wire boundary
            return json_response(500, {"error": str(exc)})

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    async def _infer(
        self, request: Request, peer_id: str
    ) -> Optional[bytes]:
        if self.server is None:
            return json_response(
                503, {"error": "store-only node: no inference engine"}
            )
        if self._draining:
            return json_response(
                503,
                {"error": "node draining", "retry_after": 0.0},
                headers={"Retry-After": "0.010"},
            )
        start = time.perf_counter()
        client = request.headers.get("x-client", peer_id)
        decision = self.admission.admit(client)
        if not decision.admitted:
            if decision.reason == "throttled":
                return json_response(
                    429,
                    {"error": "client throttled",
                     "retry_after": decision.retry_after},
                    headers={
                        "Retry-After": f"{decision.retry_after:.3f}"
                    },
                )
            return json_response(
                503, {"error": "node saturated", "retry_after": 0.0},
                headers={"Retry-After": "0.010"},
            )
        try:
            binary = request.content_type.startswith(BINARY_CONTENT_TYPE)
            try:
                if binary:
                    inputs, meta = decode_request_meta(request.body)
                else:
                    inputs, meta = decode_json_request_meta(request.body)
                deadline_ms = self.server.effective_deadline_ms(
                    meta.get("deadline_ms")
                )
                self._requests["binary" if binary else "json"] += 1
                future = self.server.submit(
                    inputs, deadline_ms=deadline_ms
                )
            except (WireError, ValueError) as exc:
                return json_response(400, {"error": str(exc)})
            admitted = time.perf_counter()
            try:
                if deadline_ms is None:
                    result = await asyncio.wrap_future(future)
                else:
                    # Bound the HTTP-side wait too: even a wedged
                    # worker cannot hold the connection past the
                    # request's budget.
                    result = await asyncio.wait_for(
                        asyncio.wrap_future(future),
                        timeout=deadline_ms / 1e3,
                    )
            except (DeadlineExceeded, asyncio.TimeoutError) as exc:
                self._deadline_504 += 1
                waited_ms = (time.perf_counter() - start) * 1e3
                if isinstance(exc, DeadlineExceeded):
                    waited_ms = exc.waited_ms
                return json_response(
                    504,
                    {
                        "error": "request deadline exceeded",
                        "deadline_ms": deadline_ms,
                        "waited_ms": waited_ms,
                    },
                )
            done = time.perf_counter()
            latency = {
                "admission_ms": (admitted - start) * 1e3,
                "service_ms": (done - admitted) * 1e3,
                "total_ms": (done - start) * 1e3,
            }
            if self._injector is not None:
                action, param = self._injector.response_action()
                if action == "drop":
                    return None  # sever: _handle_connection closes
                if action == "delay":
                    await asyncio.sleep(param)
            if binary:
                return render_response(
                    200,
                    encode_response(result, latency),
                    content_type=BINARY_CONTENT_TYPE,
                )
            return render_response(
                200,
                encode_json_response(result, latency),
                content_type="application/json",
            )
        finally:
            self.admission.release()

    # ------------------------------------------------------------------
    # Store endpoints
    # ------------------------------------------------------------------
    @staticmethod
    def _split_blob_name(path: str):
        name = path[len("/v1/store/"):]
        if not name or "/" in name:
            return None, None
        dot = name.find(".")
        if dot <= 0:
            return name, ""
        return name[:dot], name[dot:]

    async def _store_endpoint(self, request: Request) -> bytes:
        loop = asyncio.get_running_loop()
        if request.path == "/v1/store":
            if request.method != "GET":
                return json_response(405, {"error": "GET /v1/store"})
            suffix = request.query.get("suffix", ".lpa")
            keys = await loop.run_in_executor(
                None, self.store.keys, suffix
            )
            return json_response(200, {"keys": keys})
        key, suffix = self._split_blob_name(request.path)
        if key is None:
            return json_response(404, {"error": "bad store path"})
        if request.method == "GET":
            data = await loop.run_in_executor(
                None, lambda: self.store.get_bytes(key, suffix=suffix)
            )
            if data is None:
                return json_response(404, {"error": "no such blob"})
            return render_response(200, data)
        if request.method == "PUT":
            if self.fabric.verify_artifacts and suffix == ".lpa":
                problem = await loop.run_in_executor(
                    None, self._vet_artifact, request.body
                )
                if problem is not None:
                    return json_response(422, {"error": problem})
            await loop.run_in_executor(
                None,
                lambda: self.store.put_bytes(
                    key, request.body, suffix=suffix
                ),
            )
            return render_response(204)
        if request.method == "DELETE":
            removed = await loop.run_in_executor(
                None, lambda: self.store.delete(key, suffix=suffix)
            )
            if removed:
                return render_response(204)
            return json_response(404, {"error": "no such blob"})
        return json_response(405, {"error": "GET/PUT/DELETE"})

    def _vet_artifact(self, data: bytes) -> Optional[str]:
        """Decode an uploaded ``.lpa`` (single-program artifact or
        multi-program bundle, via the format reader registry) and replay
        its probes; ``None`` when acceptable, else the rejection
        reason."""
        from ...artifact.format import ArtifactError, load_artifact_bytes

        try:
            artifact = load_artifact_bytes(data)
        except ArtifactError as exc:
            return f"not a loadable artifact: {exc}"
        if artifact.probes is None:
            return None  # nothing to replay; fingerprint already held
        report = artifact.verify_probes()
        if not report["passed"]:
            return (
                "probe replay failed on outputs "
                + ", ".join(report["mismatches"])
            )
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _ready_state(self):
        """``(ready, reason)`` — the readiness the load balancer sees.

        Liveness is separate on purpose: a draining node is *alive*
        (supervisors must not restart it) but *not ready* (balancers
        must stop routing to it)."""
        if self._draining:
            return False, "draining"
        return True, None

    def _health(self) -> Dict[str, object]:
        ready, reason = self._ready_state()
        return {
            "status": "ok" if ready else "not-ready",
            "ready": ready,
            "reason": reason,
            "role": "serve" if self.server is not None else "store",
            "graph": (
                self.server.graph.name
                if self.server is not None
                else None
            ),
            "engine": (
                self.server.engine_name
                if self.server is not None
                else None
            ),
        }

    def stats(self) -> Dict[str, object]:
        report: Dict[str, object] = {
            "requests": dict(self._requests),
            "admission": self.admission.as_dict(),
            "store": self.store.stats.as_dict(),
            "deadline_504": self._deadline_504,
            "draining": self._draining,
        }
        if self.server is not None:
            report["server"] = self.server.stats()
            report["serving"] = self.serving.describe()
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "serve" if self._source is not None else "store-only"
        where = (
            f"{self.fabric.host}:{self.port}"
            if self.port is not None
            else "stopped"
        )
        return f"FabricNode({role}, {where})"
