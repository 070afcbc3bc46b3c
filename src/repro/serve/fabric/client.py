"""A synchronous keep-alive client for one fabric node.

:class:`FabricClient` is the caller-side half of the fabric protocol:
one persistent :class:`http.client.HTTPConnection` (re-dialed once per
operation when the server idles it out), speaking the binary LPW frame
format by default and returning plain
:class:`~repro.lpu.simulator.SimulationResult` objects — so a result
fetched over the wire drops into every comparison and report the
in-process serving layer already supports, bit for bit.

One client is one connection is one lane: drive it from one thread, and
give each concurrent caller its own instance (that is what the
per-client admission fairness on the node keys on, via the
``X-Client`` header).

Resilience is opt-in and deterministic: hand the client a
:class:`RetryPolicy` and :meth:`FabricClient.infer` retries transport
failures and admission rejections under a bounded exponential backoff
(honoring the node's ``Retry-After``); hand it a
:class:`CircuitBreaker` and a node that keeps failing is quarantined —
calls fail fast with :class:`CircuitOpen` until a half-open probe
proves the node back.  Without either, behavior is the classic
single-shot client.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ...lpu.simulator import SimulationResult
from .wire import (
    BINARY_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    WireError,
    decode_json_response,
    decode_response,
    encode_request,
)

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "FabricClient",
    "FabricError",
    "FabricRejected",
    "RetryPolicy",
]

#: errors that mean "the transport failed", not "the node answered no".
TRANSPORT_ERRORS = (http.client.HTTPException, OSError)


class FabricError(RuntimeError):
    """The node answered with a non-retryable error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"fabric node answered {status}: {message}")
        self.status = status


class FabricRejected(FabricError):
    """Admission control turned the request away (429/503) — retryable
    after :attr:`retry_after` seconds."""

    def __init__(
        self, status: int, message: str, retry_after: float
    ) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


class CircuitOpen(FabricError):
    """The client's circuit breaker has quarantined this node: the call
    failed fast without touching the wire.  Retryable after
    :attr:`retry_after` seconds (when the breaker half-opens)."""

    def __init__(self, retry_after: float) -> None:
        RuntimeError.__init__(
            self,
            "circuit open: node quarantined for another "
            f"{retry_after:.3f}s",
        )
        self.status = 503
        self.retry_after = retry_after


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded exponential backoff.

    Attempt ``k`` (zero-based) sleeps
    ``min(backoff_s * multiplier**k, max_backoff_s)`` before retrying —
    no jitter, so a seeded chaos run replays the exact same schedule.
    When the node sent ``Retry-After``, the sleep is
    ``max(computed, retry_after)``: never hammer a node that told us
    when to come back.
    """

    max_attempts: int = 3
    backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (zero-based)."""
        return min(
            self.backoff_s * self.multiplier ** attempt,
            self.max_backoff_s,
        )


class CircuitBreaker:
    """Per-node circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive transport failures open the
    circuit; while open every call fails fast with
    :class:`CircuitOpen`.  After ``reset_after_s`` the breaker goes
    half-open: exactly one probe call is let through (concurrent calls
    keep failing fast); the probe's outcome closes or re-opens the
    circuit.  An HTTP answer of any status counts as success here —
    the breaker tracks *node reachability*, not request outcomes.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_after_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_s <= 0:
            raise ValueError("reset_after_s must be > 0")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.opened_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._probing:
                return "half-open"
            if self._clock() - self._opened_at >= self.reset_after_s:
                return "half-open"
            return "open"

    def check(self) -> None:
        """Gate one call: pass, or raise :class:`CircuitOpen`."""
        with self._lock:
            if self._opened_at is None:
                return
            now = self._clock()
            remaining = self.reset_after_s - (now - self._opened_at)
            if remaining > 0:
                raise CircuitOpen(remaining)
            # Half-open: this call is the probe.  Re-arm the window so
            # concurrent callers fail fast until the probe reports.
            self._opened_at = now
            self._probing = True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._probing or self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._probing = False
                self.opened_total += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self._failures})"
        )


class FabricClient:
    """One persistent connection to one fabric node.

    Args:
        base_url: the node root, e.g. ``http://127.0.0.1:8080``.
        client_id: admission identity sent as ``X-Client`` (per-client
            token buckets key on it); defaults to anonymous.
        wire: ``"binary"`` (LPW frames, the fast path) or ``"json"``.
        timeout: per-request socket timeout in seconds.
        retry: a :class:`RetryPolicy` makes :meth:`infer` retry
            transport failures and admission rejections under bounded
            deterministic backoff; ``None`` (default) keeps the
            single-shot behavior.
        breaker: a :class:`CircuitBreaker` quarantines the node after
            repeated transport failures — calls fail fast with
            :class:`CircuitOpen` instead of burning the timeout.
        injector: optional :class:`~repro.serve.faults.FaultInjector`;
            its ``client.request`` site severs this client's connection
            at chosen request indices (chaos testing the retry path).
    """

    def __init__(
        self,
        base_url: str,
        *,
        client_id: Optional[str] = None,
        wire: str = "binary",
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        injector=None,
    ) -> None:
        from urllib.parse import urlsplit

        if wire not in ("binary", "json"):
            raise ValueError("wire must be 'binary' or 'json'")
        parts = urlsplit(base_url)
        if parts.scheme != "http" or parts.hostname is None:
            raise ValueError(f"need an http://host:port url, got {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.client_id = client_id
        self.wire = wire
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        self._injector = injector
        self._conn: Optional[http.client.HTTPConnection] = None
        #: latency metadata of the most recent inference (node-measured).
        self.last_latency: Dict[str, float] = {}
        #: retries spent across this client's lifetime.
        self.retries = 0

    # ------------------------------------------------------------------
    def _close_conn(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:  # pragma: no cover - best effort
                pass
            self._conn = None

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self._injector is not None and self._injector.client_sever():
            self._close_conn()
            raise ConnectionError("injected connection sever")
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(
                    method, path, body=body, headers=headers or {}
                )
                response = self._conn.getresponse()
                data = response.read()
                return (
                    response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    data,
                )
            except TRANSPORT_ERRORS:
                self._close_conn()
                if attempt:
                    raise
            except BaseException:
                # Anything else mid-exchange (decode bug, KeyboardInterrupt,
                # injected cancellation) leaves the connection with a
                # half-read body: reusing it would answer the *next*
                # request with *this* request's stale bytes.  Drop it.
                self._close_conn()
                raise
        raise OSError("unreachable")  # pragma: no cover - loop returns

    @staticmethod
    def _error_message(body: bytes) -> str:
        try:
            return str(json.loads(body.decode("utf-8"))["error"])
        except Exception:  # noqa: BLE001 - diagnostic best effort
            return body[:200].decode("latin-1")

    # ------------------------------------------------------------------
    def _encode_infer(
        self,
        inputs: Dict[str, np.ndarray],
        deadline_ms: Optional[float],
    ) -> Tuple[bytes, str]:
        if self.wire == "binary":
            return (
                encode_request(inputs, deadline_ms=deadline_ms),
                BINARY_CONTENT_TYPE,
            )
        message: Dict[str, object] = {
            "inputs": {
                name: [int(w) for w in np.atleast_1d(words)]
                for name, words in inputs.items()
            }
        }
        if deadline_ms is not None:
            message["deadline_ms"] = float(deadline_ms)
        return json.dumps(message).encode("utf-8"), JSON_CONTENT_TYPE

    def _infer_once(
        self, body: bytes, headers: Dict[str, str]
    ) -> SimulationResult:
        status, response_headers, data = self._request(
            "POST", "/v1/infer", body=body, headers=headers
        )
        if status in (429, 503):
            try:
                retry_after = float(
                    response_headers.get("retry-after", "0.01")
                )
            except ValueError:  # pragma: no cover - defensive
                retry_after = 0.01
            raise FabricRejected(
                status, self._error_message(data), retry_after
            )
        if status == 504:
            from ..scheduler import DeadlineExceeded

            try:
                detail = json.loads(data.decode("utf-8"))
                raise DeadlineExceeded(
                    float(detail["deadline_ms"]),
                    float(detail["waited_ms"]),
                )
            except (ValueError, KeyError, TypeError):
                raise FabricError(
                    status, self._error_message(data)
                ) from None
        if status != 200:
            raise FabricError(status, self._error_message(data))
        try:
            if response_headers.get("content-type", "").startswith(
                BINARY_CONTENT_TYPE
            ):
                result, latency = decode_response(data)
            else:
                result, latency = decode_json_response(data)
        except WireError as exc:
            raise FabricError(200, str(exc)) from exc
        self.last_latency = latency
        return result

    def infer(
        self,
        inputs: Dict[str, np.ndarray],
        *,
        deadline_ms: Optional[float] = None,
    ) -> SimulationResult:
        """One inference round trip; bit-identical to a local run.

        ``deadline_ms`` rides to the node, which sheds the request with
        504 — surfaced here as
        :class:`~repro.serve.scheduler.DeadlineExceeded` — if it cannot
        answer in time.  Without a :attr:`retry` policy this raises
        :class:`FabricRejected` on admission rejection (retryable by
        the caller) and transport errors as-is; with one, rejections
        and transport failures are retried under deterministic backoff
        (honoring ``Retry-After``) up to ``max_attempts``.  A
        :attr:`breaker` gates every attempt and converts a quarantined
        node into a fast :class:`CircuitOpen`.  The node's latency
        metadata lands in :attr:`last_latency`.
        """
        body, content_type = self._encode_infer(inputs, deadline_ms)
        headers = {"Content-Type": content_type}
        if self.client_id is not None:
            headers["X-Client"] = self.client_id
        attempts = self.retry.max_attempts if self.retry else 1
        for attempt in range(attempts):
            if self.breaker is not None:
                self.breaker.check()
            try:
                result = self._infer_once(body, headers)
            except FabricRejected as exc:
                # The node answered: reachable, just busy (or
                # draining).  Not a breaker failure.
                if self.breaker is not None:
                    self.breaker.record_success()
                if attempt + 1 >= attempts:
                    raise
                self.retries += 1
                time.sleep(
                    max(self.retry.delay(attempt), exc.retry_after)
                )
            except TRANSPORT_ERRORS:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if attempt + 1 >= attempts:
                    raise
                self.retries += 1
                time.sleep(self.retry.delay(attempt))
            except FabricError:
                # A definitive answer (400/404/500): reachable node,
                # non-retryable outcome.
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            except RuntimeError:
                # DeadlineExceeded (the 504 surface): the node answered
                # and the request's budget is spent — never retried.
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result
        raise OSError("unreachable")  # pragma: no cover - loop raises

    def health(self) -> Dict[str, object]:
        """The node's combined health document.

        Tolerates 503: a draining node answers ``{"status":
        "not-ready", "ready": false, "reason": ...}`` — that is an
        *answer*, not an error, so callers can distinguish
        alive-but-draining from dead."""
        status, _, data = self._request("GET", "/v1/health")
        if status not in (200, 503):
            raise FabricError(status, self._error_message(data))
        return json.loads(data.decode("utf-8"))

    def stats(self) -> Dict[str, object]:
        status, _, data = self._request("GET", "/v1/stats")
        if status != 200:
            raise FabricError(status, self._error_message(data))
        return json.loads(data.decode("utf-8"))

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:  # pragma: no cover - best effort
                pass
            self._conn = None

    def __enter__(self) -> "FabricClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FabricClient(http://{self.host}:{self.port}, "
            f"wire={self.wire!r})"
        )
