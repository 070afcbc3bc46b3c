"""The distributed serving fabric.

``repro.serve`` turns compiled programs into an in-process inference
service; this package puts that service on the network.  A
:class:`FabricNode` wraps one :class:`~repro.serve.server.InferenceServer`
in an asyncio HTTP/1.1 front-end (stdlib only — no web framework) with
two-gate admission control, binary (``application/x-lpw``) and JSON
wire formats, and an artifact-store endpoint so a warm node can feed
cold ones their ``.lpa`` executables.  :class:`FabricClient` is the
matching synchronous caller.

Everything a node answers is bit-identical — outputs *and* run
statistics — to a direct in-process :class:`~repro.engine.session.Session`
run over the same words.
"""

from .admission import (
    AdmissionController,
    AdmissionStats,
    Decision,
    TokenBucket,
)
from .client import (
    CircuitBreaker,
    CircuitOpen,
    FabricClient,
    FabricError,
    FabricRejected,
    RetryPolicy,
)
from .httpio import HTTPProtocolError, Request
from .node import FabricConfig, FabricNode
from .wire import (
    BINARY_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    WireError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BINARY_CONTENT_TYPE",
    "CircuitBreaker",
    "CircuitOpen",
    "Decision",
    "FabricClient",
    "FabricConfig",
    "FabricError",
    "FabricNode",
    "FabricRejected",
    "HTTPProtocolError",
    "JSON_CONTENT_TYPE",
    "Request",
    "RetryPolicy",
    "TokenBucket",
    "WireError",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
]
