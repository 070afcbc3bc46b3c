"""The fabric inference wire formats: binary LPW frames and JSON.

Inference payloads are packed uint64 words — JSON round-trips them
fine (Python ints are exact), but at serving rates the text encode /
decode dominates the wire cost.  The fabric therefore speaks two
formats, negotiated by ``Content-Type``:

* ``application/x-lpw`` — the binary fast path.  A frame is::

      magic   4 bytes  b"LPW1" (request) / b"LPR1" (response)
      hlen    4 bytes  uint32 little-endian header length
      header  hlen bytes of UTF-8 JSON
      payload len(names) * words * 8 bytes of uint64 little-endian

  The request header carries ``{"names": [...], "words": W}`` and the
  payload concatenates each signal's ``W`` words in header-name order.
  The response header adds the run statistics and per-request latency
  metadata; its payload carries the outputs the same way.

* ``application/json`` — the debuggable path: ``{"inputs": {name:
  [words...]}}`` in, ``{"outputs": ..., "stats": ..., "latency": ...}``
  out.  Bit-exact but slower; ``curl``-friendly.

Both formats carry identical information; results decoded from either
are bit-identical to a direct :meth:`~repro.engine.session.Session.run`.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Optional, Tuple

import numpy as np

from ...lpu.simulator import SimulationResult

__all__ = [
    "BINARY_CONTENT_TYPE",
    "JSON_CONTENT_TYPE",
    "WireError",
    "decode_json_request",
    "decode_json_request_meta",
    "decode_json_response",
    "decode_request",
    "decode_request_meta",
    "decode_response",
    "encode_json_response",
    "encode_request",
    "encode_response",
]

BINARY_CONTENT_TYPE = "application/x-lpw"
JSON_CONTENT_TYPE = "application/json"

_REQUEST_MAGIC = b"LPW1"
_RESPONSE_MAGIC = b"LPR1"
_WORD = np.dtype("<u8")

_STAT_FIELDS = (
    "macro_cycles",
    "clock_cycles",
    "compute_instructions_executed",
    "switch_routes",
    "peak_buffer_words",
    "buffer_writes",
)


class WireError(ValueError):
    """The bytes are not a valid fabric inference frame."""


def _word_matrix(
    values: Dict[str, np.ndarray], names
) -> Tuple[np.ndarray, int]:
    """Stack ``values`` in ``names`` order into a (n, words) matrix."""
    arrays = []
    words = None
    for name in names:
        array = values[name]
        # Hot path: engine inputs and outputs are flat uint64 already.
        if (
            type(array) is not np.ndarray
            or array.dtype != np.uint64
            or array.ndim != 1
        ):
            array = np.atleast_1d(np.asarray(array, dtype=np.uint64))
            if array.ndim != 1:
                raise WireError(
                    f"signal {name!r} must be a flat word array, "
                    f"got shape {array.shape}"
                )
        if words is None:
            words = array.size
        elif array.size != words:
            raise WireError(
                "all signals in one frame must carry the same word "
                f"count ({name!r} has {array.size}, expected {words})"
            )
        arrays.append(array)
    if words is None:
        raise WireError("a frame needs at least one signal")
    # Equal-length flat rows: one C-level concatenate is the stack.
    return np.concatenate(arrays).reshape(len(arrays), words), words


def _pack(magic: bytes, header: Dict[str, object],
          payload: np.ndarray) -> bytes:
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return b"".join(
        (
            magic,
            struct.pack("<I", len(header_bytes)),
            header_bytes,
            np.ascontiguousarray(payload, dtype=_WORD).tobytes(),
        )
    )


def _unpack(
    data: bytes, magic: bytes
) -> Tuple[Dict[str, object], np.ndarray]:
    if len(data) < 8 or data[:4] != magic:
        raise WireError(
            f"not a {magic.decode('latin-1')} frame "
            f"(leading bytes {data[:4]!r})"
        )
    (hlen,) = struct.unpack_from("<I", data, 4)
    if 8 + hlen > len(data):
        raise WireError("frame header overruns the payload")
    try:
        header = json.loads(data[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"unparsable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError("frame header is not a JSON object")
    payload = np.frombuffer(data, dtype=_WORD, offset=8 + hlen)
    return header, payload


def _split_payload(
    header: Dict[str, object], payload: np.ndarray, kind: str
) -> Tuple[Dict[str, np.ndarray], int]:
    try:
        names = [str(name) for name in header["names"]]
        words = int(header["words"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed {kind} header: {exc}") from exc
    if words < 1:
        raise WireError("frames carry at least one word per signal")
    if payload.size != len(names) * words:
        raise WireError(
            f"{kind} payload carries {payload.size} words, header "
            f"promises {len(names)} x {words}"
        )
    # One aligned copy off the frame buffer; the per-signal arrays are
    # its rows (views inherit the read-only flag).
    matrix = payload.reshape(len(names), words).copy()
    matrix.setflags(write=False)
    return dict(zip(names, matrix)), words


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_request(
    inputs: Dict[str, np.ndarray],
    *,
    deadline_ms: Optional[float] = None,
) -> bytes:
    """Pack one inference request into an LPW1 frame.

    ``deadline_ms`` rides in the frame header: the node sheds the
    request with HTTP 504 if it cannot answer within the budget.
    """
    names = sorted(inputs)
    matrix, words = _word_matrix(inputs, names)
    header: Dict[str, object] = {"names": names, "words": words}
    if deadline_ms is not None:
        header["deadline_ms"] = float(deadline_ms)
    return _pack(_REQUEST_MAGIC, header, matrix)


def _header_deadline(header: Dict[str, object]) -> Optional[float]:
    raw = header.get("deadline_ms")
    if raw is None:
        return None
    try:
        deadline_ms = float(raw)
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed request deadline: {raw!r}") from exc
    if deadline_ms <= 0:
        raise WireError("request deadline_ms must be > 0")
    return deadline_ms


def decode_request_meta(
    data: bytes,
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Unpack an LPW1 frame into inputs + request metadata
    (``{"deadline_ms": float | None}``)."""
    header, payload = _unpack(data, _REQUEST_MAGIC)
    values, _ = _split_payload(header, payload, "request")
    return values, {"deadline_ms": _header_deadline(header)}


def decode_request(data: bytes) -> Dict[str, np.ndarray]:
    """Unpack an LPW1 frame into engine-ready inputs."""
    values, _ = decode_request_meta(data)
    return values


def decode_json_request_meta(
    body: bytes,
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """The JSON request form: ``{"inputs": {name: [words...]},
    "deadline_ms": optional}`` — inputs + request metadata."""
    try:
        message = json.loads(body.decode("utf-8"))
        raw = message["inputs"]
        inputs = {
            str(name): np.asarray(words, dtype=np.uint64).reshape(-1)
            for name, words in raw.items()
        }
    except (UnicodeDecodeError, ValueError, KeyError,
            TypeError, AttributeError, OverflowError) as exc:
        raise WireError(f"malformed JSON inference request: {exc}") from exc
    return inputs, {"deadline_ms": _header_deadline(message)}


def decode_json_request(body: bytes) -> Dict[str, np.ndarray]:
    """The JSON request form, inputs only (see the ``_meta`` variant)."""
    inputs, _ = decode_json_request_meta(body)
    return inputs


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def _stats_dict(result: SimulationResult) -> Dict[str, int]:
    return {name: int(getattr(result, name)) for name in _STAT_FIELDS}


def encode_response(
    result: SimulationResult,
    latency: Optional[Dict[str, float]] = None,
) -> bytes:
    """Pack one result (outputs + statistics + latency) as LPR1."""
    names = sorted(result.outputs)
    matrix, words = _word_matrix(result.outputs, names)
    header = {
        "names": names,
        "words": words,
        "stats": _stats_dict(result),
        "latency": latency or {},
    }
    return _pack(_RESPONSE_MAGIC, header, matrix)


def decode_response(
    data: bytes,
) -> Tuple[SimulationResult, Dict[str, float]]:
    """Unpack an LPR1 frame into a result + latency metadata."""
    header, payload = _unpack(data, _RESPONSE_MAGIC)
    outputs, _ = _split_payload(header, payload, "response")
    stats = header.get("stats")
    if not isinstance(stats, dict):
        raise WireError("response frame carries no statistics")
    try:
        result = SimulationResult(
            outputs=outputs,
            **{name: int(stats[name]) for name in _STAT_FIELDS},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed response statistics: {exc}") from exc
    latency = {
        str(key): float(value)
        for key, value in dict(header.get("latency") or {}).items()
    }
    return result, latency


def encode_json_response(
    result: SimulationResult,
    latency: Optional[Dict[str, float]] = None,
) -> bytes:
    """The JSON response form (exact: words as decimal integers)."""
    return json.dumps(
        {
            "outputs": {
                name: [int(word) for word in np.atleast_1d(words)]
                for name, words in sorted(result.outputs.items())
            },
            "stats": _stats_dict(result),
            "latency": latency or {},
        }
    ).encode("utf-8")


def decode_json_response(
    body: bytes,
) -> Tuple[SimulationResult, Dict[str, float]]:
    """Inverse of :func:`encode_json_response`."""
    try:
        message = json.loads(body.decode("utf-8"))
        outputs = {
            str(name): np.asarray(words, dtype=np.uint64).reshape(-1)
            for name, words in message["outputs"].items()
        }
        stats = message["stats"]
        result = SimulationResult(
            outputs=outputs,
            **{name: int(stats[name]) for name in _STAT_FIELDS},
        )
        latency = {
            str(key): float(value)
            for key, value in dict(message.get("latency") or {}).items()
        }
        return result, latency
    except (UnicodeDecodeError, ValueError, KeyError,
            TypeError, AttributeError, OverflowError) as exc:
        raise WireError(f"malformed JSON inference response: {exc}") from exc
