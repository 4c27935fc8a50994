"""Wire protocol: versioned JSON-lines requests and responses.

One request per line, UTF-8, ``\\n``-terminated::

    {"id": 7, "op": "analyze", "params": {"source": "..."}}

One response per line, echoing ``id``::

    {"id": 7, "ok": true, "cached": "memory", "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "timeout", "message": "..."}}

``version`` may be sent by clients that care; when present it must equal
:data:`PROTOCOL_VERSION`.  Request parameters are *normalized* before
hashing so that equivalent requests (defaults spelled out or omitted)
share one cache entry and coalesce onto one computation.  :data:`OPS`
is the one table of operations that every layer reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.cache.config import BASELINE_CONFIG, CacheConfig
from repro.cache.model import cache_config_to_dict
from repro.export import SCHEMA_VERSION, canonical_json
from repro.heuristic.classes import (DEFAULT_DELTA, PAPER_WEIGHTS, Weights)
from repro.service import ops

#: Version of the request/response envelope.
PROTOCOL_VERSION = 1

#: Maximum accepted request line, bytes.  Oversized lines produce a
#: ``bad_request`` error instead of unbounded buffering.
MAX_REQUEST_BYTES = 32 * 1024 * 1024

# error codes
BAD_REQUEST = "bad_request"
UNKNOWN_OP = "unknown_op"
OVERLOADED = "overloaded"
TIMEOUT = "timeout"
INTERNAL = "internal"
SHUTTING_DOWN = "shutting_down"


class ProtocolError(Exception):
    """A malformed or unsupported request."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """A validated, normalized request."""

    id: Any
    op: str
    params: dict[str, Any]
    timeout: Optional[float]

    @property
    def key(self) -> Optional[str]:
        """Content-hash cache/coalescing key (None: not cacheable)."""
        if not OPS[self.op].cacheable:
            return None
        return request_key(self.op, self.params)


def request_key(op: str, normalized_params: dict[str, Any]) -> str:
    """Stable content hash of one (op, normalized params) pair."""
    text = canonical_json({
        "protocol": PROTOCOL_VERSION,
        "schema": SCHEMA_VERSION,
        "op": op,
        "params": normalized_params,
    })
    return hashlib.sha256(text.encode()).hexdigest()


def ok_response(request_id: Any, result: Any,
                cached: Optional[str] = None) -> dict[str, Any]:
    return {"id": request_id, "ok": True,
            "cached": cached if cached else False, "result": result}


def error_response(request_id: Any, code: str,
                   message: str) -> dict[str, Any]:
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def encode(message: dict[str, Any]) -> bytes:
    """One response/request as a JSON line."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=False) + "\n").encode()


# -- request parsing -----------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(BAD_REQUEST, message)


def _field(params: dict, name: str, kind, default):
    value = params.get(name, default)
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        value = float(value)
    _require(isinstance(value, kind) and not isinstance(value, bool)
             or kind is bool and isinstance(value, bool),
             f"param {name!r} must be {kind.__name__}")
    return value


def _cache_config(params: dict) -> CacheConfig:
    raw = params.get("cache", None)
    if raw is None:
        return BASELINE_CONFIG
    _require(isinstance(raw, dict), "param 'cache' must be an object")
    unknown = set(raw) - {"size", "assoc", "block_size", "replacement"}
    _require(not unknown,
             f"unknown cache field(s): {', '.join(sorted(unknown))}")
    try:
        return CacheConfig(
            size=raw.get("size", BASELINE_CONFIG.size),
            assoc=raw.get("assoc", BASELINE_CONFIG.assoc),
            block_size=raw.get("block_size", BASELINE_CONFIG.block_size),
            replacement=raw.get("replacement", "lru"),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(BAD_REQUEST, f"bad cache config: {exc}")


def _normalize_analysis(params: dict, *, execute: bool) -> dict[str, Any]:
    """Normalized params for ``analyze`` (execute=True) / ``classify``."""
    source = params.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "param 'source' (MiniC text) is required")
    weights = params.get("weights")
    if weights is not None:
        _require(isinstance(weights, dict)
                 and all(isinstance(v, (int, float))
                         and not isinstance(v, bool)
                         for v in weights.values()),
                 "param 'weights' must map class names to numbers")
        try:
            weights = Weights.from_dict(
                {k: float(v) for k, v in weights.items()}).as_dict()
        except ValueError as exc:
            raise ProtocolError(BAD_REQUEST, str(exc))
    else:
        weights = PAPER_WEIGHTS.as_dict()
    return {
        "source": source,
        "optimize": _field(params, "optimize", bool, False),
        "execute": execute,
        "delta": _field(params, "delta", float, DEFAULT_DELTA),
        "weights": weights,
        "cache": cache_config_to_dict(_cache_config(params)),
        "max_steps": _field(params, "max_steps", int, 300_000_000),
    }


def _normalize_simulate(params: dict) -> dict[str, Any]:
    source = params.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "param 'source' (MiniC text) is required")
    raw_configs = params.get("configs")
    if raw_configs is None:
        configs = [BASELINE_CONFIG]
    else:
        _require(isinstance(raw_configs, list) and raw_configs,
                 "param 'configs' must be a non-empty list")
        configs = [_cache_config({"cache": entry})
                   for entry in raw_configs]
    # dedupe, order-preserving: replaying one config twice is never useful
    configs = list(dict.fromkeys(configs))
    return {
        "source": source,
        "optimize": _field(params, "optimize", bool, False),
        "configs": [cache_config_to_dict(c) for c in configs],
        "max_steps": _field(params, "max_steps", int, 300_000_000),
    }


def _normalize_predict(params: dict) -> dict[str, Any]:
    """``predict`` shares ``simulate``'s shape plus a fallback knob
    (``max_steps`` only matters when the fallback sweep actually runs,
    but stays in the key so a fallback-served entry is never replayed
    under a different execution budget)."""
    normalized = _normalize_simulate(params)
    normalized["fallback"] = _field(params, "fallback", bool, True)
    return normalized


def _tlb_config(entry: Any) -> "TlbConfig":
    from repro.tlb import TlbConfig
    _require(isinstance(entry, dict),
             "each TLB geometry must be an object")
    unknown = set(entry) - {"page_size", "entries", "assoc"}
    _require(not unknown,
             f"unknown TLB geometry field(s): "
             f"{', '.join(sorted(unknown))}")
    try:
        return TlbConfig(**entry)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(BAD_REQUEST, f"bad TLB geometry: {exc}")


def _normalize_tlb(params: dict) -> dict[str, Any]:
    """``tlb``: per-geometry dTLB stats plus the PCAX cross-tab.

    ``geometries`` mirrors ``simulate``'s ``configs`` (validated,
    deduped, defaults spelled out); ``threshold`` is the PCAX
    friendliness bar, evaluated at the first geometry's page size.
    """
    from repro.tlb import DEFAULT_THRESHOLD, TlbConfig
    source = params.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "param 'source' (MiniC text) is required")
    raw = params.get("geometries")
    if raw is None:
        configs = [TlbConfig()]
    else:
        _require(isinstance(raw, list) and raw,
                 "param 'geometries' must be a non-empty list")
        configs = [_tlb_config(entry) for entry in raw]
    configs = list(dict.fromkeys(configs))
    threshold = _field(params, "threshold", float, DEFAULT_THRESHOLD)
    _require(0.0 < threshold <= 1.0,
             "param 'threshold' must be in (0, 1]")
    return {
        "source": source,
        "optimize": _field(params, "optimize", bool, False),
        "geometries": [c.to_dict() for c in configs],
        "threshold": threshold,
        "max_steps": _field(params, "max_steps", int, 300_000_000),
    }


def _normalize_redundancy(params: dict) -> dict[str, Any]:
    source = params.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "param 'source' (MiniC text) is required")
    return {
        "source": source,
        "optimize": _field(params, "optimize", bool, False),
        "max_steps": _field(params, "max_steps", int, 300_000_000),
    }


def _normalize_sleep(params: dict) -> dict[str, Any]:
    seconds = _field(params, "seconds", float, 0.05)
    _require(0.0 <= seconds <= 60.0,
             "param 'seconds' must be in [0, 60]")
    return {"seconds": seconds}


@dataclass(frozen=True)
class OpSpec:
    """One operation: how its params are normalized and who answers it.

    ``normalize`` defaults to a copy of the params as sent (the control
    ops take none).  ``compute`` runs on the scheduler's worker pool via
    ``ops.execute_op``; ``None`` marks a control op the server answers
    inline.  ``cacheable`` ops get a content-hash key, so equal requests
    share a cache entry and coalesce.
    """

    normalize: Callable[[dict], dict[str, Any]] = dict
    compute: Optional[Callable[[dict], dict[str, Any]]] = None
    cacheable: bool = False


#: Every operation the server accepts, in the order error messages list
#: them.  ``sleep`` is a diagnostic op used by the tests and benchmarks
#: to exercise backpressure and timeouts.
OPS: dict[str, OpSpec] = {
    "analyze": OpSpec(partial(_normalize_analysis, execute=True),
                      ops.run_analysis, cacheable=True),
    "classify": OpSpec(partial(_normalize_analysis, execute=False),
                       ops.run_analysis, cacheable=True),
    "simulate": OpSpec(_normalize_simulate, ops.run_simulate,
                       cacheable=True),
    "predict": OpSpec(_normalize_predict, ops.run_predict,
                      cacheable=True),
    "tlb": OpSpec(_normalize_tlb, ops.run_tlb, cacheable=True),
    "redundancy": OpSpec(_normalize_redundancy, ops.run_redundancy,
                         cacheable=True),
    "health": OpSpec(),
    "metrics": OpSpec(),
    "shutdown": OpSpec(),
    "sleep": OpSpec(_normalize_sleep, ops.run_sleep),
}


def _spec(op: str) -> OpSpec:
    spec = OPS.get(op)
    if spec is None:
        raise ProtocolError(
            UNKNOWN_OP, f"unknown op {op!r}; valid ops: {', '.join(OPS)}")
    return spec


def normalize(op: str, params: dict) -> dict[str, Any]:
    """Validated params of ``op``, every default spelled out; raises
    :class:`ProtocolError` (``unknown_op`` / ``bad_request``)."""
    return _spec(op).normalize(params)


def parse_request(line: bytes) -> Request:
    """Decode + validate + normalize one request line.

    Raises :class:`ProtocolError` on any malformation; the server turns
    that into a ``bad_request`` / ``unknown_op`` response.
    """
    if len(line) > MAX_REQUEST_BYTES:
        raise ProtocolError(BAD_REQUEST, "request exceeds size limit")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(BAD_REQUEST, "request is not valid JSON")
    _require(isinstance(obj, dict), "request must be a JSON object")
    version = obj.get("version", PROTOCOL_VERSION)
    _require(version == PROTOCOL_VERSION,
             f"unsupported protocol version: {version!r}")
    op = obj.get("op")
    _require(isinstance(op, str), "request field 'op' is required")
    spec = _spec(op)
    params = obj.get("params", {})
    _require(isinstance(params, dict),
             "request field 'params' must be an object")
    timeout = obj.get("timeout")
    if timeout is not None:
        _require(isinstance(timeout, (int, float))
                 and not isinstance(timeout, bool) and timeout > 0,
                 "request field 'timeout' must be a positive number")
        timeout = float(timeout)
    return Request(id=obj.get("id"), op=op, params=spec.normalize(params),
                   timeout=timeout)
