"""Delinquency-analysis service.

The analysis pipeline (compile, dataflow, classify, simulate) costs the
same whether it is invoked once or ten thousand times — but the clients
named in :mod:`repro.export` (prefetch-insertion passes, report
generators, IDE plugins) issue many small, repetitive requests.  This
package exposes the pipeline as a **long-lived server** so that cost is
paid once per distinct (source, configuration) and amortized across
requests:

* :mod:`repro.service.protocol` — versioned JSON-lines request/response
  wire format, content-hash request keys, and ``OPS``, the one table of
  operations (normalizer, compute, cacheable) every layer reads;
* :mod:`repro.service.ops` — the pure, picklable compute functions
  behind the scheduled operations;
* :mod:`repro.service.metrics` — request counters, latency percentiles,
  cache hit rates, coalescing and queue statistics;
* :mod:`repro.service.scheduler` — the result cache (a
  :class:`~repro.store.tier.JsonTier` over the shared on-disk cache
  directory), bounded request queue with overload responses, request
  coalescing, and a persistent worker pool;
* :mod:`repro.service.server` — the asyncio TCP front end
  (``python -m repro serve``);
* :mod:`repro.service.client` — a small blocking client whose
  ``call(op, params)`` serves every op (and the CLI's ``--remote``).
"""

from repro.service.client import ServiceClient, ServiceError, parse_address
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import (AnalysisServer, ServerConfig, run_server,
                                  serve_in_thread)

__all__ = [
    "AnalysisServer",
    "PROTOCOL_VERSION",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "parse_address",
    "run_server",
    "serve_in_thread",
]
