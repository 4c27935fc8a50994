"""Persistent, content-addressed storage for execution artifacts.

The package holds the chunked columnar trace store
(:mod:`repro.store.tracestore`), which persists memory-access streams so
a workload is executed at most once per (source, input, optimize,
engine-contract) key; the one trace handle every consumer acquires a
trace through (:mod:`repro.store.handle`); the one keyed JSON cache
tier behind every result and profile cache (:mod:`repro.store.tier`);
and the cache garbage collector (:mod:`repro.store.gc`) that bounds
every on-disk cache tier by size.
"""

from repro.store.handle import TraceHandle
from repro.store.tracestore import (TraceStore, TraceStoreCorrupt,
                                    TraceStoreWriter, trace_key)

__all__ = ["TraceHandle", "TraceStore", "TraceStoreCorrupt",
           "TraceStoreWriter", "trace_key"]
