"""Analytic reuse-profile engine: per-PC miss prediction with no trace.

Composes the static layers (CFG loops + trip counts, address patterns +
slot strides, array footprints) into predicted per-PC reuse-distance
histograms, evaluated against any LRU geometry through the same
histogram-to-:class:`~repro.cache.model.CacheStats` contract the
dynamic stack-distance sweep uses — zero machine execution.

Entry points:

* :func:`predict_profile` — program -> :class:`AnalyticProfile`
* :meth:`AnalyticProfile.evaluate` — profile + config -> ``CacheStats``
* :attr:`AnalyticProfile.coverage` / ``confident`` — honesty: how much
  of the program the closed forms actually covered;
* :func:`analytic_answer` — the profiles a config set needs, through a
  profile store, and whether they may answer it (shared by the pipeline
  session and the service's ``predict`` op).
"""

from repro.analytic.engine import (CONFIDENCE_THRESHOLD, AnalyticAnswer,
                                   AnalyticProfile, analytic_answer,
                                   predict_profile, program_digest)
from repro.analytic.loopmodel import ProgramModel
from repro.analytic.reuse import HIGH, LOW, MEDIUM, Histogram, OpPrediction

__all__ = [
    "AnalyticAnswer",
    "AnalyticProfile",
    "CONFIDENCE_THRESHOLD",
    "Histogram",
    "HIGH",
    "LOW",
    "MEDIUM",
    "OpPrediction",
    "ProgramModel",
    "analytic_answer",
    "predict_profile",
    "program_digest",
]
