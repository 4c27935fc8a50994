"""Evaluation measures and validation checks."""

from repro.metrics.measures import coverage, ideal_delta, precision, xi

__all__ = ["coverage", "ideal_delta", "precision", "xi"]
