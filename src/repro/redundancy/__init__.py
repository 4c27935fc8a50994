"""Redundant-load scenario family.

The analyzer (:mod:`repro.redundancy.analyzer`) detects same-address
reloads and dead reload-after-store chains per PC in one streaming
pass; the cross-tab (:mod:`repro.redundancy.crosstab`) attributes the
dynamic counts to the paper's AG classes.
"""

from repro.redundancy.analyzer import (LoadRedundancy, RedundancyStats,
                                       analyze_redundancy,
                                       naive_redundancy)
from repro.redundancy.crosstab import ag_crosstab

__all__ = [
    "LoadRedundancy",
    "RedundancyStats",
    "ag_crosstab",
    "analyze_redundancy",
    "naive_redundancy",
]
