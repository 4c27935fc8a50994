"""Page-granular TLB scenario family.

The dTLB model (:mod:`repro.tlb.model`) maps TLB geometries onto the
cache replay and stack-distance sweep machinery; the PCAX evaluation
(:mod:`repro.tlb.pcax`) measures PC-indexed translation predictability
and cross-tabulates it against the paper's delinquent set.
"""

from repro.tlb.model import (DEFAULT_ENTRIES, DEFAULT_PAGE_SIZE,
                             TlbConfig, TlbStats, simulate_tlb)
from repro.tlb.pcax import (DEFAULT_THRESHOLD, MIN_ACCESSES, PcaxLoad,
                            PcaxProfile, naive_pcax, pcax_crosstab,
                            pcax_profile)

__all__ = [
    "DEFAULT_ENTRIES",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_THRESHOLD",
    "MIN_ACCESSES",
    "PcaxLoad",
    "PcaxProfile",
    "TlbConfig",
    "TlbStats",
    "naive_pcax",
    "pcax_crosstab",
    "pcax_profile",
    "simulate_tlb",
]
