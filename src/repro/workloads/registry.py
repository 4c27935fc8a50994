"""Workload registry: the 18 synthetic SPEC-counterpart benchmarks.

Eleven *training* workloads mirror the set the paper trains its weights
on (Section 6 / Table 6); seven *test* workloads mirror the held-out set
of Section 8.4.
"""

from __future__ import annotations

from repro.workloads import (
    ammp, art, compress, equake, espresso, gcc, go, gzip, ijpeg, li,
    m88ksim, mcf, parser, sc, tomcatv, twolf, vortex, vpr,
)
from repro.workloads.base import Workload

ALL_WORKLOADS: tuple[Workload, ...] = (
    espresso.WORKLOAD,
    li.WORKLOAD,
    sc.WORKLOAD,
    go.WORKLOAD,
    tomcatv.WORKLOAD,
    m88ksim.WORKLOAD,
    gcc.WORKLOAD,
    compress.WORKLOAD,
    ijpeg.WORKLOAD,
    vortex.WORKLOAD,
    gzip.WORKLOAD,
    vpr.WORKLOAD,
    art.WORKLOAD,
    mcf.WORKLOAD,
    equake.WORKLOAD,
    ammp.WORKLOAD,
    parser.WORKLOAD,
    twolf.WORKLOAD,
)

BY_NAME: dict[str, Workload] = {w.name: w for w in ALL_WORKLOADS}


def get(name: str) -> Workload:
    if name not in BY_NAME:
        raise KeyError(f"unknown workload {name!r}; known: "
                       f"{sorted(BY_NAME)}")
    return BY_NAME[name]


def names(category: str | None = None) -> list[str]:
    return [w.name for w in ALL_WORKLOADS
            if category is None or w.category == category]
