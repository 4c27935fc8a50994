"""Evaluation measures from Section 8 of the paper.

* ``pi`` — precision measure: |Delta| / |Lambda| (share of static loads
  flagged as possibly delinquent; lower is sharper).
* ``rho`` — coverage: fraction of all load misses caused by Delta members.
* ideal Delta — the smallest load set reaching a target coverage, found by
  greedily taking loads in descending miss count (Table 1, column 3).
* ``xi`` — dynamic false-positive impact: the fraction of dynamic load
  executions attributable to loads flagged by the heuristic but absent
  from the ideal set (Table 11, column 4).
"""

from __future__ import annotations

from typing import Iterable, Mapping


def precision(delta: set[int], num_loads: int) -> float:
    """pi(H) = |Delta| / |Lambda|."""
    if num_loads == 0:
        return 0.0
    return len(delta) / num_loads


def coverage(delta: Iterable[int], load_misses: Mapping[int, int]) -> float:
    """rho(H) = M_Delta / M over load misses."""
    total = sum(load_misses.values())
    if total == 0:
        return 0.0
    covered = sum(load_misses.get(address, 0) for address in delta)
    return covered / total


def ideal_delta(load_misses: Mapping[int, int],
                target_rho: float) -> set[int]:
    """Smallest set of loads covering ``target_rho`` of all misses.

    Loads are taken greedily in descending miss order — the paper's
    construction for the 'Ideal' column of Table 1.
    """
    total = sum(load_misses.values())
    if total == 0:
        return set()
    chosen: set[int] = set()
    covered = 0
    for address, misses in sorted(load_misses.items(),
                                  key=lambda item: (-item[1], item[0])):
        if misses == 0 or covered >= target_rho * total:
            break
        chosen.add(address)
        covered += misses
    return chosen


def xi(delta: set[int], ideal: set[int],
       exec_counts: Mapping[int, int]) -> float:
    """Dynamic impact of false positives.

    The strict definition of Section 8.5: a false positive is a load in
    the heuristic's Delta but not in the ideal Delta; xi is the share of
    *dynamic* load executions those false positives account for.
    """
    total = sum(exec_counts.values())
    if total == 0:
        return 0.0
    mislabeled = delta - ideal
    dynamic = sum(exec_counts.get(address, 0) for address in mislabeled)
    return dynamic / total
