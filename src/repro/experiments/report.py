"""EXPERIMENTS.md renderer: paper-vs-measured for every exhibit.

Its one caller is ``python -m repro campaign --report PATH``, which
passes the campaign's tables and the ablations.

For each regenerated table the report embeds the measured output, quotes
the paper's published averages, and runs an automated *shape check* — the
qualitative claim the exhibit supports (who wins, stability, monotone
trends) — since absolute numbers cannot transfer from the authors' SPEC
binaries on SimpleScalar to synthetic workloads on our simulator.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.experiments import paperdata
from repro.experiments.common import Table
from repro.experiments.runner import TABLE_MODULES

_PCT = re.compile(r"(-?\d+(?:\.\d+)?)%")


def _percents(cell: str) -> list[float]:
    return [float(x) for x in _PCT.findall(cell)]


def _average_row(table: Table) -> Optional[list[str]]:
    for row in table.rows:
        if row[0] == "AVERAGE":
            return row
    return None


def _check(label: str, ok: bool) -> str:
    return f"- [{'x' if ok else ' '}] {label}"


def _shape_checks(number: int, table: Table) -> list[str]:
    if number > 17:          # ablations carry their own assertions
        return []
    avg = _average_row(table)
    checks: list[str] = []
    if avg is None and number not in (2, 3, 4, 5, 6):
        return ["- (no AVERAGE row found)"]
    if number == 1:
        ideal = _percents(avg[2])[0]
        prof = _percents(avg[3])[0]
        rho = _percents(avg[4])[0]
        checks.append(_check(
            f"profiling finds a small fraction of loads "
            f"(measured {prof:.2f}%, paper 4.73%; synthetic binaries "
            f"carry less cold code than SPEC)", prof < 40))
        checks.append(_check(
            f"ideal set is much smaller than the profiling set "
            f"(measured {ideal:.2f}% vs {prof:.2f}%)", ideal < prof))
        checks.append(_check(
            f"profiling coverage is high (measured {rho:.1f}%, "
            f"paper 87.5%)", rho > 60))
    elif number == 7:
        pi1, rho1 = _percents(avg[1])
        pi2, rho2 = _percents(avg[2])
        checks.append(_check(
            f"pi stable across inputs (measured {pi1:.0f}% vs "
            f"{pi2:.0f}%, paper 10% vs 11%)", abs(pi1 - pi2) <= 5))
        checks.append(_check(
            f"rho stable and high across inputs (measured {rho1:.0f}% "
            f"vs {rho2:.0f}%, paper 95/96%)",
            abs(rho1 - rho2) <= 8 and min(rho1, rho2) > 70))
    elif number in (8, 9):
        rhos = [_percents(c)[0] for c in avg[2:]]
        spread = max(rhos) - min(rhos)
        what = "associativities" if number == 8 else "cache sizes"
        checks.append(_check(
            f"rho stable across {what} (measured spread "
            f"{spread:.1f}pp, paper <= 2pp)", spread <= 10))
        checks.append(_check(
            f"rho high everywhere (min {min(rhos):.0f}%, paper ~90%)",
            min(rhos) > 65))
    elif number == 10:
        pi = _percents(avg[1])[0]
        rho = _percents(avg[2])[0]
        checks.append(_check(
            f"held-out pi stays low (measured {pi:.1f}%, paper 9.06%)",
            pi < 25))
        checks.append(_check(
            f"held-out rho stays high (measured {rho:.1f}%, paper "
            f"88.29%)", rho > 65))
    elif number == 11:
        pi1 = _percents(avg[1])[0]
        rho1 = _percents(avg[2])[0]
        pi2 = _percents(avg[4])[0]
        rho2 = _percents(avg[5])[0]
        checks.append(_check(
            f"with AG8/9: ~10% of loads cover ~90% of misses "
            f"(measured pi {pi1:.1f}% rho {rho1:.1f}%, paper 10.15% / "
            f"92.61%)", pi1 < 25 and rho1 > 70))
        checks.append(_check(
            f"dropping AG8/9 widens the set at similar coverage "
            f"(measured pi {pi2:.1f}% vs {pi1:.1f}%, rho {rho2:.1f}%, "
            f"paper 20.82% vs 10.15%)",
            pi2 >= pi1 and abs(rho2 - rho1) <= 8))
    elif number == 12:
        okn_pi, okn_rho = _percents(avg[1])[0], _percents(avg[2])[0]
        bdh_pi, bdh_rho = _percents(avg[3])[0], _percents(avg[4])[0]
        checks.append(_check(
            f"OKN needs far more loads for similar coverage "
            f"(measured pi {okn_pi:.1f}% rho {okn_rho:.0f}%, paper "
            f"55.88% / 92.06%)", okn_pi > 18))
        checks.append(_check(
            f"BDH needs far more loads for similar coverage "
            f"(measured pi {bdh_pi:.1f}% rho {bdh_rho:.0f}%, paper "
            f"50.73% / 93.00%)", bdh_pi > 18))
    elif number == 13:
        pairs = [_percents(c) for c in avg[1:]]
        pis = [p[0] for p in pairs]
        rhos = [p[1] for p in pairs]
        checks.append(_check(
            f"pi falls as delta rises (measured {pis}, paper "
            f"14/12/9/6)", all(a >= b for a, b in zip(pis, pis[1:]))))
        checks.append(_check(
            f"rho falls as delta rises (measured {rhos}, paper "
            f"92/89/78/68)",
            all(a >= b - 1e-9 for a, b in zip(rhos, rhos[1:]))))
    elif number == 14:
        pi0 = _percents(avg[1])[0]
        rho0 = _percents(avg[2])[0]
        rho_star = _percents(avg[3])[0]
        checks.append(_check(
            f"combined scheme pinpoints ~1-3% of loads (measured "
            f"{pi0:.2f}%, paper 1.30%)", pi0 < 8))
        checks.append(_check(
            f"combined coverage stays high (measured {rho0:.0f}%, "
            f"paper 82%)", rho0 > 55))
        checks.append(_check(
            f"random hotspot labelling is far worse (rho* measured "
            f"{rho_star:.0f}%, paper 23%)", rho_star < rho0 - 10))
    elif number == 15:
        data = [row for row in table.rows if row[0] != "AVERAGE"]
        best = max(data, key=lambda row: _percents(row[4])[0])
        best_err, avg_err = float(best[3]), float(avg[3])
        avg_cov = _percents(avg[4])[0]
        checks.append(_check(
            f"prediction error shrinks where coverage grows "
            f"(best-coverage workload {best[0]}: {best_err:.2f} pp "
            f"vs suite average {avg_err:.2f} pp)",
            best_err <= avg_err))
        checks.append(_check(
            f"the coverage gate is earned: suite-average HIGH "
            f"coverage is {avg_cov:.1f}%, far below the 80% "
            f"confidence threshold, so predict_stats serves these "
            f"rows from the measured sweep by default",
            avg_cov < 80.0))
    elif number == 16:
        micro = _percents(avg[1])[0]
        large = _percents(avg[2])[0]
        friendly = _percents(avg[3])[0]
        checks.append(_check(
            f"dTLB misses fall when reach quadruples (measured "
            f"{micro:.2f}% -> {large:.2f}% suite average; LRU "
            f"inclusion makes this a hard guarantee per workload)",
            large <= micro + 1e-9))
        checks.append(_check(
            f"most loads have PCAX-predictable translations "
            f"(measured {friendly:.1f}% friendly; regular array code "
            f"dominates the suite)", friendly > 50))
    elif number == 17:
        redundant = _percents(avg[3])[0]
        ras = _percents(avg[4])[0]
        checks.append(_check(
            f"a large share of load traffic is redundant (measured "
            f"{redundant:.1f}% suite average; re-reads of live "
            f"addresses, the register-promotion opportunity)",
            redundant > 20))
        checks.append(_check(
            f"reload-after-store is a strict subset of redundant "
            f"traffic (measured {ras:.1f}% <= {redundant:.1f}%)",
            ras <= redundant + 1e-9))
    return checks


_PAPER_NOTES = {
    1: "Paper averages: ideal 0.73%, profiling 4.73%, rho 87.5%.",
    2: "Paper counts are full SPEC runs (1e8-1e12 instructions); ours "
       "are scaled-down synthetic instances — compare shapes, not "
       "magnitudes.  Like the paper's L1 D-cache columns, accesses and "
       "misses count every data reference, loads and stores alike; "
       "load-only counts would be lower.",
    3: "Paper found 15 H1 classes over its training set (its Table 3); "
       "class structure depends on the workload population.",
    4: "Paper example (class 'sp=1,gp=1'): relevant in 5 of 7 "
       "benchmarks where found, W = 0.47.",
    5: "Paper weights: AG1 +0.28, AG2 +0.33, AG3 +0.47, AG4 +0.16, "
       "AG5 +0.67, AG6 +1.72, AG7 +0.10, AG8 -0.20, AG9 -0.40.  On this "
       "synthetic suite several classes retrain to *neutral*: the "
       "aggregate classes cover nearly all misses (n -> 1), so the "
       "strength index r = m/n collapses to the class miss probability "
       "and falls below the paper's 1/20 bound on at least one "
       "benchmark.  The shipped default therefore remains the paper's "
       "weight vector; Ablation E compares both.",
    6: "Mirrors the paper's Table 6 input listing.",
    7: "Paper averages: 10%/95% on input 1, 11%/96% on input 2.",
    8: "Paper averages: pi 14%; rho 91/92/90% for assoc 2/4/8.",
    9: "Paper averages: pi 14%; rho 92/92/91/91% for 8k/16k/32k/64k.",
    10: "Paper averages: pi 9.06%, rho 88.29%.",
    11: "Paper averages: pi 10.15%, rho 92.61%, xi 14.04%; without "
        "AG8/9: pi 20.82%, rho 92.89%.",
    12: "Paper averages: OKN 55.88%/92.06%, BDH 50.73%/93.00%.",
    13: "Paper averages (pi/rho): 14/92, 12/89, 9/78, 6/68.",
    14: "Paper averages: eps=0 1.30%/82% (rho* 23%), eps=0.3 "
        "3.95%/88%.",
    15: "Not a paper exhibit.  Forced-analytic (no-fallback) "
        "prediction vs. measurement; in normal operation every row "
        "below the 80% coverage threshold is answered by the measured "
        "sweep instead, so the errors here bound the *confessed* "
        "regime, not what predict_stats actually serves.",
    16: "Not a paper exhibit.  The paper targets data-cache misses; "
        "this table replays the same traces at page granularity "
        "through the same sweep engine (micro TLB geometries sized to "
        "the scaled suite) and asks whether delinquent loads' page "
        "translations would be covered by a PCAX-style predictor.",
    17: "Not a paper exhibit.  Redundant loads re-read addresses an "
        "earlier access already touched; reloads after stores are the "
        "store-to-load-forwarding subset.  Delinquent loads with high "
        "redundancy are register-promotion targets, not prefetch "
        "targets.",
}


def render_report(results: dict[int, Table],
                  scale: float = 1.0) -> str:
    """Paper tables (1-17) and ablations (101-110) as one report.

    The header names the command that regenerates it, with only the
    flags that decide the content, so every way of producing one
    report (over a cold or a warm cache, any ``--jobs``) writes one
    header.
    """
    tables = [number for number in results if number in TABLE_MODULES]
    subset = "" if len(tables) == len(TABLE_MODULES) \
        else " --tables " + ",".join(map(str, sorted(tables)))
    command = (f"python -m repro campaign{subset} --scale {scale} "
               f"--report EXPERIMENTS.md")
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Generated by `{command}`.",
        "",
        f"Workload scale factor: {scale}.  Absolute values depend on "
        "the synthetic workload sizes; the shape checks below encode "
        "each exhibit's qualitative claim.",
        "",
    ]
    for number in sorted(results):
        table = results[number]
        lines.append(f"## {table.exhibit}: {table.title}")
        lines.append("")
        if number in _PAPER_NOTES:
            lines.append(f"**Paper:** {_PAPER_NOTES[number]}")
            lines.append("")
        lines.append("```")
        lines.append(table.render())
        lines.append("```")
        lines.append("")
        checks = _shape_checks(number, table)
        if checks:
            lines.append("**Shape checks:**")
            lines.append("")
            lines.extend(checks)
            lines.append("")
    return "\n".join(lines)


def write_report(results: dict[int, Table], path: str,
                 scale: float = 1.0) -> None:
    with open(path, "w") as handle:
        handle.write(render_report(results, scale=scale))
