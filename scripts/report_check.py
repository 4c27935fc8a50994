#!/usr/bin/env python
"""Report check: regenerate EXPERIMENTS.md at scale 1.0, cmp it, time it.

    PYTHONPATH=src python scripts/report_check.py

Runs the command EXPERIMENTS.md names (``python -m repro campaign
--scale 1.0 --report``) cold, in a temporary cache directory, through
:func:`report_golden.run_campaign`, and compares the regenerated report
byte for byte with the committed one.  It then prints one JSON record
of the run:

* ``wall_s`` — the whole command, campaign plus report;
* ``peak_rss_mb`` — the largest peak RSS of any process of the run
  (``getrusage(RUSAGE_CHILDREN).ru_maxrss``: the parent or one pool
  worker, whichever grew most);
* ``cells`` — per manifest cell kind, the cell count and the sum of
  the cells' ``wall_s`` (cells run in parallel, so these add up to more
  than the campaign's wall time);
* ``ablations_s`` — the ablation phase, which runs serially in the
  campaign parent after the last cell, and ``ablation_s`` per report
  number (Ablation J is 110).

Exits 1 when the report differs from EXPERIMENTS.md.  Takes about
3 min on 2 vCPUs; ``$REPRO_JOBS`` sets the pool size as for the CLI.
"""

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from report_golden import REPO_ROOT, run_campaign

from repro.campaign import Manifest, campaign_dir

SCALE = "1.0"
COMMITTED = REPO_ROOT / "EXPERIMENTS.md"

#: ``python -c`` program: the CLI with every ablation builder timed.
#: argv[1] is where the per-ablation seconds go; the rest is the CLI's.
_TIMED_CLI = """
import json, sys, time
from repro.__main__ import main
from repro.experiments import ablations

seconds = {}

def timed(number, build):
    def run(session):
        start = time.perf_counter()
        table = build(session)
        seconds[number] = round(time.perf_counter() - start, 2)
        return table
    return run

ablations.ABLATIONS = {number: timed(number, build)
                       for number, build in ablations.ABLATIONS.items()}
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump(seconds, handle)
sys.exit(code)
"""


def cell_totals(cache_dir: Path) -> dict[str, dict[str, float]]:
    """Cell count and summed ``wall_s`` per cell kind."""
    totals: dict[str, dict[str, float]] = {}
    for entry in Manifest(campaign_dir(cache_dir)).latest().values():
        kind = totals.setdefault(entry["kind"], {"cells": 0, "wall_s": 0.0})
        kind["cells"] += 1
        kind["wall_s"] = round(kind["wall_s"] + entry["wall_s"], 2)
    return dict(sorted(totals.items()))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="report-check-") as scratch:
        scratch = Path(scratch)
        times = scratch / "ablations.json"
        start = time.perf_counter()
        report = run_campaign(SCALE, scratch,
                              launcher=("-c", _TIMED_CLI, str(times)))
        wall = time.perf_counter() - start
        same = report.read_bytes() == COMMITTED.read_bytes()
        ablations = {int(number): seconds for number, seconds
                     in json.loads(times.read_text()).items()}
        cells = cell_totals(scratch / "cache")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "scale": float(SCALE),
        "report_matches": same,
        "wall_s": round(wall, 1),
        "peak_rss_mb": round(peak / 1024, 1),
        "cells": cells,
        "ablations_s": round(sum(ablations.values()), 2),
        "ablation_s": dict(sorted(ablations.items())),
    }, indent=1))
    if not same:
        print(f"report check: the scale-{SCALE} report differs from "
              f"{COMMITTED.name}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
