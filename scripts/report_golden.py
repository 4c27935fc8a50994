#!/usr/bin/env python
"""Report golden: pin every exhibit of EXPERIMENTS.md at scale 0.03.

    PYTHONPATH=src python scripts/report_golden.py --check   # CI
    PYTHONPATH=src python scripts/report_golden.py --write

Runs a cold ``python -m repro campaign --scale 0.03 --report`` (every
table plus the ablations) in a temporary cache directory and compares
the sha1 of each ``## `` section (Tables 1-17, Ablations A-J) with
``tests/golden/report.json``; ``--write`` regenerates that file.  Only
digests are pinned: at this scale some ablation benches' assertions do
not hold (Ablation I's ``L2 rho > 50`` fails on 197.parser, which has no
L2 misses), so ``benchmarks/bench_ablations.py`` asserts them at 0.25.
``scripts/report_check.py`` runs the same campaign at scale 1.0 and
compares the whole report with the committed EXPERIMENTS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden" / "report.json"
SCALE = "0.03"


def exhibit_digests(report: str) -> dict[str, str]:
    """sha1 of each ``## Exhibit: title`` section, keyed by exhibit."""
    return {section.split(":", 1)[0]:
            hashlib.sha1(section.encode()).hexdigest()
            for section in report.split("\n## ")[1:]}


def run_campaign(scale: str, scratch: Path,
                 launcher: tuple[str, ...] = ("-m", "repro")) -> Path:
    """Run a cold ``campaign --scale scale --report`` with its cache
    under ``scratch`` and return the report's path.

    ``launcher`` is what follows the interpreter: ``-m repro`` by
    default, or any ``-c`` program that hands the remaining arguments
    to :func:`repro.__main__.main`.
    """
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    report = scratch / "EXPERIMENTS.md"
    subprocess.run(
        [sys.executable, *launcher, "campaign", "--scale", scale,
         "--cache-dir", str(scratch / "cache"), "--report", str(report)],
        env=env, cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL)
    return report


def cold_report() -> str:
    with tempfile.TemporaryDirectory(prefix="report-golden-") as scratch:
        return run_campaign(SCALE, Path(scratch)).read_text()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    digests = exhibit_digests(cold_report())
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({"scale": float(SCALE),
                                      "exhibits": digests}, indent=1) + "\n")
        print(f"golden: wrote {len(digests)} exhibit digests")
        return 0
    expected = json.loads(GOLDEN.read_text())["exhibits"]
    differing = [name for name in dict.fromkeys([*expected, *digests])
                 if expected.get(name) != digests.get(name)]
    for name in differing:
        print(f"golden: {name} differs (expected {expected.get(name)}, "
              f"got {digests.get(name)})")
    if not differing:
        print(f"golden: all {len(digests)} exhibit digests match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
