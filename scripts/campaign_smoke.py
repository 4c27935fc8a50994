#!/usr/bin/env python
"""Campaign smoke probe: run, SIGKILL mid-flight, rerun, verify.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/campaign_smoke.py

Exercises the ``python -m repro campaign`` CLI end to end:

1. launches a three-table campaign subprocess against a scratch cache
   directory and SIGKILLs it as soon as the manifest records a finished
   ``scenario`` cell (Table 17's fused dTLB/PCAX/redundancy pass),
2. reruns the same command through a ``-c`` launcher that makes
   computing any completed cell raise, so a clean exit *proves* zero
   redundant work, and checks that the rerun recorded every completed
   cell, tables included, as ``disk``,
3. checks ``--status`` reports the finished manifest with no stale
   cells,
4. re-runs the whole campaign in a second scratch directory without
   interruption and asserts the rendered tables are byte-identical.

Exits non-zero on the first failed check.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import Manifest, campaign_dir      # noqa: E402

SCALE = "0.03"
TABLES = "6,10,17"

#: ``python -c`` program: the CLI, with computing a cell raising for
#: every cell id listed in the file argv[1] names.
_TRIPWIRE_CLI = """
import sys
from pathlib import Path
from repro.__main__ import main
from repro.campaign import engine

completed = set(Path(sys.argv[1]).read_text().split())
compute = engine._compute_cell

def compute_cold(session, plan):
    if plan.id in completed:
        raise RuntimeError(f"tripwire: recomputed completed {plan.id}")
    return compute(session, plan)

engine._compute_cell = compute_cold
sys.exit(main(sys.argv[2:]))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _campaign_cmd(cache: Path, *extra: str,
                  launcher: tuple = ("-m", "repro")) -> list:
    return [sys.executable, *launcher, "campaign",
            "--tables", TABLES, "--scale", SCALE, "--jobs", "1",
            "--cache-dir", str(cache), *extra]


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="campaign-smoke-"))
    killed_cache = scratch / "killed"
    clean_cache = scratch / "clean"
    manifest = Manifest(campaign_dir(killed_cache))

    # 1. start the campaign and kill it once a scenario cell lands
    child = subprocess.Popen(_campaign_cmd(killed_cache),
                             env=_env(), cwd=REPO_ROOT,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 300
        while time.time() < deadline:
            if child.poll() is not None:
                break
            if any(cell.startswith("scenario:")
                   for cell in manifest.latest()):
                child.send_signal(signal.SIGKILL)
                break
            time.sleep(0.05)
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    completed = manifest.latest()
    assert any(cell.startswith("scenario:") for cell in completed), \
        "campaign was killed before any scenario cell landed"
    interrupted = child.returncode != 0
    print(f"smoke: killed campaign with {len(completed)} cell(s) "
          f"recorded (interrupted={interrupted})")

    # 2. a plain rerun, with the tripwire on every completed cell
    forbid = scratch / "forbid.txt"
    forbid.write_text("\n".join(sorted(completed)) + "\n")
    seen = {entry["campaign"] for entry in manifest.entries()}
    rerun = subprocess.run(
        _campaign_cmd(killed_cache, launcher=("-c", _TRIPWIRE_CLI,
                                              str(forbid))),
        env=_env(), cwd=REPO_ROOT, capture_output=True, text=True)
    assert rerun.returncode == 0, \
        f"rerun failed (tripwire?):\n{rerun.stderr}"
    tiers = {entry["cell"]: entry["tier"]
             for entry in manifest.entries()
             if entry["campaign"] not in seen}
    stale = sorted(cell for cell in completed if tiers.get(cell) != "disk")
    assert not stale, f"completed cells not read back from disk: {stale}"
    print(f"smoke: rerun read all {len(completed)} completed cell(s) "
          f"back from disk and computed "
          f"{sum(tier == 'computed' for tier in tiers.values())}")

    # 3. the manifest is complete and current
    status = subprocess.run(
        _campaign_cmd(killed_cache, "--status"),
        env=_env(), cwd=REPO_ROOT, capture_output=True, text=True)
    assert status.returncode == 0, status.stderr
    summary = json.loads(status.stdout)
    assert summary["stale_cells"] == 0, summary
    assert summary["by_kind"].get("table") == 3, summary
    assert summary["by_kind"].get("scenario") == 18, summary
    print(f"smoke: status ok ({summary['cells']} cells, "
          f"{summary['recorded_wall_s']}s recorded)")

    # 4. byte-identical tables vs an uninterrupted campaign
    fresh = subprocess.run(_campaign_cmd(clean_cache),
                           env=_env(), cwd=REPO_ROOT,
                           capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    for number in (6, 10, 17):
        name = f"table{number:02d}.txt"
        rerun_text = (campaign_dir(killed_cache) / "tables"
                      / name).read_text()
        fresh_text = (campaign_dir(clean_cache) / "tables"
                      / name).read_text()
        assert rerun_text == fresh_text, \
            f"{name} diverges between rerun and clean campaigns"
    print("smoke: rerun tables byte-identical to a clean run — "
          "all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
