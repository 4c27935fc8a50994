#!/usr/bin/env python
"""Campaign smoke probe: run, SIGKILL mid-flight, resume, verify.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/campaign_smoke.py

Exercises the ``python -m repro campaign`` CLI end to end:

1. launches a three-table campaign subprocess against a scratch cache
   directory and SIGKILLs it as soon as the manifest records a finished
   ``scenario`` cell (Table 17's fused dTLB/PCAX/redundancy pass),
2. resumes with ``--resume`` while the ``REPRO_CAMPAIGN_FORBID``
   tripwire lists every completed cell — any attempt to recompute one
   raises, so a clean exit *proves* zero redundant work,
3. checks ``--status`` reports the finished ledger with no stale
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


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _campaign_cmd(cache: Path, *extra: str) -> list:
    return [sys.executable, "-m", "repro", "campaign",
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

    # 2. resume with the tripwire armed on every completed cell
    forbid = scratch / "forbid.txt"
    forbid.write_text("\n".join(sorted(completed)) + "\n")
    env = _env()
    env["REPRO_CAMPAIGN_FORBID"] = str(forbid)
    resumed = subprocess.run(
        _campaign_cmd(killed_cache, "--resume"),
        env=env, cwd=REPO_ROOT, capture_output=True, text=True)
    assert resumed.returncode == 0, \
        f"resume failed (tripwire?):\n{resumed.stderr}"
    print("smoke: resume completed without recomputing any "
          "finished cell")

    # 3. the ledger is complete and current
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
        resumed_text = (campaign_dir(killed_cache) / "tables"
                        / name).read_text()
        fresh_text = (campaign_dir(clean_cache) / "tables"
                      / name).read_text()
        assert resumed_text == fresh_text, \
            f"{name} diverges between resumed and clean campaigns"
    print("smoke: resumed tables byte-identical to a clean run — "
          "all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
