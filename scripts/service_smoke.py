#!/usr/bin/env python
"""Service smoke probe: start a real server process, exercise it, stop it.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/service_smoke.py
    PYTHONPATH=src python scripts/service_smoke.py --pool

Spawns ``python -m repro serve`` as a subprocess on an ephemeral port,
waits for its listening banner, then checks with a client that

1. ``health`` answers ok,
2. one ``analyze`` round trip is byte-identical to the in-process
   pipeline,
3. the repeat request is served from the cache,
4. ``metrics`` reports the traffic,
5. each of ``analyze``, ``predict``, ``tlb`` and ``redundancy``, run as
   ``python -m repro VERB PROG.c --json``, prints the same stdout
   locally and with ``--remote``, and a malformed ``--remote`` address
   exits 2,
6. the ``shutdown`` op terminates the process cleanly (exit code 0).

``--pool`` serves with two worker processes instead of one thread,
SIGKILLs one pool process while a request runs on it, and asserts that
every later request succeeds and that ``metrics`` counts the pool
restart.  It then sends ``classify`` at two deltas and ``tlb`` at two
geometry sets for one source, which the workers answer from their
program memos, and checks each reply against the in-process answer.

Exits non-zero on the first failed check.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import analyze_program               # noqa: E402
from repro.export import report_to_dict             # noqa: E402
from repro.service.client import ServiceClient      # noqa: E402

SOURCE = r"""
int a[512];
int main(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < 512; i = i + 1)
        a[i] = i;
    for (i = 0; i < 512; i = i + 1)
        s = s + a[i];
    print_int(s + n);
    return 0;
}
"""


#: The CLI verbs that answer a service op, locally or with --remote.
OP_VERBS = ("analyze", "predict", "tlb", "redundancy")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(workers: int) -> tuple[subprocess.Popen, str, int]:
    """Spawn ``repro serve``; returns the process and its address."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--no-disk-cache"],
        stdout=subprocess.PIPE, text=True, env=_env(), cwd=REPO_ROOT)
    banner = proc.stdout.readline().strip()
    print(f"smoke: {banner}")
    prefix = "repro service listening on "
    if not banner.startswith(prefix):
        proc.kill()
        proc.wait()
        raise AssertionError(f"unexpected banner: {banner!r}")
    host, port = banner[len(prefix):].rsplit(":", 1)
    return proc, host, int(port)


def _repro(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` as a subprocess, output captured."""
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=_env(),
                          cwd=REPO_ROOT, timeout=300)


def _check_cli(address: str) -> None:
    """Every op verb's --json stdout is the same locally and remotely."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "prog.c")
        Path(path).write_text(SOURCE)
        for verb in OP_VERBS:
            local = _repro(verb, path, "--json")
            remote = _repro(verb, path, "--json", "--remote", address)
            assert local.returncode == 0, (verb, local.stderr)
            assert remote.returncode == 0, (verb, remote.stderr)
            assert remote.stdout == local.stdout, \
                f"{verb} --json differs between local and --remote"
            print(f"smoke: {verb} --json identical locally and with "
                  f"--remote ({len(local.stdout)} bytes)")
        bad = _repro("tlb", path, "--remote", "no-port")
        assert bad.returncode == 2, (bad.returncode, bad.stderr)
        print("smoke: malformed --remote address exits 2")


def _check_memo(client: ServiceClient, address: str) -> None:
    """Ops on one source from the workers' program memos agree with the
    in-process pipeline and with the CLI run locally."""
    for delta in (0.10, 0.30):
        served = client.call("classify", {"source": SOURCE,
                                          "delta": delta})
        local = report_to_dict(analyze_program(SOURCE, execute=False,
                                               delta=delta))
        assert json.dumps(served) == json.dumps(local), \
            f"classify at delta {delta} diverges from in-process"
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "prog.c")
        Path(path).write_text(SOURCE)
        for geometries in (("4096,64",), ("4096,16,4", "65536,8")):
            flags = [arg for g in geometries for arg in ("--geometry", g)]
            local = _repro("tlb", path, "--json", *flags)
            remote = _repro("tlb", path, "--json", *flags,
                            "--remote", address)
            assert local.returncode == 0, local.stderr
            assert remote.returncode == 0, remote.stderr
            assert remote.stdout == local.stdout, \
                f"tlb {' '.join(geometries)} differs with --remote"
    print("smoke: classify at 2 deltas and tlb at 2 geometry sets "
          "identical to in-process")


def _stop(proc: subprocess.Popen, client: ServiceClient) -> None:
    client.call("shutdown")
    proc.wait(timeout=30)
    assert proc.returncode == 0, f"server exited with {proc.returncode}"


def _children(pid: int) -> list[int]:
    """Process ids whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue        # exited while we looked
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def main() -> int:
    proc, host, port = _start(workers=0)
    try:
        with ServiceClient(host, port, timeout=120.0) as client:
            health = client.call("health")
            assert health["status"] == "ok", health
            print(f"smoke: health ok "
                  f"(v{health['version']}, "
                  f"protocol {health['protocol_version']})")

            served = client.call("analyze", {"source": SOURCE})
            local = report_to_dict(analyze_program(SOURCE))
            assert json.dumps(served) == json.dumps(local), \
                "served analyze diverges from in-process pipeline"
            print(f"smoke: analyze round trip identical "
                  f"({served['summary']['num_loads']} loads, "
                  f"{served['summary']['num_delinquent']} delinquent)")

            repeat = client.request("analyze", {"source": SOURCE})
            assert repeat["cached"] == "memory", repeat.get("cached")
            print("smoke: repeat request served from memory cache")

            metrics = client.call("metrics")
            assert metrics["requests"]["by_op"].get("analyze") == 2, \
                metrics["requests"]
            print(f"smoke: metrics ok "
                  f"(p50 analyze "
                  f"{metrics['latency']['analyze']['p50_ms']}ms)")

            _check_cli(f"{host}:{port}")
            _stop(proc, client)
        print("smoke: clean shutdown — all checks passed")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def pool_main() -> int:
    proc, host, port = _start(workers=2)
    try:
        with ServiceClient(host, port, timeout=120.0) as client:
            health = client.call("health")
            assert health["pool_mode"] == "process", health
            client.call("sleep", {"seconds": 0.0})   # forks the pool
            pool = _children(proc.pid)
            assert len(pool) == 2, f"expected 2 pool processes: {pool}"
            print(f"smoke: pool processes {pool}")

            outcome: list[str] = []

            def running() -> None:
                with ServiceClient(host, port, timeout=120.0) as other:
                    try:
                        other.call("sleep", {"seconds": 3.0})
                        outcome.append("ok")
                    except Exception as exc:   # noqa: BLE001 - report
                        outcome.append(str(exc))

            thread = threading.Thread(target=running)
            thread.start()
            time.sleep(0.5)                     # now on the pool
            os.kill(pool[0], signal.SIGKILL)
            print(f"smoke: killed pool process {pool[0]}")
            thread.join()
            print(f"smoke: request running at the kill: {outcome[0]}")

            local = json.dumps(report_to_dict(analyze_program(SOURCE)))
            for index in range(8):
                # trailing newlines: fresh cache keys, same program
                served = client.call(
                    "analyze", {"source": SOURCE + "\n" * (index + 1)})
                assert json.dumps(served) == local, \
                    f"request {index} diverges after the kill"
            print("smoke: 8/8 requests after the kill succeeded")

            restarts = client.call("metrics")["pool"]["restarts"]
            assert restarts >= 1, f"pool restarts: {restarts}"
            print(f"smoke: metrics count {restarts} pool restart(s)")

            _check_memo(client, f"{host}:{port}")

            _stop(proc, client)
        print("smoke: clean shutdown — all process-pool checks passed")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(pool_main() if "--pool" in sys.argv else main())
