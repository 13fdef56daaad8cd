"""Benchmark entry point.

    python3 perfbench/run.py --cpu-slots 2 --serve-actors 2 \
        --builder-concurrency 1 --workload hot --seed 1 --seconds 6 --trace 0

Run from the root of a checkout. The workload runs in a child process
(``perfbench.workload``) under a wall-clock deadline; the child starts its
own Ray session under ``.pbw/``. Whatever the outcome, every
process of the child's process group is killed and waited for before this
script prints its result: the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. A run past its
deadline is recorded as failed with the last Ray Data progress line.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import session  # noqa: E402  (needs ROOT on the path)
WORK = ".pbw"  # short: Ray's socket paths under it must fit in 107 bytes
DEADLINE_S = 160.0  # one run's wall-clock limit; the run must end within 180 s


def group_members(pgid: int) -> list[int]:
    """Live processes whose process group is pgid."""
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(stat.split("/")[2]))
    return out


def kill_group(pgid: int, timeout_s: float = 20.0) -> bool:
    """SIGKILL every process of the group and wait until none is left."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if not group_members(pgid):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def last_progress_line(ray_dir: str) -> str:
    """The last line Ray Data's streaming executor logged in this session."""
    logs = sorted(glob.glob(os.path.join(ray_dir, "session_*", "logs", "ray-data", "*.log")),
                  key=os.path.getmtime)
    for path in reversed(logs):
        with open(path, errors="replace") as f:
            lines = [ln.strip() for ln in f if "streaming_executor" in ln or "Operator" in ln]
        if lines:
            return lines[-1]
    return "no Ray Data progress logged"


def run_with_deadline(cmd: list[str], deadline_s: float, ray_dir: str,
                      env=None, cwd=None, stdout=None):
    """Run cmd in its own process group; past the deadline kill the group.
    Returns (returncode or None on timeout, detail)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        rc = proc.wait(timeout=deadline_s)
        detail = f"exited {rc} after {time.monotonic() - t0:.1f}s"
    except subprocess.TimeoutExpired:
        rc = None
        detail = (f"deadline {deadline_s:g}s passed; last Ray Data progress: "
                  f"{last_progress_line(ray_dir)}")
    finally:
        kill_group(proc.pid)
        proc.wait()
    return rc, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="harvester_ray benchmark")
    p.add_argument("--workload", required=True, choices=["hot", "zipf"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cpu-slots", type=int, required=True, help="Ray logical CPU slots")
    p.add_argument("--serve-actors", type=int, required=True, help="QueryService actors")
    p.add_argument("--builder-concurrency", type=int, required=True,
                   help="SegmentBuilder actors per build or delta commit")
    a = p.parse_args(argv)
    # a terminated run still takes its process group down (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "harvester_ray", "__init__.py")):
        print(f"harvester_ray package not found under {ROOT}", file=sys.stderr)
        return 2
    if a.serve_actors > a.cpu_slots or a.builder_concurrency >= a.cpu_slots:
        print("serving actors must fit the slots, and builders must leave a slot for reads",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, WORK)
    shutil.rmtree(work, ignore_errors=True)  # no leftovers from earlier runs
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    ray_dir = os.path.join(work, "r")
    if len(ray_dir) > session.SOCKET_PATH_ROOM:
        # the checkout path is too long for Ray's sockets: the one thing the
        # run keeps outside it is this short-named temp dir, removed below
        ray_dir = tempfile.mkdtemp(prefix="pbr")
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0",
               RAY_enable_metrics_collection="0", PYTHONUNBUFFERED="1")
    cmd = [sys.executable, "-m", "perfbench.workload",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--cpu-slots", str(a.cpu_slots),
           "--serve-actors", str(a.serve_actors),
           "--builder-concurrency", str(a.builder_concurrency),
           "--work", WORK, "--ray-dir", ray_dir, "--result", result_path]
    rc, detail = run_with_deadline(cmd, DEADLINE_S, ray_dir, env=env, cwd=ROOT)
    print(f"# workload process {detail}")
    if rc is None or not os.path.exists(result_path):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = 1
    else:
        with open(result_path) as f:
            result = json.load(f)
        code = 0 if rc == 0 and result["metrics"] else 1
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(ray_dir, ignore_errors=True)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
