"""Ray session for one benchmark run, sized to a fixed number of logical CPU
slots, plus the host context recorded with every run.

Serving actors and builder actors each hold a slot until killed and every
Dataset read task needs one free slot, so the benchmark shuts the
QueryService down and waits for all slots to come back before it starts any
Dataset pipeline (the deadlock CLAUDE.md records).
"""

from __future__ import annotations

import gc
import importlib
import os
import time

# Ray's AF_UNIX socket paths (<temp dir>/session_<time>_<pid>/sockets/
# plasma_store) must fit in 107 bytes, which leaves the temp dir 43
SOCKET_PATH_ROOM = 107 - len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def start(root: str, ray_dir: str, cpu_slots: int, object_store_mb: int = 256) -> None:
    """Start a local Ray session whose workers import the checkout's packages
    through PYTHONPATH, with its sockets, logs and spill under ray_dir."""
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=cpu_slots,
        object_store_memory=object_store_mb << 20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_dir,
        # keep idle task workers: a run re-spawning them between phases
        # measures process start-up on a loaded core, not the engine
        _system_config={"idle_worker_killing_time_threshold_ms": 600_000},
        runtime_env={
            "env_vars": {"PYTHONPATH": root, "RAY_USAGE_STATS_ENABLED": "0"},
            "worker_process_setup_hook": "perfbench.session.import_engine",
        },
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def import_engine() -> None:
    """Worker start-up hook: import the engine modules every phase uses, so
    which worker a task lands on does not decide whether it pays the
    imports inside a timed phase."""
    for module in ("harvester_ray.index.build", "harvester_ray.index.compact",
                   "harvester_ray.index.incremental", "harvester_ray.index.query"):
        importlib.import_module(module)


def _import_in_worker(module: str) -> str:
    return importlib.import_module(module).__name__


def preflight(module: str = "harvester_ray", timeout_s: float = 60.0) -> None:
    """Import ``module`` inside a Ray worker before any timed work; raises if
    the worker cannot import it or does not answer in time."""
    import ray

    task = ray.remote(num_cpus=1)(_import_in_worker)
    ray.get(task.remote(module), timeout=timeout_s)


def _hold_slot(seconds: float) -> None:
    time.sleep(seconds)


def wait_for_slots(cpu_slots: int, timeout_s: float = 30.0) -> float:
    """Block until every CPU slot is free again (killed actors release theirs
    asynchronously) and has an idle worker process behind it. A worker of a
    killed actor exits with it, so without this the next timed phase would
    pay for starting one or two workers, depending on what ran before it.
    Returns the seconds waited."""
    import ray

    gc.collect()  # drops finished Datasets' actor pools
    t0 = time.perf_counter()
    while ray.available_resources().get("CPU", 0) < cpu_slots:
        if time.perf_counter() - t0 > timeout_s:
            raise TimeoutError(
                f"{ray.available_resources().get('CPU', 0)} of {cpu_slots} CPU slots free after {timeout_s}s"
            )
        time.sleep(0.02)
    # one task per slot, all running at once: each needs its own worker
    hold = ray.remote(num_cpus=1)(_hold_slot)
    ray.get([hold.remote(0.2) for _ in range(cpu_slots)], timeout=timeout_s)
    return time.perf_counter() - t0


def _pin(pid: int, cpus: set[int]) -> None:
    """Set the CPU affinity of every thread of one process."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # thread exited meanwhile
            pass


def _is_worker_or_raylet(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd or b"/raylet" in cmd.split(b"\0")[0]


def pin(cpus: set[int]) -> None:
    """Move this process, the raylet and every Ray worker of the session onto
    ``cpus``; workers the raylet starts later inherit it. Ray's control-plane
    daemons stay where they are. On a shared VM a request hopping between
    processes on different CPUs waits for each one to be woken, and that
    wait swung RPC latency 2x with the neighbours' load; on one CPU the same
    hops measured within a few percent."""
    pgid = os.getpgid(0)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        pid = int(name)
        try:
            with open(f"/proc/{pid}/stat") as f:
                same_group = int(f.read().rsplit(")", 1)[1].split()[2]) == pgid
        except OSError:
            continue
        if same_group and (pid == os.getpid() or _is_worker_or_raylet(pid)):
            _pin(pid, cpus)


def fastest_cpu(cpus: set[int], sample_s: float = 0.02, rounds: int = 2) -> int:
    """The CPU on which a short busy loop ran the most iterations (best of
    ``rounds``): the vCPU least contended by other guests right now."""
    orig = os.sched_getaffinity(0)
    best: dict[int, int] = {}
    try:
        for _ in range(rounds):
            for c in sorted(cpus):
                os.sched_setaffinity(0, {c})
                n, t0 = 0, time.perf_counter()
                while time.perf_counter() - t0 < sample_s:
                    n += 1
                best[c] = max(best.get(c, 0), n)
    finally:
        os.sched_setaffinity(0, orig)
    return max(best, key=best.get)


def cpu_times() -> list[int]:
    """/proc/stat jiffies of all CPUs, user .. steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    /proc/stat snapshots."""
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / sum(d) if sum(d) else 0.0
