"""Host-side accounting for one benchmark run.

- host CPU steal, read from the aggregate ``cpu`` line of ``/proc/stat``
  at every round boundary;
- user+system CPU time and peak resident memory of the workload's
  processes (this process plus any worker processes it started);
- the rounds a measured interval is split into, and the rule that keeps
  the rounds the host disturbed least;
- reaping every process a run started before it exits;
- the host fingerprint every run prints.

Only the standard library and NumPy are used here, so the module can be
imported before ``repro`` (set-up time is timed from the first
``import repro``).
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: length of one round of the measured interval, in seconds
ROUND_S = 1.0
#: share of rounds (least steal first) the end-to-end statistics use
KEEP_FRACTION = 2 / 3

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies summed over every CPU since boot.

    ``total`` is user+nice+system+idle+iowait+irq+softirq+steal; guest
    time is already inside user/nice, so it is not added twice.
    """
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    if fields[0] != "cpu":
        raise RuntimeError("/proc/stat does not start with the cpu line")
    values = [int(x) for x in fields[1:9]]
    return values[7], sum(values)


def steal_share(start: tuple[int, int], end: tuple[int, int]) -> float:
    """Share of all CPU time between two readings that the host stole."""
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total > 0 else 0.0


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        # the command name may hold spaces; fields resume after ')'
        rest = fh.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / _CLK_TCK


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Processes:
    """CPU time and peak memory of this process plus its workers."""

    def __init__(self) -> None:
        self.workers: list[int] = []

    def cpu_s(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        return own.ru_utime + own.ru_stime + sum(
            _proc_cpu_s(pid) for pid in self.workers
        )

    def peak_rss_mb(self) -> float:
        """Summed peak resident set; read workers before they exit."""
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + sum(_proc_peak_rss_kb(p) for p in self.workers)) / 1024


def reap_children(timeout_s: float = 10.0) -> None:
    """End and reap every process this one started, so none outlives it.

    Worker processes still running after ``timeout_s`` are killed.
    multiprocessing's spawn start method also runs a resource-tracker
    process that no ``close()`` stops: it exits when its pipe closes,
    and unless it is reaped here it outlives the run, re-parented to
    init. (The set-up probes and ``git`` are waited for where they run.)
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


@dataclass
class Round:
    """One slice of the measured interval."""

    seconds: float = 0.0
    cpu_s: float = 0.0
    steal: float = 0.0
    latencies_s: list = field(default_factory=list)

    def row(self) -> dict:
        """The round as a report row."""
        n = len(self.latencies_s)
        return {
            "seconds": round(self.seconds, 4),
            "requests": n,
            "cpu_ms_per_req": round(self.cpu_s / n * 1e3, 4) if n else None,
            "p50_ms": round(float(np.median(self.latencies_s)) * 1e3, 4) if n else None,
            "steal": round(self.steal, 4),
        }


class RoundClock:
    """Splits a measured interval into rounds of :data:`ROUND_S`.

    Call :meth:`record` with each completed request's latency and
    :meth:`tick` after each operation; a round closes at the first tick
    past its end, so every operation falls wholly inside one round.
    """

    def __init__(self, procs: Processes, seconds: float) -> None:
        self.procs = procs
        self.rounds: list[Round] = []
        self._current = Round()
        self._t0 = time.perf_counter()
        self._deadline = self._t0 + seconds
        self._round_end = self._t0 + ROUND_S
        self._cpu0 = procs.cpu_s()
        self._ticks0 = host_cpu_ticks()

    def record(self, latency_s: float) -> None:
        self._current.latencies_s.append(latency_s)

    def tick(self) -> bool:
        """Close the round if it is over; False once the interval is."""
        now = time.perf_counter()
        if now < self._round_end:
            return True
        cpu, ticks = self.procs.cpu_s(), host_cpu_ticks()
        r = self._current
        r.seconds = now - self._t0
        r.cpu_s = cpu - self._cpu0
        r.steal = steal_share(self._ticks0, ticks)
        self.rounds.append(r)
        self._current = Round()
        self._t0, self._cpu0, self._ticks0 = now, cpu, ticks
        self._round_end = now + ROUND_S
        return now < self._deadline


def least_stolen(rounds: list[Round]) -> list[Round]:
    """The :data:`KEEP_FRACTION` of rounds with the least steal (ties
    keep the earlier round)."""
    keep = max(1, round(len(rounds) * KEEP_FRACTION))
    order = sorted(range(len(rounds)), key=lambda i: (rounds[i].steal, i))
    return [rounds[i] for i in sorted(order[:keep])]


def summarize(rounds: list[Round]) -> dict:
    """Throughput, latency quantiles and CPU per request of some rounds."""
    latencies = np.array([x for r in rounds for x in r.latencies_s])
    seconds = sum(r.seconds for r in rounds)
    n = len(latencies)
    return {
        "requests": n,
        "throughput_rps": n / seconds,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "cpu_ms_per_req": sum(r.cpu_s for r in rounds) / n * 1e3,
    }


def steal_report(rounds: list[Round], kept: list[Round]) -> dict:
    """Rounds kept, and the mean steal of the kept rounds and of all."""

    def mean(rs: list[Round]) -> float:
        total = sum(r.seconds for r in rs)
        return sum(r.steal * r.seconds for r in rs) / total if total else 0.0

    return {
        "rounds": len(rounds),
        "kept": len(kept),
        "steal_kept": round(mean(kept), 4),
        "steal_all": round(mean(rounds), 4),
        "steal_max": round(max((r.steal for r in rounds), default=0.0), 4),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """The BLAS NumPy was built against, and its thread count."""
    import ctypes

    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        # NumPy's bundled OpenBLAS prefixes its symbols; a system one
        # does not
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported tree, not a clone
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: str, seed: int) -> dict:
    """What produced a run: host, toolchain, code and seed."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "commit": _git_commit(root),
        "seed": seed,
        "argv": sys.argv[1:],
    }
