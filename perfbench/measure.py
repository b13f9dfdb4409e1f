"""Shared measurement plumbing: statistics, spans, spawns, run environment.

Everything here is stdlib-only so it works before ``repro`` is importable
(the entry point must fail cleanly in a tree without the program).
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

#: The checkout root: the benchmark always runs from there.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for spawned services and sqlite files.
WORK = ROOT / ".perfbench_work"

clock = time.perf_counter


# -- statistics over raw samples ------------------------------------------------


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of the raw samples."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples) -> float:
    return percentile(samples, 50.0)


def describe(samples) -> dict:
    """Count, median and quartiles of raw samples, for the run report."""
    samples = list(samples)
    return {
        "n": len(samples),
        "p25": percentile(samples, 25.0),
        "p50": percentile(samples, 50.0),
        "p75": percentile(samples, 75.0),
        "max": max(samples),
    }


# -- spans ------------------------------------------------------------------------


class Spans:
    """In-memory spans recorded by the benchmark around calls into layers.

    Each span has a name, start, end and the index of the span that was
    open when it began (its parent).  Spans stay in memory; the per-layer
    metrics are read from them when the run ends.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = clock()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]


class NullSpans(Spans):
    """Spans switched off: the same call sites, nothing recorded."""

    @contextmanager
    def span(self, name: str):
        yield None


# -- host-speed reading (metadata, not a metric) -----------------------------------


#: Fixed input for the memory-touching half of the calibration: 1 MiB of
#: text-like bytes that zlib cannot shrink to nothing.
_CALIBRATION_BYTES = b"".join(
    f"GET /ad?id={i * 7919 % 100003}&model=n{i % 97}&t={i * i % 65521} ".encode()
    for i in range(30_000)
)[: 1 << 20]


def _calibration() -> tuple[float, float]:
    """Milliseconds for a fixed interpreter loop and for a fixed zlib pass.

    The loop stays in the core's caches; zlib streams 1 MiB through
    memory, so a host that is slow only on memory shows in the second.
    """
    started = clock()
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
    middle = clock()
    zlib.compress(_CALIBRATION_BYTES, 6)
    return 1000.0 * (middle - started), 1000.0 * (clock() - middle)


def _proc_stat() -> tuple[int, int]:
    """(total jiffies, steal jiffies) from the aggregate cpu line."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return sum(values), steal


class HostSpeed:
    """A fixed stdlib loop timed at the start and end, plus steal delta.

    Recorded beside each run's numbers so that a run on a slow host
    shows as such; it never adjusts a metric.  Each reading is the median
    of three.
    """

    def __init__(self) -> None:
        self.start = self._read()
        self._stat0 = _proc_stat()

    @staticmethod
    def _read() -> tuple[float, float]:
        readings = [_calibration() for __ in range(3)]
        return median(r[0] for r in readings), median(r[1] for r in readings)

    def finish(self) -> dict:
        end = self._read()
        total1, steal1 = _proc_stat()
        total = total1 - self._stat0[0]
        steal = steal1 - self._stat0[1]
        return {
            "calibration_ms_start": self.start[0],
            "calibration_ms_end": end[0],
            "zlib_ms_start": self.start[1],
            "zlib_ms_end": end[1],
            "steal_pct": 100.0 * steal / total if total else 0.0,
        }


# -- spawned processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def time_ready_child(code: str, timeout: float = 60.0) -> float:
    """Seconds from spawning ``python -c code`` until it prints ``ready``.

    The child exits right after; it is waited for before returning.
    """
    started = clock()
    process = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = process.stdout.readline()
        elapsed = clock() - started
        if not line.startswith("ready"):
            raise RuntimeError(f"spawned child did not become ready: {line!r}")
        process.stdout.read()
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"spawned child exited {process.returncode}")
    return elapsed


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- run environment ---------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def source_lines() -> dict[str, int]:
    """Lines of Python per top-level ``repro`` package (modules at the root
    are counted under ``repro``)."""
    counts: dict[str, int] = {}
    package_root = SRC / "repro"
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).parts
        key = relative[0] if len(relative) > 1 else "repro"
        with path.open("rb") as handle:
            counts[key] = counts.get(key, 0) + sum(1 for __ in handle)
    return counts


def environment() -> dict:
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_lines": source_lines(),
    }


class Outcome:
    """What one workload run produced: counts, metrics, checks, details."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks: dict[str, bool] = {}
        self.details: dict = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool) -> None:
        """An output check; a failed one counts as a failed operation."""
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        self.attempted += 1
        self.failed += 0 if ok else 1
