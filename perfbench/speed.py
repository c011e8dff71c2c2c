"""Machine-speed monitor for the benchmark.  Standard library only.

A shared machine's speed drifts by a fifth or more, for identical work,
over every time scale from a tenth of a second to minutes, and the drift
is shared by its cores.  A benchmark run on such a machine measures the
machine as much as the program.  The monitor is a separate process that
times a fixed pure-Python kernel in CPU time every PERIOD_S (a few per
cent of one core) for as long as the benchmark measures.  The benchmark
then scales each timing by REFERENCE_KERNEL_S / (mean kernel time over
the same window), so its figures read as on a machine where the kernel
takes REFERENCE_KERNEL_S, and the unscaled figures go to its info line.

    python3 speed.py OUT      # samples until stdin closes

Each line of OUT is "<perf_counter at kernel start> <kernel CPU seconds>";
perf_counter is the system-wide monotonic clock, so the benchmark can
place the samples on its own timeline.
"""

from __future__ import annotations

import bisect
import json
import math
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.01
REFERENCE_KERNEL_S = 0.0005


def kernel() -> float:
    """Fixed pure-Python work: calls, dicts, float arithmetic, JSON."""
    rows = []
    total = 0.0
    for i in range(200):
        row = {"x": i * 0.37, "y": math.sqrt(i + 1.0), "k": i % 11}
        total += row["x"] / row["y"] + abs(row["k"] - 5)
        rows.append(row)
    return total + len(json.dumps(rows))


def serve(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        while True:
            began = time.perf_counter()
            cpu = time.thread_time()
            kernel()
            cpu = time.thread_time() - cpu
            out.write(f"{began!r} {cpu!r}\n")
            pause = max(0.0, PERIOD_S - (time.perf_counter() - began))
            if select.select([sys.stdin], [], [], pause)[0] and not sys.stdin.read(1):
                return  # stdin closed: the benchmark is done


class SpeedMonitor:
    """Runs the monitor process; scale() maps a time window to its factor."""

    def __init__(self, out: Path):
        self.out = out
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(out)],
            stdin=subprocess.PIPE,
        )
        self.times: list[float] = []
        self.cpu: list[float] = []

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.out.exists():
            for line in self.out.read_text(encoding="utf-8").splitlines():
                fields = line.split()
                if len(fields) == 2:  # a killed monitor may leave half a line
                    self.times.append(float(fields[0]))
                    self.cpu.append(float(fields[1]))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_S / mean kernel time in [start, end]; call after stop()."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        # One sample either side, so a window shorter than the period
        # still has its nearest samples.
        window = self.cpu[max(0, lo - 1): hi + 1]
        return REFERENCE_KERNEL_S / statistics.fmean(window)


if __name__ == "__main__":
    serve(sys.argv[1])
