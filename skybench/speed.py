"""Machine-speed sampler: scales measured times to a reference speed.

The benchmark runs on a few cores of a shared host whose single-thread
speed drifts by tens of percent from one minute to the next, and CPU
time drifts with it, so neither wall nor CPU seconds of the program can
be compared between runs taken minutes apart.  A sampler process runs
beside the program for the whole run: every ``INTERVAL_S`` it times a
fixed pure-Python loop in its own CPU time (so being descheduled while
the program runs on every core does not count) and keeps
``(midpoint, cpu seconds)`` in memory, writing them out once when its
standard input closes.

A time measured over an interval is then divided by the machine's
slowness in that interval: the mean loop time of the samples taken
within ``PAD_S`` of it, over ``REFERENCE_S``, the loop's CPU time on
the 2-vCPU x86-64 VM under Python 3.11.7 where the benchmark was
defined.  The result reads in seconds at that reference speed.

Usage (the benchmark starts it through :class:`Sampler`)::

    python3 skybench/speed.py OUT
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import Optional

#: iterations of the calibration loop (about 9 ms at reference speed)
LOOP = 100_000
#: the loop's CPU time at the reference speed
REFERENCE_S = 0.0090
#: pause between samples: the sampler keeps about 4% of one core busy
INTERVAL_S = 0.2
#: samples up to this far outside an interval still describe it, so a
#: sub-second set-up is scaled by ten or more samples
PAD_S = 1.0
STOP_TIMEOUT = 30.0


def calibration_loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def sample_forever(out: str) -> None:
    """Take samples until standard input reaches end of file."""
    samples = []
    while True:
        wall = time.perf_counter()
        cpu = time.process_time()
        calibration_loop()
        samples.append(((wall + time.perf_counter()) / 2,
                        time.process_time() - cpu))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.buffer.read1(1):
            break
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)


class Sampler:
    """The sampler process of one benchmark run."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.samples: list[tuple[float, float]] = []
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), out],
            stdin=subprocess.PIPE)

    def stop(self) -> None:
        """Close the sampler's input, wait for it and load its samples."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("speed sampler ignored end of input") \
                from None
        if proc.returncode != 0:
            raise RuntimeError(f"speed sampler exited with code "
                               f"{proc.returncode}")
        with open(self.out, encoding="utf-8") as fh:
            self.samples = [tuple(s) for s in json.load(fh)]

    def slowness(self, start: float, end: float) -> float:
        """Mean loop time near ``[start, end]`` over ``REFERENCE_S``
        (above 1 when the machine ran slower than the reference)."""
        near = [cpu for mid, cpu in self.samples
                if start - PAD_S <= mid <= end + PAD_S]
        if not near:
            raise RuntimeError(f"no speed sample near [{start:.3f}, "
                               f"{end:.3f}]")
        return sum(near) / len(near) / REFERENCE_S

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        return seconds / self.slowness(start, start + seconds)

    def run_slowness(self) -> float:
        """Mean loop time over the whole run, over ``REFERENCE_S``."""
        return (sum(cpu for _mid, cpu in self.samples)
                / len(self.samples) / REFERENCE_S)


if __name__ == "__main__":
    sample_forever(sys.argv[1])
