"""Host-speed correction: a fixed kernel timed between frames.

This host's speed moves in phases of a few seconds by up to 1.6x (other
tenants share its cores), which swamps a run-to-run comparison of raw
wall-clock.  Every timed interval is bracketed by two samples of a fixed
kernel, and its wall time is divided by the kernel's mean slowdown over
the interval, ``mean(samples) / REFERENCE_S``.  Reported times are thus
host wall-clock at the speed the kernel runs in ``REFERENCE_S``; the raw
wall-clock numbers are printed next to them.

The kernel mixes what the pipeline spends its time on: an interpreted
loop with dict stores, a chain of tiny complex matrix-vector steps (the
shape of the beam ascent) and a table gather larger than the first-level
caches.

Run as a script, this file is the sampler of :class:`IdleSampler`.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import List, Sequence, Set, Tuple

import numpy as np

#: Kernel seconds on an unloaded 2-vCPU x86-64 host at 2.0 GHz (numpy
#: 2.4, OpenBLAS pinned to one thread), the 5th percentile of 2,000 samples.
REFERENCE_S = 0.95e-3

_RNG = np.random.default_rng(0)
_BEAM = _RNG.random(32) + 1j * _RNG.random(32)
_CHANNELS = _RNG.random((8, 32)) + 1j * _RNG.random((8, 32))
_TABLE = _RNG.random(256 * 1024)
_INDEX = _RNG.integers(0, _TABLE.size, 20_000)


def sample() -> float:
    """Seconds the kernel takes now."""
    start = perf_counter()
    total = 0
    table = {}
    for i in range(1500):
        total += i * i
        table[i & 63] = total
    beam = _BEAM
    for _ in range(30):
        gains = np.abs(np.conj(_CHANNELS) @ beam) ** 2
        weights = np.exp(-8.0 * gains / float(np.mean(gains)))
        step = (_CHANNELS.T * weights) @ (np.conj(_CHANNELS) @ beam)
        beam = beam + 0.5 * step / float(np.linalg.norm(step))
        beam = beam / np.linalg.norm(beam)
    _TABLE[_INDEX].sum()
    return perf_counter() - start


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference the host ran over an interval
    bracketed by ``samples``."""
    return sum(samples) / len(samples) / REFERENCE_S


#: Pause between two samples of an :class:`IdleSampler`.
SAMPLE_PERIOD_S = 0.02
#: A sample whose wall time exceeds its CPU time by this factor was
#: preempted by the process being measured, and is dropped.
PREEMPTED = 1.1
#: An interval's slowdown uses at least this many samples, the nearest
#: ones when too few fall inside it.
MIN_SAMPLES = 4


class IdleSampler:
    """Kernel samples taken on another process's CPUs, from outside it.

    One child per CPU runs this file at ``SCHED_IDLE``: it gets the CPU
    only while nothing else wants it, so it samples the host's speed in
    the measured process's idle moments (a served session's pacing
    sleeps, the gaps between sessions) and takes next to no time from it.
    """

    def __init__(self, cpus: Set[int]) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._first = threading.Event()
        self.procs = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(cpu)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
            for cpu in sorted(cpus)
        ]
        self._readers = [threading.Thread(target=self._read, args=(proc,),
                                          daemon=True)
                         for proc in self.procs]
        for reader in self._readers:
            reader.start()

    def _read(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            stamp, took = line.split()
            self.samples.append((float(stamp), float(took)))
            self._first.set()
        self._first.set()

    def wait_first(self, timeout: float = 60.0) -> None:
        if not self._first.wait(timeout) or not self.samples:
            raise RuntimeError("the host-speed sampler gave no samples")

    def slowdown(self, start: float, end: float) -> float:
        """The median sample's slowdown over ``time.monotonic()`` interval
        [start, end]."""
        samples = list(self.samples)
        inside = [took for stamp, took in samples if start <= stamp <= end]
        if len(inside) < MIN_SAMPLES:
            nearest = sorted(samples, key=lambda s: max(start - s[0],
                                                        s[0] - end))
            inside = [took for _, took in nearest[:MIN_SAMPLES]]
        return statistics.median(inside) / REFERENCE_S

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()
        for reader in self._readers:
            reader.join(timeout=10)


def _sample_forever(cpu: int) -> None:
    """Print ``<monotonic stamp> <seconds>`` for every clean sample."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while True:
        busy = time.thread_time()
        stamp = time.monotonic()
        took = sample()
        busy = time.thread_time() - busy
        if took <= PREEMPTED * busy:
            print(f"{stamp + took / 2!r} {took!r}", flush=True)
        time.sleep(SAMPLE_PERIOD_S)


if __name__ == "__main__":
    _sample_forever(int(sys.argv[1]))
