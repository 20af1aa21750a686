"""Machine-speed probe: a fixed pure-Python kernel timed on the measured core.

On a shared machine one core's speed can change by half for seconds to
minutes while another core's does not.  The benchmark pins the processes
it times to one core and runs this probe there as a separate process: every
:data:`INTERVAL_S` seconds it wakes, times :func:`kernel` and records the
sample.  A timing is then rescaled to the reference speed with
:meth:`SpeedProbe.factor` over the samples taken while it ran, so a run in a
slow period reads the same as one in a fast period while a change of the
program's own speed still shows in full.

Run as ``python3 -m perfbench.probe``: it prints ``READY``, and on SIGTERM
its samples as one JSON list of ``[perf_counter, unix time, seconds]``, and
exits.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Seconds of one :func:`kernel` call at the reference speed: the fast,
#: calm state of the 2-core x86-64 machine the benchmark was created on
#: (0.68-0.75 ms; 1.0-1.1 ms in its slow periods).
REFERENCE_S = 0.0007

#: Seconds between samples; the probe uses about 2% of the pinned core.
INTERVAL_S = 0.05

#: Samples this many seconds either side of a timed interval also count.
PAD_S = 0.5

#: Share of the fastest and of the slowest samples a speed estimate drops.
TRIM = 0.1

_NODES = 500
#: Fixed successor lists of a sparse directed graph.
_GRAPH = [[(node * 7 + k * 131 + 1) % _NODES for k in range(4)] for node in range(_NODES)]


def kernel() -> int:
    """Breadth-first searches over a fixed 500-node graph (dict/list work)."""
    total = 0
    for source in (0, 97, 211, 389):
        depth = {source: 0}
        queue = [source]
        for node in queue:
            step = depth[node] + 1
            for successor in _GRAPH[node]:
                if successor not in depth:
                    depth[successor] = step
                    queue.append(successor)
        total += sum(depth.values())
    return total


def measured_cpu() -> Optional[int]:
    """The core timed processes are pinned to: the last one this process may use."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def pin(pid: int, cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def speed_factor(samples: Sequence[Sequence[float]], start: float, end: float,
                 column: int = 0) -> float:
    """Reference speed ÷ the core's speed over ``[start, end]``.

    A timing of that interval times this factor is the timing at the
    reference speed.  ``column`` 0 reads ``start``/``end`` as
    ``time.perf_counter`` values, 1 as unix times.  The samples within
    :data:`PAD_S` of the interval count, by their trimmed mean: samples are
    evenly spaced in time, so the mean follows the share of the interval
    the core spent slow, and trimming drops samples another process
    delayed.
    """
    durations = [
        sample[2] for sample in samples if start - PAD_S <= sample[column] <= end + PAD_S
    ]
    if not durations:
        raise RuntimeError("the speed probe took no sample during a timed interval")
    return REFERENCE_S / trimmed_mean(durations)


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of ``values`` without the lowest and highest :data:`TRIM` of them."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class SpeedProbe:
    """The probe process on ``cpu``; :meth:`stop` collects its samples."""

    def __init__(self, cpu: Optional[int], env: Dict[str, str], cwd) -> None:
        self.samples: List[Sequence[float]] = []
        self.cpu = cpu
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
        )
        pin(self.process.pid, cpu)
        if self.process.stdout.readline() != "READY\n":
            self.process.wait()
            raise RuntimeError(f"the speed probe exited with {self.process.returncode}")

    def stop(self) -> List[Sequence[float]]:
        """End the probe process (once) and return its samples."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            out, _ = self.process.communicate(timeout=30)
            self.samples = json.loads(out) if out.strip() else []
        return self.samples

    def factor(self, start: float, end: float, column: int = 0) -> float:
        return speed_factor(self.samples, start, end, column)

    def speed(self) -> float:
        """The core's median speed over the whole probe, reference = 1."""
        if not self.samples:
            return 0.0
        return REFERENCE_S / trimmed_mean([sample[2] for sample in self.samples])


def main() -> int:
    samples = []
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    print("READY", flush=True)
    while not stopping:
        time.sleep(INTERVAL_S)
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        samples.append([(started + ended) / 2.0, time.time(), ended - started])
    sys.stdout.write(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
