"""Small statistics helpers shared by the workloads, and the choice of
the CPU they run on."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import threading
import time
from collections import Counter
from typing import List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest nearest-rank percentile
    with ``TAIL_BEYOND`` samples beyond it, or the maximum when no
    percentile at or above the median has that many beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - 1 - TAIL_BEYOND
    if index < n // 2:
        index = n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def fastest(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Each request's fastest time over repeats of the same work.

    ``repeats`` holds one list of times per repeat, aligned by request.
    The shared host this benchmark runs on switches between a fast and
    a slow speed every second or so, in proportions that drift over
    minutes; slow stretches only ever add time, so the fastest repeat of
    each request is the estimate a run-to-run comparison can trust."""
    return [min(times) for times in zip(*repeats)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect() -> None:
    """Before a set-up: collect the harness's own garbage, then move the
    harness's survivors (the oracle's expected digests, earlier results)
    to the permanent generation, so collections while timed do not scan
    them.  Everything the set-up and the requests build is scanned as
    usual, the program's caches included."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


#: The CPUs this process may run on, as it started.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
#: Closed loops choose the CPU again between requests once this many
#: seconds have passed since the last choice.
CHOOSE_EVERY_S = 0.5


def _probe_s() -> float:
    """The fastest of three runs of a fixed pure-Python loop (about 0.6 ms)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: dict = {}
        for i in range(4000):
            table[i % 61] = table.get(i % 61, 0) + len(str(i))
        best = min(best, time.perf_counter() - start)
    return best


class QuietCpu:
    """Keeps the benchmark on whichever allowed CPU is fastest right now.

    On the shared host this benchmark was built on, each virtual CPU
    switches between a fast and a 1.7x slower speed on its own (another
    tenant's work on the same physical core), and one can stay slow for
    half a minute while the other is fast.  Between requests, never
    while one is timed, :meth:`choose` runs a probe loop (3 x 0.6 ms) on
    each allowed CPU and pins the given threads (by default the calling
    one) to the fastest.  The program's work is not changed, only where
    it runs; ``picks`` counts the choices for the run's printout."""

    def __init__(self) -> None:
        self.picks: Counter = Counter()
        self.probes: List[float] = []  # the chosen CPU's probe times
        self.last = float("-inf")

    def choose(self, threads: Sequence[threading.Thread] = ()) -> None:
        if len(ALLOWED_CPUS) > 1:
            timed = []
            for cpu in ALLOWED_CPUS:
                os.sched_setaffinity(0, {cpu})
                timed.append((_probe_s(), cpu))
            probe, cpu = min(timed)
        else:
            probe, cpu = _probe_s(), ALLOWED_CPUS[0]
        self.probes.append(probe)
        os.sched_setaffinity(0, {cpu})
        for thread in threads:
            if thread.native_id is not None and thread.is_alive():
                try:
                    os.sched_setaffinity(thread.native_id, {cpu})
                except ProcessLookupError:  # the thread ended meanwhile
                    pass
        self.picks[cpu] += 1
        self.last = time.perf_counter()

    def between_requests(self) -> None:
        """Choose again if ``CHOOSE_EVERY_S`` have passed."""
        if time.perf_counter() - self.last >= CHOOSE_EVERY_S:
            self.choose()

    def note(self) -> str:
        picks = ", ".join(f"cpu{cpu} x{count}" for cpu, count in sorted(self.picks.items()))
        return (
            f"CPU chosen before timed work ({len(ALLOWED_CPUS)} allowed): {picks}; "
            f"probe loop on it: median {statistics.median(self.probes) * 1e3:.4f} ms, "
            f"fastest {min(self.probes) * 1e3:.4f} ms"
        )
