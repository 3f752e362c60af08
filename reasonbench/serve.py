"""The ``warm_serve`` workload: independent users into a sharded service.

Set-up builds a fixed pool of 24 kernels and prefills a
``ReasonService(shards=2, policy="cache-affinity", store="shared")``
whose shard-local LRUs hold fewer kernels than the pool, so some hits
are served by the shared store.  Nothing compiles while timed.  One
generator thread (the main thread) then runs three phases, drawing
kernels by a seeded Zipf law over the pool ranks.  Open-loop steps send
at a fixed rate: arrivals are evenly spaced, and the seed draws which
kernel each one requests.

1. the nominal step: an open loop at ``NOMINAL_RATE``; latency is
   timed from each request's due time and reported from this step.
   One schedule is replayed ``SEGMENTS`` times, and each request counts
   with its fastest replay;
2. the capacity probe: a closed loop holding ``CLIENTS`` requests
   outstanding, so the service is never idle, over a fixed deck of
   ``CAPACITY_DECK`` requests; the deck is replayed ``SEGMENTS`` times
   and its fastest replay's completions per second are
   ``throughput_rps``;
3. the ladder: open-loop steps from well below to just above
   saturation, as fractions of this run's ``throughput_rps``.  A step
   qualifies when nothing fails, its backlog stays under Little's bound
   (rate x latency limit) and its tail latency meets
   ``LATENCY_LIMIT_MS``; the achieved rate of the highest
   qualifying step is ``max_rate_rps``.  The ladder stops at the first
   step whose backlog grows past the bound.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro import ReasonService, ReasonSession
from repro.api.cache import CacheStats
from repro.api.resilience import DEADLINE_CLASSES
from repro.api.service import ServiceOverloaded

import kernels as catalogue
from measure import QuietCpu, collect, fastest, median, tail
from oracle import digest, load_expected, results_agree, Tally
from tracer import Tracer
from workloads import Outcome, add_stats, latency_metrics, trace_layers

#: Set-ups per run (the median is ``setup_s``).
SETUPS = 5
#: Two shard threads (nproc = 2) over one shared store.
SHARDS = 2
#: Per-shard LRU bound, chosen so that about a quarter of lookups are
#: shared-store hits: measured over 4 seeds, capacity 4, 5, 6, 8 and 10
#: gave 41-47%, 33-37%, 28-30%, 17-20% and 8-11% (README.md).
CACHE_CAPACITY = 6
#: The fixed rate latency is reported at (req/s): 13% of the ~190 req/s
#: the capacity probe measured on one CPU in a slow phase of the host,
#: so queueing adds little to the service time.
NOMINAL_RATE = 25.0
#: Open-loop ladder rates, as fractions of the run's ``throughput_rps``.
LADDER = (0.6, 0.8, 1.0, 1.2)
#: Requests the capacity probe keeps outstanding.  Measured throughput
#: was flat from 1 to 16 (176-198 req/s on one CPU); 8 keeps both shard
#: queues non-empty.
CLIENTS = 8
#: Requests in one replay of the capacity probe: about a second of work
#: at the 180-500 req/s the probe measures on one CPU.
CAPACITY_DECK = 250
#: Latency limit on a ladder step's tail percentile: the library's
#: "interactive" deadline class.
LATENCY_LIMIT_MS = DEADLINE_CLASSES["interactive"] * 1e3
#: Shares of the measured seconds: the nominal step; the capacity probe
#: takes what its replays take, and the ladder steps split the last
#: ``LADDER_SHARE`` evenly.
NOMINAL_SHARE = 2 / 3
LADDER_SHARE = 2 / 15
#: Replays of the nominal schedule and of the capacity deck, taken in
#: turns so that each request's replays spread over the whole run.  At
#: 36 s (run_seconds) the nominal schedule sends 120 requests, so its
#: tail is a p90.8.
SEGMENTS = 5
#: Seconds to wait for stragglers before counting them as timed out.
DRAIN_S = 60.0
#: Run every thread of the process on one CPU.  Under the GIL only one
#: thread runs Python at a time; on a 2-vCPU virtual machine a GIL
#: hand-off to a thread on the other vCPU waits on the host scheduler,
#: and unpinned figures swung by up to half between runs.  Pinned, the
#: figures are single-CPU serving: GIL-releasing numpy work in the two
#: shards cannot overlap.  The CPU is chosen again (:class:`QuietCpu`)
#: before each set-up, replay and ladder step, and every thread moves
#: to it.  Set False to measure unpinned serving.
PIN_ONE_CPU = True


class Request:
    """One request as the generator sent it."""

    __slots__ = ("due", "pick", "future", "refused", "done")

    def __init__(self, due: float, pick: int) -> None:
        self.due = due
        self.pick = pick
        self.future = None  # released once the report is checked
        self.refused = False  # refused at admission
        self.done: Optional[float] = None


class Step:
    """One open-loop step (or the closed-loop probe) and its verdict."""

    def __init__(self, rate: float, start: float, ladder: bool = False) -> None:
        self.rate = rate
        self.start = start
        self.ladder = ladder  # refusals and timeouts do not fail the run
        self.requests: List[Request] = []
        self.backlog = 0
        self.latencies: List[float] = []
        self.failed = 0
        self.completed = 0  # closed loop: completions inside the window
        self.window_s = 0.0  # closed loop: start to the last of those

    @property
    def achieved(self) -> float:
        last = max((r.done for r in self.requests if r.done is not None), default=self.start)
        return len(self.latencies) / (last - self.start) if last > self.start else 0.0

    @property
    def throughput(self) -> float:
        """Closed loop: completions per second inside the window."""
        return self.completed / self.window_s if self.window_s > 0 else 0.0

    @property
    def complete(self) -> bool:
        """Every request succeeded, so ``latencies`` aligns with ``requests``."""
        return self.failed == 0 and len(self.latencies) == len(self.requests)

    @property
    def qualifies(self) -> bool:
        return (
            self.failed == 0
            and self.backlog <= self.rate * LATENCY_LIMIT_MS / 1e3
            and bool(self.latencies)
            and tail(self.latencies)[0] * 1e3 <= LATENCY_LIMIT_MS
        )


class Generator:
    """The single generator thread: submits, and records completions."""

    def __init__(self, service, pool, rng, tally: Tally, tracer: Optional[Tracer]):
        self.service = service
        self.pool = pool
        self.weights = catalogue.zipf_weights(len(pool))
        self.rng = rng
        self.tally = tally
        self.tracer = tracer
        self.lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.lags: List[float] = []
        self.sent = 0

    def send(self, request: Request, release=None, fatal: bool = True) -> None:
        """Submit one request; ``release`` (closed loop) runs when it ends.
        ``fatal=False`` (ladder steps) lets a refusal count as a failed
        attempt without failing the run."""
        item = self.pool[request.pick]
        frame = None
        if self.tracer is not None:
            self.tracer.set_request(self.sent)
            frame = self.tracer.open("bench.generator")
        if release is None:  # open loop: how late the generator ran
            self.lags.append(time.perf_counter() - request.due)
        self.sent += 1
        self.tally.attempt()
        try:
            future = self.service.submit(item.kernel, timeout=0.0, **item.options)
        except ServiceOverloaded as exc:
            request.refused = True
            self.tally.fail(f"refused: {exc.reason}", fatal=fatal)
            if release is not None:
                release()
        else:
            self.submitted += 1
            request.future = future

            def finished(_future, request=request) -> None:
                request.done = time.perf_counter()
                with self.lock:
                    self.completed += 1
                if release is not None:
                    release()

            future.add_done_callback(finished)
        if frame is not None:
            self.tracer.close(frame)

    def schedule(self, rate: float, duration: float) -> Tuple[List[float], List[int]]:
        """Evenly spaced arrivals at ``rate``, and the kernel of each.
        With seeded random arrival times instead, ``lat_tail_ms`` of five
        seeds spread twice as wide (IQR/median 0.20 against 0.09)."""
        count = int(round(rate * duration))
        offsets = [(index + 0.5) * duration / count for index in range(count)]
        return offsets, catalogue.zipf_deck(count, self.weights, self.rng)

    def open_loop(self, rate: float, duration: float, ladder: bool = False,
                  schedule: Optional[Tuple[List[float], List[int]]] = None) -> Step:
        """Send ``schedule`` (or a fresh one) as an open loop."""
        offsets, picks = schedule or self.schedule(rate, duration)
        step = Step(rate, time.perf_counter() + 0.005, ladder)
        for offset, pick in zip(offsets, picks):
            request = Request(step.start + offset, pick)
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.send(request, fatal=not ladder)
            step.requests.append(request)
        delay = step.start + duration - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with self.lock:
            step.backlog = self.submitted - self.completed
        return step

    def closed_loop(self, clients: int, deck: Sequence[int]) -> Step:
        """Send ``deck`` keeping ``clients`` requests outstanding."""
        slots = threading.Semaphore(clients)
        step = Step(0.0, time.perf_counter())
        for pick in deck:
            if not slots.acquire(timeout=DRAIN_S):
                self.tally.fail("capacity probe stalled")
                break
            request = Request(time.perf_counter(), pick)
            self.send(request, release=slots.release)
            step.requests.append(request)
        for _ in range(clients):  # every request has ended
            if not slots.acquire(timeout=DRAIN_S):
                self.tally.fail("capacity probe stalled")
                break
        finished = [r.done for r in step.requests if r.done is not None]
        step.completed = len(finished)
        step.window_s = max(finished) - step.start if finished else 0.0
        return step


def _finish(steps: List[Step], tally: Tally, reference, pool) -> None:
    """Wait for every request, then check each served report."""
    deadline = time.perf_counter() + DRAIN_S
    for step in steps:
        for request in step.requests:
            if request.refused:
                step.failed += 1  # counted when it happened
                continue
            # Drop the harness's hold on the report: peak_rss_mb is the
            # program's memory, not that of every report served.
            future, request.future = request.future, None
            try:
                report = future.result(timeout=max(deadline - time.perf_counter(), 0.0))
            except Exception as exc:  # timeouts and raised requests both fail
                step.failed += 1
                tolerated = step.ladder and isinstance(exc, (TimeoutError, ServiceOverloaded))
                tally.fail(f"{pool[request.pick].key}: {exc!r}", fatal=not tolerated)
                continue
            if report.identity() != reference[request.pick]:
                step.failed += 1
                tally.mismatch(f"{pool[request.pick].key} served report differs from a cold run")
                continue
            # The done callback may still be running on the worker.
            while request.done is None:
                time.sleep(0.0005)
            step.latencies.append(request.done - request.due)


def _reference(variants, expected, tally: Tally) -> list:
    """Oracle: the ``identity()`` of a cold run of every pool kernel in a
    session with its cache off, checked against ``expected.json`` and
    the software backend.  Only the identity tuples are kept."""
    reference = []
    session = ReasonSession(cache=False)
    for item in catalogue.warm_kernels(variants):
        report = session.run(item.kernel, **item.options)
        software = session.run(item.kernel, backend="software", **item.options)
        tally.check(
            digest(report) == expected.get(item.key),
            f"{item.key} ({item.name}) cold run differs from expected.json",
        )
        tally.check(
            results_agree(report.result, software.result, report.kernel),
            f"{item.key} ({item.name}) result {report.result!r} != software {software.result!r}",
        )
        reference.append(report.identity())
    return reference


def _setup(variants):
    collect()
    start = time.perf_counter()
    pool = catalogue.warm_kernels(variants)
    service = ReasonService(
        shards=SHARDS, policy="cache-affinity", store="shared", cache_capacity=CACHE_CAPACITY
    )
    try:
        futures = [service.submit(item.kernel, **item.options) for item in pool]
        reports = [future.result(timeout=DRAIN_S) for future in futures]
    except BaseException:
        service.close()
        raise
    return pool, service, reports, time.perf_counter() - start


def _cache_stats(service) -> CacheStats:
    total = CacheStats()
    for index in range(SHARDS):
        add_stats(total, service.session_of(index).cache_stats)
    return total


class _TraceWindow:
    """Installs the tracer for the ``with`` body (no-op without one) and
    sums the service's cache and retry counters over traced windows."""

    def __init__(self, service, tracer: Optional[Tracer]) -> None:
        self.service = service
        self.tracer = tracer
        self.cache = CacheStats()
        self.retries = 0

    def __enter__(self) -> None:
        if self.tracer is not None:
            self._cache = _cache_stats(self.service)
            self._retries = self.service.stats().retries
            self.tracer.counting = True
            self.tracer.install()

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
            add_stats(self.cache, _cache_stats(self.service), self._cache)
            self.retries += self.service.stats().retries - self._retries


def run_warm_serve(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    quiet = QuietCpu()

    def choose_cpu() -> None:
        if PIN_ONE_CPU:  # threads started later inherit the choice
            quiet.choose(threading.enumerate())

    tally = Tally()
    outcome = Outcome(tally, tracer=tracer)
    variants = catalogue.warm_variants()
    reference = _reference(variants, load_expected(), tally)

    setups = []
    service = None
    for _ in range(SETUPS):
        if service is not None:
            service.close()
        pool = service = prefill = None  # released before the next set-up
        choose_cpu()
        pool, service, prefill, elapsed = _setup(variants)
        setups.append(elapsed)
        for pick, report in enumerate(prefill):
            tally.check(report.identity() == reference[pick],
                        f"{pool[pick].key} prefill report differs from a cold run")
    prefill = None

    segment_s = seconds * NOMINAL_SHARE / SEGMENTS
    ladder_s = seconds * LADDER_SHARE / len(LADDER)
    rng = random.Random(f"warm_serve/{seed}/requests")
    window = _TraceWindow(service, tracer)
    before = _cache_stats(service)
    try:
        generator = Generator(service, pool, rng, tally, tracer)
        untraced = Generator(service, pool, rng, tally, None)
        schedule = generator.schedule(NOMINAL_RATE, segment_s)
        deck = catalogue.zipf_deck(CAPACITY_DECK, generator.weights, rng)
        baseline, nominal, capacity = [], [], []
        for index in range(SEGMENTS):
            # Traced run: an untraced twin of each nominal replay is the
            # overhead baseline; which of the two follows the previous
            # capacity probe alternates, so its aftermath hits both alike.
            twin_first = index % 2 == 0
            if tracer is not None and twin_first:
                choose_cpu()
                baseline.append(untraced.open_loop(NOMINAL_RATE, segment_s, schedule=schedule))
                _finish(baseline[-1:], tally, reference, pool)
            choose_cpu()
            with window:
                nominal.append(generator.open_loop(NOMINAL_RATE, segment_s, schedule=schedule))
                _finish(nominal[-1:], tally, reference, pool)
            if tracer is not None and not twin_first:
                choose_cpu()
                baseline.append(untraced.open_loop(NOMINAL_RATE, segment_s, schedule=schedule))
                _finish(baseline[-1:], tally, reference, pool)
            choose_cpu()
            with window:
                capacity.append(generator.closed_loop(CLIENTS, deck))
                _finish(capacity[-1:], tally, reference, pool)
        complete = [step for step in capacity if step.complete]
        throughput = max([step.throughput for step in complete], default=0.0)
        ladder = []
        choose_cpu()
        with window:
            saturation = throughput
            for fraction in LADDER:
                rate = round(fraction * saturation)
                ladder.append(generator.open_loop(rate, ladder_s, ladder=True))
                if ladder[-1].backlog > rate * LATENCY_LIMIT_MS / 1e3:
                    break  # saturated: the backlog outgrew Little's bound
            _finish(ladder, tally, reference, pool)
        served = CacheStats()
        add_stats(served, _cache_stats(service), before)
    finally:
        service.close()

    outcome.notes.append(
        f"CPUs the service runs on: {len(os.sched_getaffinity(0))} of {os.cpu_count()}; "
        + quiet.note()
    )
    lookups = max(served.local_hits + served.shared_hits + served.misses, 1)
    outcome.notes.append(
        f"cache while timed: {served.local_hits / lookups:.1%} local hits, "
        f"{served.shared_hits / lookups:.1%} shared-store hits, "
        f"{served.misses / lookups:.1%} misses of {lookups} lookups"
    )
    weights = catalogue.zipf_weights(len(pool))
    outcome.notes.append(
        "request share by pool rank: "
        + ", ".join(f"{weight / sum(weights):.1%}" for weight in weights)
    )
    replays = [step.latencies for step in nominal if step.complete]
    outcome.e2e["setup_s"] = median(setups)
    outcome.e2e["throughput_rps"] = throughput
    latency_metrics(
        outcome, fastest(replays), len(replays),
        f"{len(schedule[0])} requests at the nominal {NOMINAL_RATE:g} req/s",
    )
    outcome.notes.append(
        f"throughput_rps: fastest of {len(complete)} replays of {CAPACITY_DECK} requests "
        f"with {CLIENTS} kept outstanding (median replay "
        f"{median([step.throughput for step in complete]):.3f} req/s)"
    )
    for step in ladder:
        outcome.notes.append(
            f"ladder {step.rate:g} req/s x {ladder_s:g} s: achieved {step.achieved:.2f} req/s, "
            f"p50 {median(step.latencies) * 1e3:.3f} ms, tail {tail(step.latencies)[0] * 1e3:.3f} ms, "
            f"backlog {step.backlog}, {'meets' if step.qualifies else 'misses'} "
            f"the {LATENCY_LIMIT_MS:g} ms limit"
        )
    qualified = [step for step in ladder if step.qualifies]
    if qualified:
        outcome.notes.append(
            f"max_rate_rps {qualified[-1].achieved:.6f} 1/s "
            f"(achieved at the highest qualifying ladder rate, {qualified[-1].rate:g} req/s)"
        )
    else:
        outcome.notes.append("max_rate_rps: no ladder rate meets the limit")
    if tracer is not None:
        baseline_p50 = median(fastest([step.latencies for step in baseline if step.complete]))
        trace_layers(outcome, tracer, window.cache, SEGMENTS,
                     outcome.e2e["lat_p50_ms"] / 1e3 / baseline_p50)
        outcome.layers["api.service.submit.rejected"] = sum(
            1 for step in [*nominal, *capacity, *ladder]
            for request in step.requests if request.refused
        )
        outcome.layers["api.service.submit.retries"] = window.retries
        outcome.layers["bench.generator.lag_p50_ms"] = median(generator.lags) * 1e3
        outcome.layers["bench.generator.lag_tail_ms"] = tail(generator.lags)[0] * 1e3
        outcome.layers["core.arch.execute.modeled_cycles"] = sum(r[3] for r in reference)
        outcome.layers["core.arch.execute.modeled_energy_j"] = sum(r[5] for r in reference)
    return outcome
