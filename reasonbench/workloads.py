"""The closed-loop workloads ``cold_compile`` and ``em_learn`` (the
open-loop ``warm_serve`` lives in :mod:`serve`), and what they share.

Each ``run_*`` function drives the library through its public API for
``seconds`` of measured time, checks every output with the oracle, and
returns a :class:`Outcome`.  With a :class:`~tracer.Tracer` it makes a
traced run instead: unit 0 (a pass or a training) warms up untraced,
then units alternate untraced, as the overhead baseline, and traced.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.pc.inference as inference_mod
import repro.pc.learn as learn_mod
from repro import ReasonSession
from repro.api.cache import CacheStats
from repro.workloads.r2guard import auprc

import kernels as catalogue
from measure import QuietCpu, collect, fastest, median, tail
from oracle import Tally, digest, load_expected, results_agree, weights_digest
from spec import LAYERS
from tracer import Tracer


@dataclass
class Outcome:
    """What one workload run measured."""

    tally: Tally
    e2e: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)  # extra printed lines
    layers: Dict[str, float] = field(default_factory=dict)  # traced run only
    tracer: Optional[Tracer] = None


def add_stats(total: CacheStats, stats: CacheStats, base: Optional[CacheStats] = None) -> None:
    for name in ("local_hits", "shared_hits", "misses", "evictions", "promotions"):
        delta = getattr(stats, name) - (getattr(base, name) if base is not None else 0)
        setattr(total, name, getattr(total, name) + delta)


def latency_metrics(outcome: Outcome, latencies: List[float], repeats: int, label: str) -> None:
    """``lat_p50_ms`` and ``lat_tail_ms`` over ``latencies``: each
    request's fastest time over the run's ``repeats`` of it."""
    value, percentile, n = tail(latencies)
    outcome.e2e["lat_p50_ms"] = median(latencies) * 1e3
    outcome.e2e["lat_tail_ms"] = value * 1e3
    outcome.notes.append(
        f"lat_p50_ms, lat_tail_ms (p{percentile:.1f} of n={n}): {label}, "
        f"each its fastest of {repeats} repeats"
    )


def trace_layers(outcome: Outcome, tracer: Tracer, cache: CacheStats, units: int,
                 overhead_ratio: float) -> None:
    """Fold the tracer's spans and counters into per-layer metrics."""
    layers = outcome.layers
    for name in LAYERS:
        layers[f"{name}.calls"] = tracer.calls.get(name, 0)
        layers[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        layers[f"{name}.failures"] = tracer.failures.get(name, 0)
    for name in ("local_hits", "shared_hits", "misses", "evictions"):
        layers[f"api.cache.lookup.{name}"] = getattr(cache, name)
    layers["api.cache.lookup.hit_ratio"] = cache.hit_rate
    layers["logic.cdcl.solve.conflicts"] = tracer.counts.get("conflicts", 0)
    for name in ("instructions", "spills", "reloads"):
        layers[f"core.compiler.compile_dag.{name}"] = tracer.counts.get(name, 0)
    waits = tracer.queue_waits
    layers["api.service.submit.queue_wait_p50_ms"] = median(waits) * 1e3
    layers["api.service.submit.queue_wait_tail_ms"] = tail(waits)[0] * 1e3
    layers.setdefault("api.service.submit.rejected", 0)
    layers.setdefault("api.service.submit.retries", 0)
    layers.setdefault("bench.generator.lag_p50_ms", 0.0)
    layers.setdefault("bench.generator.lag_tail_ms", 0.0)
    layers["trace.overhead_ratio"] = overhead_ratio
    layers["trace.units"] = units
    if tracer.queue_mismatches:
        outcome.tally.fail(f"{tracer.queue_mismatches} queue-wait records unmatched")


def traced_unit(tracer: Optional[Tracer], unit: int) -> bool:
    """In a traced run, unit 0 warms up untraced, then units alternate
    untraced (the overhead baseline) and traced."""
    return tracer is not None and unit > 0 and unit % 2 == 0


def enough_units(tracer: Optional[Tracer], units: int) -> bool:
    return tracer is None or units >= 3


def overhead(tracer: Optional[Tracer], units: List["Unit"]) -> float:
    """Traced over untraced median unit time, complete units only."""
    times = [(index, sum(unit.latencies)) for index, unit in enumerate(units) if unit.complete]
    traced = [s for index, s in times if traced_unit(tracer, index)]
    untraced = [s for index, s in times if index > 0 and not traced_unit(tracer, index)]
    return median(traced) / median(untraced) if untraced else 0.0


@dataclass
class Unit:
    """One pass (``cold_compile``) or training (``em_learn``)."""

    setup_s: float
    latencies: List[float]  # per request or EM iteration that succeeded
    complete: bool  # every request or iteration succeeded
    cache: CacheStats


def untraced_units(tracer: Optional[Tracer], units: List[Unit]) -> List[Unit]:
    """The units end-to-end metrics come from: untraced and complete, so a
    failed request never shortens a measured unit."""
    return [
        unit for index, unit in enumerate(units)
        if unit.complete and not traced_unit(tracer, index)
    ]


# ------------------------------------------------------------- cold_compile


def _cold_pass(variants, order, expected, tally: Tally, tracer: Optional[Tracer],
               index: int, modeled: List[float], quiet: QuietCpu) -> Unit:
    """One pass: build every kernel fresh, then compile each cold in a new
    cached session.  Pass 0 also checks results against the software
    backend and sums the modeled reports into ``modeled``."""
    traced = traced_unit(tracer, index)
    collect()
    quiet.choose()
    setup_start = time.perf_counter()
    built = catalogue.cold_kernels(variants)
    session = ReasonSession()
    setup_s = time.perf_counter() - setup_start
    if traced:
        tracer.counting = index == 2
        tracer.install()
    reports = {}
    latencies: List[float] = []
    try:
        for position in order:
            item = built[position]
            tally.attempt()
            if traced:
                tracer.set_request(f"{index}:{item.key}")
            quiet.between_requests()
            start = time.perf_counter()
            try:
                report = session.run(item.kernel, **item.options)
            except Exception as exc:  # a failed request is a counted outcome
                tally.fail(f"{item.key}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            reports[position] = report
            tally.check(
                not report.cache_hit and digest(report) == expected.get(item.key),
                f"{item.key} ({item.name}) report differs from expected.json",
            )
    finally:
        if traced:
            tracer.uninstall()
    if index == 0:
        # Functional check against the software backend, once per run
        # (a cache hit on this session: only the reference runs).
        for position, report in reports.items():
            item = built[position]
            software = session.run(item.kernel, backend="software", **item.options)
            tally.check(
                results_agree(report.result, software.result, report.kernel),
                f"{item.key} ({item.name}) result {report.result!r} != "
                f"software {software.result!r}",
            )
            modeled[0] += report.cycles
            modeled[1] += report.energy_j
    return Unit(setup_s, latencies, len(reports) == len(order), session.cache_stats)


def run_cold_compile(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """Closed loop, one client: ~100 distinct kernels, each compiled cold
    in a fresh cached session; passes repeat (kernels rebuilt fresh)."""
    tally = Tally()
    outcome = Outcome(tally, tracer=tracer)
    expected = load_expected()
    variants = catalogue.cold_variants()
    order = list(range(len(variants)))
    random.Random(f"cold_compile/{seed}/order").shuffle(order)
    units: List[Unit] = []
    modeled = [0, 0.0]  # cycles, joules of the distinct kernels
    quiet = QuietCpu()
    started = time.perf_counter()
    while True:
        units.append(
            _cold_pass(variants, order, expected, tally, tracer, len(units), modeled, quiet)
        )
        if time.perf_counter() - started >= seconds and enough_units(tracer, len(units)):
            break
    measured = untraced_units(tracer, units)
    best = fastest([unit.latencies for unit in measured])
    outcome.e2e["setup_s"] = median([unit.setup_s for unit in units])
    outcome.e2e["throughput_rps"] = len(best) / sum(best) if best else 0.0
    latency_metrics(outcome, best, len(measured), "cold requests")
    outcome.notes.append(
        f"passes={len(units)} kernels_per_pass={len(order)}; throughput_rps is kernels "
        f"over the sum of their fastest cold runs (median pass: "
        f"{median([len(unit.latencies) / sum(unit.latencies) for unit in measured]):.3f} req/s)"
    )
    outcome.notes.append("max_rate_rps = throughput_rps for a one-client closed loop")
    outcome.notes.append(quiet.note())
    if tracer is not None:
        cache = CacheStats()
        for index, unit in enumerate(units):
            if traced_unit(tracer, index):
                add_stats(cache, unit.cache)
        trace_layers(outcome, tracer, cache, (len(units) - 1) // 2, overhead(tracer, units))
        outcome.layers["core.arch.execute.modeled_cycles"] = modeled[0]
        outcome.layers["core.arch.execute.modeled_energy_j"] = modeled[1]
    return outcome


# ------------------------------------------------------------------ em_learn


def _em_iteration(instance, session: ReasonSession):
    """One EM step as the caller waits for it: write, cold read, warm
    read, score the test set."""
    learn_mod.em_step(instance.circuit, instance.train)
    circuit_report = session.run(instance.circuit, calibration=instance.calibration)
    hmm_report = session.run(instance.hmm, hmm_observations=instance.hmm_observations)
    query = {instance.label_var: 1}
    scores = [
        inference_mod.conditional(instance.circuit, query, given)
        for given in instance.test_given
    ]
    return circuit_report, hmm_report, scores


def _em_training(index: int, expected, hmm_reference, tally: Tally,
                 tracer: Optional[Tracer], unit: int, modeled: List[float],
                 quiet: QuietCpu) -> Unit:
    """One training of ``EM_ITERATIONS`` steps on a fresh instance and a
    fresh session (set-up: build the instance, prefill the HMM).
    Training 0 also checks each circuit result against the software
    backend and sums the modeled reports into ``modeled``."""
    traced = traced_unit(tracer, unit)
    collect()
    quiet.choose()
    setup_start = time.perf_counter()
    instance = catalogue.em_instance(index)
    session = ReasonSession(cache_capacity=2)
    session.run(instance.hmm, hmm_observations=instance.hmm_observations)
    setup_s = time.perf_counter() - setup_start
    if traced:
        tracer.counting = unit == 2
        tracer.install()
    snapshots = []
    latencies: List[float] = []
    scores: List[float] = []
    try:
        for step in range(catalogue.EM_ITERATIONS):
            tally.attempt()
            if traced:
                tracer.set_request(f"{unit}:{step}")
            quiet.between_requests()
            start = time.perf_counter()
            try:
                circuit_report, hmm_report, scores = _em_iteration(instance, session)
            except Exception as exc:  # the training cannot go on
                tally.fail(f"EM iteration {step}: {exc!r}")
                break
            latencies.append(time.perf_counter() - start)
            ok = (
                digest(circuit_report) == expected["iterations"][step]
                and not circuit_report.cache_hit
                and hmm_report.cache_hit
                and hmm_report.identity() == hmm_reference.identity()
            )
            if step == catalogue.EM_ITERATIONS - 1:
                ok = ok and weights_digest(instance.circuit) == expected["weights"]
                ok = ok and repr(auprc(scores, instance.test_labels)) == expected["auprc"]
            tally.check(ok, f"training {unit} iteration {step} differs from expected.json")
            if unit == 0:
                snapshots.append((copy.deepcopy(instance.circuit), circuit_report))
    finally:
        if traced:
            tracer.uninstall()
    for circuit, report in snapshots:
        software = ReasonSession(cache=False).run(
            circuit, backend="software", calibration=instance.calibration
        )
        tally.check(
            results_agree(report.result, software.result, "circuit"),
            f"EM circuit result {report.result!r} != software {software.result!r}",
        )
        modeled[0] += report.cycles
        modeled[1] += report.energy_j
    complete = len(latencies) == catalogue.EM_ITERATIONS
    return Unit(setup_s, latencies, complete, session.cache_stats)


def run_em_learn(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    """Closed loop of EM trainings over one seeded R2-Guard instance."""
    tally = Tally()
    outcome = Outcome(tally, tracer=tracer)
    index = catalogue.em_instance_index(seed)
    expected = load_expected()[f"em_learn/{index}"]
    # Oracle reference for the warm HMM read: a cold run, fresh session.
    reference = catalogue.em_instance(index)
    hmm_reference = ReasonSession(cache=False).run(
        reference.hmm, hmm_observations=reference.hmm_observations
    )
    hmm_software = ReasonSession(cache=False).run(
        reference.hmm, backend="software", hmm_observations=reference.hmm_observations
    )
    tally.check(
        results_agree(hmm_reference.result, hmm_software.result, "hmm"),
        "smoothing HMM result differs from the software backend",
    )
    del reference
    units: List[Unit] = []
    modeled = [hmm_reference.cycles, hmm_reference.energy_j]
    quiet = QuietCpu()
    started = time.perf_counter()
    while True:
        units.append(
            _em_training(index, expected, hmm_reference, tally, tracer, len(units), modeled, quiet)
        )
        if time.perf_counter() - started >= seconds and enough_units(tracer, len(units)):
            break
    measured = untraced_units(tracer, units)
    best = fastest([unit.latencies for unit in measured])
    outcome.e2e["setup_s"] = median([unit.setup_s for unit in units])
    outcome.e2e["throughput_rps"] = len(best) / sum(best) if best else 0.0
    latency_metrics(outcome, best, len(measured), "EM iterations")
    outcome.notes.append(
        f"train_s {sum(best):.6f} s ({catalogue.EM_ITERATIONS} EM iterations, each its fastest "
        f"of {len(measured)} trainings; median training "
        f"{median([sum(unit.latencies) for unit in measured]):.6f} s)"
    )
    outcome.notes.append("throughput_rps counts EM iterations; max_rate_rps = throughput_rps")
    outcome.notes.append(quiet.note())
    if tracer is not None:
        cache = CacheStats()
        for unit, training in enumerate(units):
            if traced_unit(tracer, unit):
                add_stats(cache, training.cache)
        trace_layers(outcome, tracer, cache, (len(units) - 1) // 2, overhead(tracer, units))
        outcome.layers["core.arch.execute.modeled_cycles"] = modeled[0]
        outcome.layers["core.arch.execute.modeled_energy_j"] = modeled[1]
    return outcome
