#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads over the public API.

Run from the repository root::

    python3 reasonbench/run.py --workload cold_compile --seed 1 --seconds 36 --trace 0
    python3 reasonbench/run.py --workload all --seed 1          # every workload
    python3 reasonbench/run.py --workload em_learn --trace 1    # per-layer run
    python3 reasonbench/run.py --write-expected                 # re-pin oracle
    python3 reasonbench/run.py --spec                           # BENCHMARK.json

Each workload runs in its own process (``--workload all`` spawns one
per workload), so caches and peak memory never leak across workloads.
Human-readable lines come first; the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Traced runs also write their spans to
``reasonbench/out/``.  The exit code is non-zero when any output fails
an oracle check or any request fails (refusals and timeouts on the
``warm_serve`` ladder, which looks for saturation, excepted).
README.md beside this file explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spec import END_TO_END, PER_LAYER, WORKLOADS, spec  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import serve
    import workloads
    from measure import peak_rss_mb
    from tracer import Tracer

    runner = {
        "cold_compile": workloads.run_cold_compile,
        "warm_serve": serve.run_warm_serve,
        "em_learn": workloads.run_em_learn,
    }[workload]
    outcome = runner(seed, seconds, Tracer() if trace else None)
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    tally = outcome.tally
    for note in outcome.notes:
        print(f"{workload}: {note}")
    for message in tally.messages:
        print(f"{workload}: FAILURE {message}")
    print(f"{workload}: error_rate {tally.failed / max(tally.attempted, 1):.6f} "
          f"({tally.failed} of {tally.attempted}; {tally.wrong} wrong outputs; "
          f"{tally.fatal} fail the run)")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = outcome.layers
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-{seed}.jsonl"
        outcome.tracer.write(spans)
        print(f"{workload}: {len(outcome.tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}")
    else:
        values = outcome.e2e
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        print(f"{workload}: {name} {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            check=False,
        )
        status = max(status, completed.returncode)
    return status


def write_expected() -> None:
    """Pin every catalogue kernel's report digest from cache-off cold runs."""
    import kernels as catalogue
    import repro.pc.inference as inference_mod
    import repro.pc.learn as learn_mod
    from oracle import digest, write_expected as save, weights_digest
    from repro import ReasonSession
    from repro.workloads.r2guard import auprc

    entries = {}
    for workload, slots in (("cold_compile", catalogue.COLD_SLOTS),
                            ("warm_serve", catalogue.WARM_SLOTS)):
        for index in range(len(slots)):
            for variant in range(catalogue.VARIANTS):
                item = catalogue.build_kernel(workload, slots, index, variant)
                report = ReasonSession(cache=False).run(item.kernel, **item.options)
                entries[item.key] = digest(report)
        print(f"{workload}: {len(slots) * catalogue.VARIANTS} kernels pinned", flush=True)
    for index in range(catalogue.EM_INSTANCES):
        instance = catalogue.em_instance(index)
        session = ReasonSession(cache=False)
        iterations = []
        for _ in range(catalogue.EM_ITERATIONS):
            learn_mod.em_step(instance.circuit, instance.train)
            report = session.run(instance.circuit, calibration=instance.calibration)
            iterations.append(digest(report))
        scores = [
            inference_mod.conditional(instance.circuit, {instance.label_var: 1}, given)
            for given in instance.test_given
        ]
        entries[instance.key] = {
            "iterations": iterations,
            "weights": weights_digest(instance.circuit),
            "auprc": repr(auprc(scores, instance.test_labels)),
        }
    print(f"em_learn: {catalogue.EM_INSTANCES} instances pinned")
    save(entries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin expected.json from cache-off cold runs")
    parser.add_argument("--spec", action="store_true", help="print BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.write_expected:
        write_expected()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
