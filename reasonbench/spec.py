"""What the benchmark reports: workloads, metrics, units and bounds.

``python3 reasonbench/run.py --spec`` prints the ``BENCHMARK.json``
these definitions make; the file at the repository root is that output.
"""

WORKLOADS = ("cold_compile", "warm_serve", "em_learn")

#: (name, unit, better, bound): bound is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
    ("lat_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Every layer a traced run reports, named after the public entry it
#: times (``bench.generator`` is the benchmark's own load generator).
LAYERS = (
    "api.adapters.fingerprint",
    "api.adapters.prepare",
    "api.cache.lookup",
    "api.store",
    "logic.cdcl.solve",
    "core.dag.optimize",
    "core.compiler.compile_dag",
    "core.arch.execute",
    "api.session.run",
    "api.service.submit",
    "pc.learn.em_step",
    "pc.inference.conditional",
    "bench.generator",
)

#: (name, unit, better) of every per-layer metric a traced run prints.
PER_LAYER = tuple(
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.calls", "count", "higher"),
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.failures", "count", "lower"),
    )
) + (
    ("api.cache.lookup.local_hits", "count", "higher"),
    ("api.cache.lookup.shared_hits", "count", "higher"),
    ("api.cache.lookup.misses", "count", "lower"),
    ("api.cache.lookup.evictions", "count", "lower"),
    ("api.cache.lookup.hit_ratio", "ratio", "higher"),
    ("logic.cdcl.solve.conflicts", "count", "lower"),
    ("core.compiler.compile_dag.instructions", "count", "lower"),
    ("core.compiler.compile_dag.spills", "count", "lower"),
    ("core.compiler.compile_dag.reloads", "count", "lower"),
    ("core.arch.execute.modeled_cycles", "cycles", "lower"),
    ("core.arch.execute.modeled_energy_j", "J", "lower"),
    ("api.service.submit.queue_wait_p50_ms", "ms", "lower"),
    ("api.service.submit.queue_wait_tail_ms", "ms", "lower"),
    ("api.service.submit.rejected", "count", "lower"),
    ("api.service.submit.retries", "count", "lower"),
    ("bench.generator.lag_p50_ms", "ms", "lower"),
    ("bench.generator.lag_tail_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.units", "count", "higher"),
)

WHY = {
    "cold_compile": "~100 distinct kernels compiled cold: CDCL, DAG optimize and the compiler do the work",
    "warm_serve": "open-loop Zipf traffic over a prefilled pool: fingerprint, cache, replay, admission, queueing",
    "em_learn": "R2-Guard EM: in-place weight writes, cold compiles into a bounded cache, warm reads, scoring",
}


def spec() -> dict:
    """The BENCHMARK.json this benchmark implements."""
    return {
        "command": ["python3", "reasonbench/run.py"],
        "paths": ["reasonbench"],
        "run_seconds": 36,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
