"""Span tracing from outside the program: wrappers around layer entries.

:class:`Tracer` installs timing wrappers around the public entry point
of each layer (class attributes and the module-level names the session
resolves at call time) and restores the originals on :meth:`uninstall`.
Each call becomes one span: name, start, end, parent span (the
enclosing span on the same thread) and request id.  Spans stay in
memory until :meth:`write` dumps them as JSON lines.  A span's *self
time* is its duration minus the time its child spans cover.

Queue wait — from ``ReasonService.submit`` returning to the shard's
``run_prepared`` starting — is matched per request: each shard serves
its queue in FIFO order, so the n-th ``run_prepared`` on shard *i*
belongs to the n-th request admitted to shard *i* (checked by
fingerprint; retries would break the order, and are counted).
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import threading
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple

import repro.api.adapters as adapters_mod
import repro.pc.inference as inference_mod
import repro.pc.learn as learn_mod
from repro.api.backends import ReasonBackend
from repro.api.cache import CompileCache
from repro.api.service import ReasonService
from repro.api.session import ReasonSession
from repro.api.store import SharedStore
from repro.logic.cdcl import CDCLSolver

_SHARD_THREAD = re.compile(r"reason-shard-(\d+)")


class Tracer:
    """Per-layer spans, self times, failures and work counts of one run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, object, str]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.failures: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)  # per-layer work counters
        self.counting = False  # count work only inside one unit of work
        self.queue_waits: List[float] = []
        self.queue_mismatches = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._admitted: Dict[int, deque] = defaultdict(deque)
        self._admitted_cond = threading.Condition()
        self._restore: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def set_request(self, request_id: object) -> None:
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else -1
        frame = [name, time.perf_counter(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def close(self, frame: list, failed: bool = False) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child_s, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        request = getattr(self._local, "request", None)
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += duration - child_s
            if failed:
                self.failures[name] += 1
            self.spans.append(
                (span_id, name, start, end, parent, request, threading.current_thread().name)
            )

    def span(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``;
        ``counter(args, result)`` adds work counts for the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(frame, failed=True)
                raise
            self.close(frame)
            if counter is not None and self.counting:
                with self._lock:
                    for key, value in counter(args, result).items():
                        self.counts[key] += value
            return result

        return wrapper

    # -------------------------------------------------------- installation

    def _patch(self, owner: object, attr: str, wrapper_for: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def install(self) -> None:
        span = self.span
        self._patch(adapters_mod.KernelAdapter, "fingerprint",
                    lambda fn: span("api.adapters.fingerprint", fn))
        for adapter in (adapters_mod.CnfAdapter, adapters_mod.CircuitAdapter,
                        adapters_mod.HmmAdapter, adapters_mod.DagAdapter):
            self._patch(adapter, "prepare", lambda fn: span("api.adapters.prepare", fn))
        self._patch(CompileCache, "get_or_compile", lambda fn: span("api.cache.lookup", fn))
        self._patch(SharedStore, "get", lambda fn: span("api.store", fn))
        self._patch(SharedStore, "put", lambda fn: span("api.store", fn))
        self._patch(CDCLSolver, "solve", lambda fn: span(
            "logic.cdcl.solve", fn, lambda args, _: {"conflicts": args[0].stats.conflicts}))
        self._patch(adapters_mod, "optimize", lambda fn: span("core.dag.optimize", fn))
        self._patch(adapters_mod, "compile_dag", lambda fn: span(
            "core.compiler.compile_dag", fn, _compile_counts))
        self._patch(ReasonBackend, "run", lambda fn: span("core.arch.execute", fn))
        self._patch(ReasonSession, "run_prepared", self._wrap_run_prepared)
        self._patch(ReasonService, "submit", self._wrap_submit)
        self._patch(learn_mod, "em_step", lambda fn: span("pc.learn.em_step", fn))
        self._patch(inference_mod, "conditional",
                    lambda fn: span("pc.inference.conditional", fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------ service request matching

    def _wrap_submit(self, fn: Callable) -> Callable:
        traced = self.span("api.service.submit", fn)

        @functools.wraps(fn)
        def submit(*args, **kwargs):
            future = traced(*args, **kwargs)
            entry = (getattr(self._local, "request", None), future.fingerprint,
                     time.perf_counter())
            with self._admitted_cond:
                self._admitted[future.shard_index].append(entry)
                self._admitted_cond.notify_all()
            return future

        return submit

    def _wrap_run_prepared(self, fn: Callable) -> Callable:
        traced = self.span("api.session.run", fn)

        @functools.wraps(fn)
        def run_prepared(*args, **kwargs):
            match = _SHARD_THREAD.match(threading.current_thread().name)
            if match is not None:
                self._match_admission(int(match.group(1)), kwargs.get("fingerprint"))
            return traced(*args, **kwargs)

        return run_prepared

    def _match_admission(self, shard: int, fingerprint: Optional[str]) -> None:
        started = time.perf_counter()
        with self._admitted_cond:
            # The worker can dequeue before submit() has returned to the
            # generator; wait (bounded) for the admission record.
            queue = self._admitted[shard]
            if not queue:
                self._admitted_cond.wait_for(lambda: bool(queue), timeout=1.0)
            if not queue:
                self.queue_mismatches += 1
                return
            request, admitted_fingerprint, returned = queue.popleft()
        if admitted_fingerprint != fingerprint:
            self.queue_mismatches += 1
        self.set_request(request)
        with self._lock:
            self.queue_waits.append(max(started - returned, 0.0))

    # --------------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "thread": thread,
                }) + "\n")


def _compile_counts(args, result) -> Dict[str, int]:
    program, stats = result
    return {
        "instructions": len(program.instructions),
        "spills": stats.schedule.spills,
        "reloads": stats.schedule.reloads,
    }
