"""Output oracle: every report a workload serves is checked three ways.

1. ``identity()`` equals a cold run of the same content in a fresh
   session (for ``cold_compile`` every request *is* such a run, so its
   reports are held to the pinned digests of check 3 instead);
2. the functional result matches the ``software`` backend: the exact
   SAT verdict for CNFs, and likelihoods within ``REL_TOL``;
3. modeled ``identity()`` tuples, and ``em_learn``'s final weights and
   AUPRC, match ``expected.json`` kept beside this file.

``python3 reasonbench/run.py --write-expected`` regenerates the file
from cache-off cold runs.  Modeled cycles and joules are paper results:
regenerate only in a change that says why they moved.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.pc.circuit import Circuit, LeafNode, SumNode

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Relative tolerance between the accelerator model's likelihood and the
#: software reference (they sum in different orders).
REL_TOL = 1e-9


def digest(report) -> str:
    """Short stable digest of one report's modeled identity tuple."""
    return hashlib.sha256(repr(report.identity()).encode()).hexdigest()[:16]


def weights_digest(circuit: Circuit) -> str:
    """Digest of every sum weight and leaf table, in topological order."""
    sha = hashlib.sha256()
    for node in circuit.topological_order():
        if isinstance(node, SumNode):
            sha.update(np.asarray(node.weights, dtype=float).tobytes())
        elif isinstance(node, LeafNode):
            sha.update(np.asarray(node.probabilities, dtype=float).tobytes())
    return sha.hexdigest()[:16]


def results_agree(reason: Optional[float], software: Optional[float], kind: str) -> bool:
    """Check 2: SAT verdicts exactly, likelihoods within ``REL_TOL``."""
    if reason is None or software is None:
        return False
    if kind == "cnf":
        return reason == software
    return math.isclose(reason, software, rel_tol=REL_TOL, abs_tol=0.0)


def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def write_expected(entries: Dict[str, object]) -> None:
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(entries, handle, indent=0, sort_keys=True)
        handle.write("\n")


class Tally:
    """Attempts, failures and wrong outputs of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0  # refused, timed out, raised or wrong
        self.fatal = 0  # failures that make the run incorrect
        self.wrong = 0  # outputs that failed an oracle check
        self.messages: List[str] = []

    @property
    def correct(self) -> bool:
        return self.fatal == 0

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, fatal: bool = True) -> None:
        """Count a failed attempt.  Only the ``warm_serve`` ladder, which
        looks for the rate where the service saturates, passes
        ``fatal=False`` (for refusals and timeouts)."""
        self.failed += 1
        self.fatal += fatal
        if len(self.messages) < 20:
            self.messages.append(message)

    def mismatch(self, message: str) -> None:
        self.wrong += 1
        self.fail("wrong output: " + message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatch(message)
