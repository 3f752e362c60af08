"""Parameter learning and structure generation for probabilistic circuits.

EM via circuit flows: expected edge usage over the data gives the
sufficient statistics for sum weights and leaf distributions in closed
form — the same flow quantity REASON's pruning stage ranks edges by, so
learning and pruning share one machinery.  An EM step is one batched
value pass and one batched flow pass over the whole dataset
(``pc/flows.py``).  Every count is an ordered left-to-right sum over the
dataset, never a pairwise one: that is the contract that keeps trained
weights bit-identical to the per-example recurrence.
"""

from __future__ import annotations

import math
import random as _random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pc.circuit import Circuit, CircuitNode, ProductNode, SumNode, bernoulli_leaf
from repro.pc.flows import _LEAF, _SUM, _evaluate_batch, _flow_batch, _ordered_totals, _plan_for
from repro.pc.inference import Evidence, sample


def em_step(circuit: Circuit, dataset: Sequence[Evidence], smoothing: float = 0.1) -> Circuit:
    """One EM iteration, updating sum weights and leaf tables in place.

    Expected counts come from top-down flows; ``smoothing`` is a
    Laplace-style pseudo-count that keeps probabilities strictly
    positive.  Every count is computed before any weight is written.
    """
    plan = _plan_for(circuit)
    leaf_index: Dict[Tuple[int, int], np.ndarray] = {}
    values = _evaluate_batch(plan, dataset, leaf_index)
    flows, edge_values = _flow_batch(plan, values, want_edges=True)
    edge_totals = _ordered_totals(edge_values)
    counts = []  # (node, attribute, totals)
    for kind, dense, node, children, slot in plan.entries:
        if kind == _SUM:
            counts.append((node, "weights", edge_totals[slot : slot + len(children)]))
        elif kind == _LEAF:
            k = len(node.probabilities)
            index = leaf_index[(node.variable, k)]
            if (index == k).any():
                raise ValueError(f"evidence for variable {node.variable} lies outside [0, {k})")
            per_value = np.where(index == np.arange(k)[:, None], flows[dense], 0.0)
            counts.append((node, "probabilities", _ordered_totals(per_value)))
    for node, attribute, total in counts:
        smoothed = total + smoothing
        setattr(node, attribute, smoothed / smoothed.sum())
    return circuit


def fit_em(
    circuit: Circuit,
    dataset: Sequence[Evidence],
    iterations: int = 10,
    smoothing: float = 0.1,
    tolerance: float = 1e-6,
) -> Tuple[Circuit, List[float]]:
    """Run EM to convergence; returns the circuit and the LL trajectory."""
    history: List[float] = []
    plan = _plan_for(circuit)
    for _ in range(iterations):
        em_step(circuit, dataset, smoothing)
        roots = _evaluate_batch(plan, dataset)[plan.root_index].tolist()
        total = sum(math.log(value) if value > 0 else float("-inf") for value in roots)
        history.append(total / max(len(dataset), 1))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tolerance:
            break
    return circuit, history


def random_circuit(
    num_vars: int,
    depth: int = 3,
    sum_children: int = 3,
    seed: Optional[int] = None,
) -> Circuit:
    """Random smooth & decomposable circuit over binary variables.

    Recursively splits the variable scope at product nodes and mixes
    ``sum_children`` alternative decompositions at sum nodes — the
    region-graph style structure used by learned PCs.
    """
    rng = _random.Random(seed)

    def build(scope: List[int], level: int) -> CircuitNode:
        if len(scope) == 1:
            return bernoulli_leaf(scope[0], rng.uniform(0.1, 0.9))
        if level <= 0:
            # Fully factorize the remaining scope.
            return ProductNode([build([v], 0) for v in scope])
        mixtures: List[CircuitNode] = []
        for _ in range(sum_children):
            shuffled = scope[:]
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            left = sorted(shuffled[:cut])
            right = sorted(shuffled[cut:])
            mixtures.append(
                ProductNode([build(left, level - 1), build(right, level - 1)])
            )
        weights = [rng.uniform(0.2, 1.0) for _ in mixtures]
        node = SumNode(mixtures, weights)
        node.normalize()
        return node

    circuit = Circuit(build(list(range(num_vars)), depth))
    circuit.validate()
    return circuit


def random_binary_tree_circuit(num_vars: int, seed: Optional[int] = None) -> Circuit:
    """A balanced binary-tree-structured circuit (HCLT-like skeleton).

    Every internal scope split is a sum over two product decompositions;
    already in two-input form, so it maps directly onto REASON's tree
    PEs without regularization.
    """
    rng = _random.Random(seed)

    def build(scope: List[int]) -> CircuitNode:
        if len(scope) == 1:
            return bernoulli_leaf(scope[0], rng.uniform(0.1, 0.9))
        mid = len(scope) // 2
        left, right = scope[:mid], scope[mid:]
        alternatives = [
            ProductNode([build(left), build(right)]),
            ProductNode([build(left), build(right)]),
        ]
        node = SumNode(alternatives, [rng.uniform(0.2, 1.0) for _ in alternatives])
        node.normalize()
        return node

    circuit = Circuit(build(list(range(num_vars))))
    circuit.validate()
    return circuit


def sample_dataset(
    circuit: Circuit, size: int, seed: Optional[int] = None
) -> List[Evidence]:
    """Draw a dataset of full assignments from the circuit."""
    rng = _random.Random(seed)
    return [sample(circuit, rng) for _ in range(size)]
