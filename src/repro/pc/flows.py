"""Top-down circuit flows (paper Sec. IV-B-b).

For input ``x`` the flow through sum-edge ``(n, c)`` is

    F_{n,c}(x) = (θ_{n,c} · p_c(x) / p_n(x)) · F_n(x)

with ``F_root(x) = 1``: the fraction of the root's probability mass that
passes through the edge.  Cumulative flows over a dataset rank edges for
REASON's adaptive pruning; the decrease in average log-likelihood caused
by deleting an edge is bounded by its mean flow.  EM (``pc/learn.py``)
reads its expected counts from the same passes.

Implementation: the circuit is flattened once into a dense plan (node
order, child index arrays, edge slots) and every query evaluates the
whole evidence batch as numpy rows — one bottom-up value pass (leaf rows
are table lookups over one evidence column per variable) and one
top-down flow pass for an entire dataset.  Element-wise operations apply
the same IEEE-754 double operations in the same order as the scalar
recurrences, and dataset totals are ordered sums (``_ordered_totals``),
so results are bit-identical to per-input evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.pc.circuit import Circuit, LeafNode, ProductNode, SumNode
from repro.pc.inference import Evidence

EdgeKey = Tuple[int, int]  # (parent node_id, child node_id)

_LEAF, _PRODUCT, _SUM = 0, 1, 2


class _FlowPlan:
    """Flattened traversal plan for one circuit root."""

    __slots__ = ("root", "order", "entries", "edge_keys", "root_index")

    def __init__(self, circuit: Circuit):
        order = circuit.topological_order()
        self.root = circuit.root
        self.order = order
        index = {node.node_id: i for i, node in enumerate(order)}
        self.root_index = index[circuit.root.node_id]
        # entries: (kind, dense index, node, child dense indices, edge slot)
        self.entries: List[Tuple[int, int, object, Tuple[int, ...], int]] = []
        self.edge_keys: List[EdgeKey] = []
        for node in order:
            dense = index[node.node_id]
            if isinstance(node, LeafNode):
                self.entries.append((_LEAF, dense, node, (), -1))
            elif isinstance(node, ProductNode):
                children = tuple(index[c.node_id] for c in node.children)
                self.entries.append((_PRODUCT, dense, node, children, -1))
            elif isinstance(node, SumNode):
                children = tuple(index[c.node_id] for c in node.children)
                slot = len(self.edge_keys)
                self.entries.append((_SUM, dense, node, children, slot))
                for child in node.children:
                    self.edge_keys.append((node.node_id, child.node_id))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown node type: {node!r}")


def _plan_for(circuit: Circuit) -> _FlowPlan:
    plan = getattr(circuit, "_flow_plan", None)
    if plan is None or plan.root is not circuit.root:
        plan = _FlowPlan(circuit)
        circuit._flow_plan = plan
    return plan


def _leaf_index(dataset: Sequence[Evidence], variable: int, k: int) -> np.ndarray:
    """Per-input slot in a k-state leaf's table ``[p_0..p_{k-1}, 0, Σp]``:
    the value if in ``[0, k)``, else ``k``; ``k + 1`` if missing (LeafNode.prob)."""
    column = [evidence.get(variable) for evidence in dataset]
    return np.array(
        [k + 1 if v is None else v if 0 <= v < k else k for v in column], dtype=np.intp
    )


def _evaluate_batch(
    plan: _FlowPlan, dataset: Sequence[Evidence], leaf_index: Optional[dict] = None
) -> np.ndarray:
    """Bottom-up values, one row per node and one column per evidence.

    Element-wise accumulation order matches the scalar evaluator, so
    each column is bit-identical to ``_evaluate_all`` on that evidence.
    ``leaf_index`` memoizes :func:`_leaf_index` per ``(variable, k)``.
    """
    m = len(dataset)
    leaf_index = {} if leaf_index is None else leaf_index
    values = np.empty((len(plan.order), m), dtype=float)
    for kind, dense, node, children, _ in plan.entries:
        if kind == _LEAF:
            probs = node.probabilities
            key = (node.variable, len(probs))
            if key not in leaf_index:
                leaf_index[key] = _leaf_index(dataset, *key)
            table = np.concatenate((probs, (0.0, float(probs.sum()))))
            values[dense] = table[leaf_index[key]]
        elif kind == _PRODUCT:
            row = values[children[0]].copy()
            for child in children[1:]:
                row *= values[child]
            values[dense] = row
        else:  # _SUM
            row = np.zeros(m)
            for child, weight in zip(children, node.weights):
                row += weight * values[child]
            values[dense] = row
    return values


def _flow_batch(
    plan: _FlowPlan, values: np.ndarray, want_edges: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-down flows per node (and per sum edge when requested)."""
    num_nodes, m = values.shape
    flows = np.zeros((num_nodes, m))
    flows[plan.root_index] = 1.0
    edge_values = np.zeros((len(plan.edge_keys) if want_edges else 0, m))
    for kind, dense, node, children, slot in reversed(plan.entries):
        if kind == _LEAF:
            continue
        flow = flows[dense]
        if kind == _PRODUCT:
            # A product passes its full flow to every child.
            if flow.any():
                for child in children:
                    flows[child] += flow
            continue
        parent_value = values[dense]
        # Contribution ((θ·p_c)/p_n)·F_n masked where it is skipped by
        # the scalar recurrence; adding the masked zeros is exact
        # because every flow is non-negative.
        mask = (parent_value > 0) & (flow != 0.0)
        any_live = mask.any()
        for offset, (child, weight) in enumerate(zip(children, node.weights)):
            if any_live:
                contribution = np.divide(
                    weight * values[child],
                    parent_value,
                    out=np.zeros(m),
                    where=mask,
                )
                contribution *= flow
                flows[child] += contribution
            else:
                contribution = np.zeros(m)
            if want_edges:
                edge_values[slot + offset] = contribution
    return flows, edge_values


def _ordered_totals(rows: np.ndarray) -> np.ndarray:
    """Per-row totals summed left to right, as a per-input loop would
    (``np.sum``'s pairwise order would change the bits)."""
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0])
    return np.add.accumulate(rows, axis=1)[:, -1]


def node_flows(circuit: Circuit, evidence: Evidence) -> Dict[int, float]:
    """Top-down flow F_n(x) reaching each node for one input."""
    plan = _plan_for(circuit)
    values = _evaluate_batch(plan, [evidence])
    flows, _ = _flow_batch(plan, values, want_edges=False)
    return {
        node.node_id: float(flows[i, 0]) for i, node in enumerate(plan.order)
    }


def edge_flows(circuit: Circuit, evidence: Evidence) -> Dict[EdgeKey, float]:
    """Flow through every sum edge for one input."""
    plan = _plan_for(circuit)
    values = _evaluate_batch(plan, [evidence])
    _, edge_values = _flow_batch(plan, values, want_edges=True)
    return {
        key: float(edge_values[k, 0]) for k, key in enumerate(plan.edge_keys)
    }


def dataset_edge_flows(
    circuit: Circuit, dataset: Iterable[Evidence]
) -> Tuple[Dict[EdgeKey, float], int]:
    """Cumulative edge flows F_{n,c}(D) = Σ_x F_{n,c}(x) over a dataset.

    Returns the flow map and the number of inputs accumulated.
    """
    data = list(dataset)
    if not data:
        return {}, 0
    plan = _plan_for(circuit)
    values = _evaluate_batch(plan, data)
    _, edge_values = _flow_batch(plan, values, want_edges=True)
    totals = _ordered_totals(edge_values)
    return {key: float(total) for key, total in zip(plan.edge_keys, totals)}, len(data)


def flow_pruning_bound(cumulative_flow: float, dataset_size: int) -> float:
    """Paper's bound: Δ log L ≤ F_{n,c}(D) / |D| for removing one edge."""
    if dataset_size <= 0:
        raise ValueError("dataset_size must be positive")
    return cumulative_flow / dataset_size
