"""Whole-dataset EM against the per-example reference recurrence.

``em_step`` runs one batched value pass and one batched flow pass over
the whole dataset.  The reference below is the per-example EM it
replaced (a scalar bottom-up pass plus a batch-of-one flow pass per
row, counts accumulated row by row); trained weights must match it
bit for bit, compared with ``.tobytes()``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pc.circuit import Circuit, LeafNode, ProductNode, SumNode, indicator_leaf
from repro.pc.flows import _evaluate_batch, _plan_for, node_flows
from repro.pc.inference import _evaluate_all, log_likelihood
from repro.pc.learn import em_step, fit_em, random_binary_tree_circuit, random_circuit


def reference_em_step(circuit, dataset, smoothing=0.1):
    """Per-example EM: one scalar evaluation and one m=1 flow pass per row."""
    sum_counts, leaf_counts = {}, {}
    nodes = circuit.topological_order()
    for node in nodes:
        if isinstance(node, SumNode):
            sum_counts[node.node_id] = np.zeros(len(node.children))
        elif isinstance(node, LeafNode):
            leaf_counts[node.node_id] = np.zeros(len(node.probabilities))
    for evidence in dataset:
        values = _evaluate_all(circuit, evidence)
        flows = node_flows(circuit, evidence)
        for node in nodes:
            if isinstance(node, SumNode):
                parent_value = values[node.node_id]
                if parent_value <= 0:
                    continue
                flow = flows[node.node_id]
                for idx, (child, weight) in enumerate(zip(node.children, node.weights)):
                    share = weight * values[child.node_id] / parent_value
                    sum_counts[node.node_id][idx] += share * flow
            elif isinstance(node, LeafNode):
                value = evidence.get(node.variable)
                if value is not None:
                    leaf_counts[node.node_id][value] += flows[node.node_id]
    for node in nodes:
        if isinstance(node, SumNode):
            counts = sum_counts[node.node_id] + smoothing
            node.weights = counts / counts.sum()
        elif isinstance(node, LeafNode):
            counts = leaf_counts[node.node_id] + smoothing
            node.probabilities = counts / counts.sum()
    return circuit


def reference_history(circuit, dataset, iterations, smoothing=0.1):
    history = []
    for _ in range(iterations):
        reference_em_step(circuit, dataset, smoothing)
        total = sum(log_likelihood(circuit, evidence) for evidence in dataset)
        history.append(total / max(len(dataset), 1))
    return history


def parameter_bytes(circuit):
    out = []
    for node in circuit.topological_order():
        if isinstance(node, SumNode):
            out.append(node.weights.tobytes())
        elif isinstance(node, LeafNode):
            out.append(node.probabilities.tobytes())
    return out


def build(kind, num_vars, seed):
    if kind == "random":
        return random_circuit(num_vars, depth=3, sum_children=3, seed=seed)
    return random_binary_tree_circuit(num_vars, seed=seed)


def random_dataset(num_vars, size, missing, seed):
    """Rows over binary variables; a missing value is either an explicit
    ``None`` or an absent key."""
    rng = random.Random(seed)
    rows = []
    for _ in range(size):
        row = {}
        for v in range(num_vars):
            if rng.random() >= missing:
                row[v] = rng.randrange(2)
            elif rng.random() < 0.5:
                row[v] = None
        rows.append(row)
    return rows


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["random", "binary_tree"]),
    num_vars=st.integers(min_value=3, max_value=10),
    size=st.integers(min_value=1, max_value=40),
    missing=st.sampled_from([0.0, 0.2, 0.6]),
    iterations=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batched_em_matches_per_example_reference(kind, num_vars, size, missing, iterations, seed):
    batched = build(kind, num_vars, seed)
    reference = build(kind, num_vars, seed)
    dataset = random_dataset(num_vars, size, missing, seed)
    for _ in range(iterations):
        em_step(batched, dataset)
        reference_em_step(reference, dataset)
        assert parameter_bytes(batched) == parameter_bytes(reference)


@pytest.mark.parametrize("kind", ["random", "binary_tree"])
def test_fit_em_history_matches_per_example_reference(kind):
    batched = build(kind, 6, seed=3)
    reference = build(kind, 6, seed=3)
    dataset = random_dataset(6, 60, 0.2, seed=4)
    _, history = fit_em(batched, dataset, iterations=4, tolerance=0.0)
    assert history == reference_history(reference, dataset, 4)
    assert parameter_bytes(batched) == parameter_bytes(reference)


def test_zero_mass_evidence_is_skipped_like_the_reference():
    # Indicator leaves give the second row zero mass at the root, so the
    # sum node's parent value is 0 and that row contributes no counts.
    def make():
        return Circuit(SumNode([indicator_leaf(0, 0), indicator_leaf(0, 0)], [0.5, 0.5]))

    batched, reference = make(), make()
    dataset = [{0: 0}, {0: 1}, {0: 0}]
    em_step(batched, dataset)
    reference_em_step(reference, dataset)
    assert parameter_bytes(batched) == parameter_bytes(reference)
    # Without smoothing the zero-mass row keeps zero likelihood: -inf.
    _, history = fit_em(make(), dataset, iterations=2, smoothing=0.0, tolerance=0.0)
    assert history == reference_history(make(), dataset, 2, smoothing=0.0)
    assert history == [float("-inf")] * 2


def test_empty_dataset_counts_are_smoothing_only():
    circuit = random_circuit(4, depth=2, seed=5)
    em_step(circuit, [], smoothing=0.1)
    for node in circuit.topological_order():
        if isinstance(node, SumNode):
            assert np.array_equal(node.weights, np.full(len(node.children), 1 / len(node.children)))
        elif isinstance(node, LeafNode):
            assert np.array_equal(node.probabilities, np.array([0.5, 0.5]))
    _, history = fit_em(circuit, [], iterations=2)
    assert history == [0.0, 0.0]


def test_leaf_rows_match_leaf_prob():
    leaf = LeafNode(0, [0.2, 0.3, 0.4])  # unnormalized: None gives the total
    circuit = Circuit(ProductNode([leaf, LeafNode(1, [0.6, 0.4])]), num_states={0: 3})
    values = [None, -1, 3, 7, 0, 1, 2]
    dataset = [{0: value, 1: 1} for value in values]
    rows = _evaluate_batch(_plan_for(circuit), dataset)
    dense = _plan_for(circuit).order.index(leaf)
    expected = [leaf.prob(value) for value in values]
    assert rows[dense].tolist() == expected
    assert expected[:4] == [float(leaf.probabilities.sum()), 0.0, 0.0, 0.0]
    for column, evidence in enumerate(dataset):
        scalar = _evaluate_all(circuit, evidence)
        assert [scalar[node.node_id] for node in _plan_for(circuit).order] == rows[:, column].tolist()


@pytest.mark.parametrize("value", [-1, 2, 5])
def test_out_of_range_evidence_raises_naming_the_variable(value):
    circuit = random_circuit(4, depth=2, seed=6)
    before = parameter_bytes(circuit)
    with pytest.raises(ValueError, match="variable 2"):
        em_step(circuit, [{0: 1, 1: 0, 2: 1, 3: 0}, {2: value}])
    assert parameter_bytes(circuit) == before

