"""Seeded kernel catalogues for the three benchmark workloads.

Every workload draws its inputs from a fixed catalogue of *slots*.  A
slot fixes a kernel family and its size; ``VARIANTS`` content seeds per
slot give the actual kernels.  The variant of each slot is fixed, so
``cold_compile`` and ``warm_serve`` see the same kernels under every
seed: the seed orders ``cold_compile``'s requests and draws
``warm_serve``'s, and picks ``em_learn``'s instance.  The same seed
always yields the same inputs, and every kernel a run can see has a
pinned expected report digest in ``expected.json``.

Kernels are built fresh on every call: the library memoises traversals
on ``Circuit``/``Dag`` objects, so reusing one object across passes
would hand later passes warm structure caches.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.hmm.model import HMM
from repro.logic.cnf import CNF, Clause
from repro.logic.generators import pigeonhole, random_ksat
from repro.pc.circuit import Circuit, LeafNode, SumNode
from repro.pc.learn import random_binary_tree_circuit, random_circuit, sample_dataset
from repro.workloads.datasets import generate_safety_dataset

#: Content seeds per catalogue slot.
VARIANTS = 8

#: Observation alphabet of every catalogue HMM.
HMM_SYMBOLS = 6


class Slot(NamedTuple):
    family: str  # ksat | php | circuit | tree | hmm
    size: int  # variables, holes or states
    param: float  # ksat clause ratio; 1.0 = calibrated for circuit/hmm


class Kernel(NamedTuple):
    key: str  # "<workload>/<slot>/<variant>", the expected.json key
    name: str  # human-readable family/size label
    kernel: object
    options: dict  # ReasonSession.run keyword options


def _content_seed(workload: str, slot: int, variant: int) -> int:
    base = {"cold_compile": 1, "warm_serve": 2}[workload]
    return base * 1_000_003 + slot * 1009 + variant


def _permuted_pigeonhole(holes: int, seed: int) -> CNF:
    """PHP(holes+1, holes) with seeded variable names, polarity-preserving,
    and clause order: an isomorphic, distinct-content instance."""
    rng = random.Random(seed)
    base = pigeonhole(holes)
    names = list(range(1, base.num_vars + 1))
    rng.shuffle(names)
    clauses = [
        Clause(names[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in clause.literals)
        for clause in base.clauses
    ]
    rng.shuffle(clauses)
    return CNF(clauses, base.num_vars)


def _hmm_sequence(hmm: HMM, seed: int, length: int = 12) -> List[int]:
    _, observations = hmm.sample(length, random.Random(seed))
    return [o % HMM_SYMBOLS for o in observations]


def build_kernel(workload: str, slots: Sequence[Slot], index: int, variant: int) -> Kernel:
    """Build one catalogue kernel fresh, with its run options."""
    slot = slots[index]
    seed = _content_seed(workload, index, variant)
    key = f"{workload}/{index}/{variant}"
    calibrated = slot.param == 1.0
    if slot.family == "ksat":
        kernel = random_ksat(slot.size, int(slot.param * slot.size), seed=seed)
        return Kernel(key, f"ksat-{slot.size}@{slot.param}", kernel, {})
    if slot.family == "php":
        return Kernel(key, f"php-{slot.size}", _permuted_pigeonhole(slot.size, seed), {})
    if slot.family in ("circuit", "tree"):
        if slot.family == "circuit":
            circuit = random_circuit(slot.size, depth=3, sum_children=3, seed=seed)
        else:
            circuit = random_binary_tree_circuit(slot.size, seed=seed)
        options = {"calibration": sample_dataset(circuit, 64, seed=seed + 1)} if calibrated else {}
        return Kernel(key, f"{slot.family}-{slot.size}", circuit, options)
    if slot.family == "hmm":
        hmm = HMM.random(slot.size, HMM_SYMBOLS, seed=seed)
        sequence = _hmm_sequence(hmm, seed + 1)
        options = {"calibration": [sequence]} if calibrated else {"hmm_observations": sequence}
        label = "cal" if calibrated else "raw"
        return Kernel(key, f"hmm-{slot.size}-{label}", hmm, options)
    raise ValueError(f"unknown kernel family {slot.family!r}")


# --------------------------------------------------------------- cold_compile

#: ~100 slots spanning small and large kernels of every compiled family.
#: Clause ratios stay below the 3-SAT phase transition (~4.26), where
#: solve cost is heavy-tailed across seeds.
COLD_SLOTS: Tuple[Slot, ...] = tuple(
    [Slot("ksat", n, r) for n in range(40, 121, 10) for r in (3.2, 3.4, 3.6, 3.8)]
    + [Slot("php", h, 0.0) for h in (3, 4, 4, 5)]
    + [Slot("circuit", v, 1.0) for v in range(8, 15) for _ in range(4)]
    + [Slot("hmm", s, c) for s in range(4, 13) for c in (1.0, 0.0) for _ in range(2)]
)


def cold_variants() -> List[int]:
    """The content variant of each slot, the same under every seed (the
    seed orders the requests).  Drawn per seed, content moved
    ``lat_p50_ms`` by up to a third between seeds timed interleaved on
    one host (16.9-22.6 ms over five seeds)."""
    rng = random.Random("cold_compile/catalogue")
    return [rng.randrange(VARIANTS) for _ in COLD_SLOTS]


def cold_kernels(variants: Sequence[int]) -> List[Kernel]:
    return [
        build_kernel("cold_compile", COLD_SLOTS, index, variant)
        for index, variant in enumerate(variants)
    ]


# ----------------------------------------------------------------- warm_serve

#: The warm pool in Zipf rank order (rank 1 first); warm costs span
#: about 1-30 ms.  The most requested and the costliest slots are
#: fixed-structure kernels, and the CNFs sit below the phase transition,
#: so the request mix costs about the same under every seed.
WARM_SLOTS: Tuple[Slot, ...] = (
    Slot("tree", 8, 1.0),
    Slot("hmm", 6, 0.0),
    Slot("php", 4, 0.0),
    Slot("hmm", 4, 1.0),
    Slot("tree", 16, 1.0),
    Slot("hmm", 8, 0.0),
    Slot("circuit", 10, 1.0),
    Slot("ksat", 60, 3.6),
    Slot("php", 5, 0.0),
    Slot("hmm", 10, 1.0),
    Slot("ksat", 80, 3.6),
    Slot("circuit", 12, 1.0),
    Slot("hmm", 12, 0.0),
    Slot("ksat", 100, 3.6),
    Slot("tree", 32, 1.0),
    Slot("hmm", 12, 1.0),
    Slot("ksat", 120, 3.4),
    Slot("circuit", 14, 1.0),
    Slot("ksat", 40, 4.0),
    Slot("hmm", 9, 0.0),
    Slot("ksat", 110, 3.6),
    Slot("php", 6, 0.0),
    Slot("circuit", 13, 1.0),
    Slot("hmm", 16, 0.0),
)

#: Zipf exponent of the request draw over the pool ranks: the classical
#: Zipf law, an assumption (README.md, "Traffic parameters").
ZIPF_S = 1.0


def warm_variants() -> List[int]:
    """The pool's content variants, the same under every seed: the pool
    is fixed, and the seed draws the requests.  Drawn per seed, one
    seed's pool put ``lat_p50_ms`` a quarter above the others' on every
    repeat (3.47 against about 2.7 ms)."""
    rng = random.Random("warm_serve/pool")
    return [rng.randrange(VARIANTS) for _ in WARM_SLOTS]


def warm_kernels(variants: Sequence[int]) -> List[Kernel]:
    return [
        build_kernel("warm_serve", WARM_SLOTS, index, variant)
        for index, variant in enumerate(variants)
    ]


def zipf_weights(count: int, exponent: float = ZIPF_S) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def zipf_deck(size: int, weights: Sequence[float], rng: random.Random) -> List[int]:
    """``size`` pool indices in exact Zipf proportions (largest
    remainder), in seeded random order: every seed sends the same mix."""
    total = sum(weights)
    shares = [size * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[: size - sum(counts)]:
        counts[index] += 1
    deck = [index for index, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(deck)
    return deck


# ------------------------------------------------------------------- em_learn

#: R2-Guard XSTest shape: 7 unsafety categories + the label variable.
EM_CATEGORIES = 7
EM_TRAIN_ROWS = 240
EM_TEST_ROWS = 80
EM_NOISE = 0.06  # XSTest's label noise in the R2-Guard workload
#: EM iterations per training; each iteration is one closed-loop step.
EM_ITERATIONS = 4
#: Seed of the fixed circuit structure (R2-Guard's seed-0 circuit); the
#: instance seed re-draws its parameters, so every instance costs the same.
EM_STRUCTURE_SEED = 0
EM_INSTANCES = 16
EM_CALIBRATION_ROWS = 16


class EmInstance(NamedTuple):
    key: str
    circuit: Circuit
    train: List[Dict[int, int]]  # evidence rows, label included
    test_given: List[Dict[int, int]]  # test categories only
    test_labels: List[int]
    calibration: List[Dict[int, int]]
    hmm: HMM
    hmm_observations: List[int]

    @property
    def label_var(self) -> int:
        return EM_CATEGORIES


def em_instance_index(seed: int) -> int:
    return random.Random(f"em_learn/{seed}").randrange(EM_INSTANCES)


def em_instance(index: int) -> EmInstance:
    """One seeded R2-Guard XSTest instance, built fresh."""
    rng = random.Random(3_000_017 + index)
    circuit = random_circuit(EM_CATEGORIES + 1, depth=3, sum_children=3, seed=EM_STRUCTURE_SEED)
    for node in circuit.topological_order():
        if isinstance(node, SumNode):
            weights = np.array([rng.uniform(0.2, 1.0) for _ in node.children])
            node.weights = weights / weights.sum()
        elif isinstance(node, LeafNode):
            p_true = rng.uniform(0.1, 0.9)
            node.probabilities = np.array([1.0 - p_true, p_true])
    train = generate_safety_dataset(EM_CATEGORIES, EM_TRAIN_ROWS, EM_NOISE, seed=rng.randrange(1 << 30))
    test = generate_safety_dataset(EM_CATEGORIES, EM_TEST_ROWS, EM_NOISE, seed=rng.randrange(1 << 30))
    rows = [
        {**{i: bit for i, bit in enumerate(x)}, EM_CATEGORIES: y}
        for x, y in zip(train.features, train.labels)
    ]
    # Dialogue-turn smoothing HMM of the R2-Guard workload (safe/unsafe).
    hmm = HMM(
        initial=[0.8, 0.2],
        transition=[[0.9, 0.1], [0.3, 0.7]],
        emission=[[0.85, 0.15], [0.25, 0.75]],
    )
    return EmInstance(
        key=f"em_learn/{index}",
        circuit=circuit,
        train=rows,
        test_given=[{i: bit for i, bit in enumerate(x)} for x in test.features],
        test_labels=list(test.labels),
        calibration=rows[:EM_CALIBRATION_ROWS],
        hmm=hmm,
        hmm_observations=[rng.randrange(2) for _ in range(8)],
    )
