"""Fast tests of the benchmark itself: generator, checker and BENCHMARK.json."""

import copy
import json
from pathlib import Path

import pytest

import checker
from planted import planted_partition
from run import END_TO_END, PER_LAYER, REFERENCE_DIR
from workloads import DEFAULT_SEED, PLANTED, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _connected(graph) -> bool:
    adj = graph.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == graph.node_count


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_same_seed_gives_identical_bytes(name):
    a = planted_partition(*PLANTED[name], seed=7).edge_list_text()
    b = planted_partition(*PLANTED[name], seed=7).edge_list_text()
    assert a.encode() == b.encode()
    assert planted_partition(*PLANTED[name], seed=8).edge_list_text() != a


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_generated_graphs_are_connected_with_fixed_size(name):
    stats = [planted_partition(*PLANTED[name], seed=s).stats() for s in range(6)]
    for seed in range(6):
        assert _connected(planted_partition(*PLANTED[name], seed=seed))
    assert all(s == stats[0] for s in stats)


def test_tiny_sparse_graph_is_still_connected():
    graph = planted_partition((3, 4), 0.0, 0.0, seed=1)
    assert _connected(graph)
    assert graph.stats() == {"nodes": 7, "arcs": 12, "betti": 0, "bipartite": True}


def _reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


@pytest.mark.parametrize("workload", ["fourier-exact", "grover-exact", "finite-t100"])
def test_reference_matches_generator_at_default_seed(workload):
    ref = _reference(workload)
    assert ref["seed"] == DEFAULT_SEED
    label = WORKLOADS[workload].graphs[0]
    stats = planted_partition(*PLANTED[label], seed=DEFAULT_SEED).stats()
    doc = ref["documents"]["detect"]
    assert checker.compare_to_reference(doc, doc) == []
    assert checker.detect_invariants(doc, stats) == []


def test_checker_rejects_one_flipped_assignment():
    doc = _reference("grover-exact")["documents"]["detect"]
    payload = doc["payload"]
    assert len(payload["hubs"]) > 1
    hubs = {str(h) for h in payload["hubs"]}
    node = next(n for n in payload["assignment"] if n not in hubs)
    flipped = copy.deepcopy(doc)
    own = flipped["payload"]["assignment"][node]
    flipped["payload"]["assignment"][node] = (own + 1) % len(payload["hubs"])
    assert checker.compare_to_reference(doc, flipped)
    assert checker.detect_invariants(flipped)


def test_checker_float_tolerance():
    doc = _reference("paper-builtins")["documents"]["karate/average"]
    near, far = copy.deepcopy(doc), copy.deepcopy(doc)
    near["payload"]["probability"][3] *= 1 + 1e-12
    far["payload"]["probability"][3] *= 1 + 1e-4
    assert checker.compare_to_reference(doc, near) == []
    assert checker.compare_to_reference(doc, far)


def test_spectrum_comparison_ignores_eigenvalue_order():
    doc = _reference("paper-builtins")["documents"]["karate/spectrum"]
    shuffled = copy.deepcopy(doc)
    shuffled["payload"]["eigenvalues"].reverse()
    assert checker.compare_to_reference(doc, shuffled) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, (u, b, bound) in END_TO_END.items()
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()
    ]
