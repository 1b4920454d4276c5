import json

import pytest

from nmrassign.costmodel import atom_cost, typing_threshold
from nmrassign.domain import NmrAssignError, Observation, ProteinSequence, Tolerances
from nmrassign.experiments import spin_observation_counts
from nmrassign.graph import (
    DUMMY,
    REGULAR,
    EdgeLayer,
    build_graph,
    export_graph,
    graph_stats,
    node_typing_cost,
    prune_by_typing,
    residue_threshold,
)
from nmrassign.grouping import PeakGrouping


def _grouping(gid, shifts, sigma=0.1):
    consensus = {
        role: (Observation(role, value, gid, sigma),) for role, value in shifts.items()
    }
    return PeakGrouping(gid, frozenset({gid}), consensus, (shifts.get("HN", 8.0), shifts.get("N", 120.0)))


def test_dummies_only_graph(toy_priors, default_tol):
    seq = ProteinSequence("AGA")
    expected = spin_observation_counts(toy_priors)
    g = build_graph([], seq, toy_priors, default_tol, expected)
    stats = graph_stats(g)
    assert stats["layer_sizes"] == [1, 1, 1, 1, 1]
    assert stats["total_edges"] == 4
    assert stats["density"] == 1.0
    # the unique path is the dummy chain, costing the summed thresholds
    assert g.path_cost([0, 0, 0, 0, 0]) == pytest.approx(sum(g.thresholds[1:]))
    assert g.thresholds[1] == pytest.approx(
        residue_threshold("A", toy_priors, default_tol, expected)
    )
    # glycine has no CB, so its threshold excludes that atom
    assert g.thresholds[2] < g.thresholds[1]


def test_typing_filter_absent_atom(toy_priors, default_tol):
    """A grouping observing CB cannot sit on a glycine layer."""
    good = _grouping("u1", {"N": 110.0, "HN": 8.3, "CA": 45.5})
    bad = _grouping("u2", {"N": 110.0, "HN": 8.3, "CA": 45.5, "CB": 19.0})
    assert node_typing_cost(good, "G", toy_priors, default_tol) is not None
    assert node_typing_cost(bad, "G", toy_priors, default_tol) is None
    kept = prune_by_typing([good, bad], "G", toy_priors, default_tol)
    assert [k.grouping_id for k in kept] == ["u1"]


def test_typing_filter_threshold(toy_priors, default_tol):
    near = _grouping("u1", {"CA": 53.0})
    far = _grouping("u2", {"CA": 45.0})  # 4 prior stds from alanine CA
    kept = prune_by_typing([near, far], "A", toy_priors, default_tol)
    assert [k.grouping_id for k in kept] == ["u1"]


def test_proline_layer_dummy_only(toy_priors, default_tol):
    seq = ProteinSequence("APA")
    expected = spin_observation_counts(toy_priors)
    g1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    g = build_graph([g1], seq, toy_priors, default_tol, expected)
    kinds = [node.kind for node in g.layers[2]]
    assert kinds == [DUMMY]
    # proline threshold covers only the carbons
    assert g.thresholds[2] < g.thresholds[1]


def test_layer_instantiation_counts(toy_priors, default_tol):
    seq = ProteinSequence("AG")
    expected = spin_observation_counts(toy_priors)
    ala_only = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    g = build_graph([ala_only], seq, toy_priors, default_tol, expected)
    assert len(g.layers[1]) == 2  # dummy + the grouping
    assert len(g.layers[2]) == 1  # glycine rejects the CB observation


def test_edge_costs_and_attribution(toy_priors, default_tol):
    """Path cost decomposes into independently recomputed residue costs."""
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    u2 = _grouping(
        "u2",
        {"N": 122.0, "HN": 8.1, "CA": 53.5, "CB": 19.5, "CA_prev": 53.05, "CB_prev": 19.05},
    )
    g = build_graph([u1, u2], seq, toy_priors, default_tol, expected)
    by_id = {node.grouping_id: node.index for node in g.layers[1]}
    i1 = by_id["u1"]
    by_id2 = {node.grouping_id: node.index for node in g.layers[2]}
    i2 = by_id2["u2"]
    # start edges carry no cost
    assert g.edge_cost(0, 0, i1) == 0.0

    # edge u1 -> u2 charges residue 1: u1's intra roles plus u2's prev roles
    sigma = 0.1
    want = 0.0
    for role, values in (
        ("N", [123.0]),
        ("HN", [8.2]),
        ("CA", [53.0, 53.05]),
        ("CB", [19.0, 19.05]),
    ):
        prior = toy_priors.prior("A", role)
        want += atom_cost(prior, [(v, sigma) for v in values]).cost
    assert g.edge_cost(1, i1, i2) == pytest.approx(want, rel=1e-12)

    # edge u2 -> end charges residue 2 from u2's intra roles only
    want2 = 0.0
    for role, value in (("N", 122.0), ("HN", 8.1), ("CA", 53.5), ("CB", 19.5)):
        want2 += atom_cost(toy_priors.prior("A", role), [(value, sigma)]).cost
    assert g.edge_cost(2, i2, 0) == pytest.approx(want2, rel=1e-12)

    # full path cost equals the sum of its parts
    assert g.path_cost([0, i1, i2, 0]) == pytest.approx(want + want2, rel=1e-12)


def test_dummy_outgoing_edges_cost_threshold(toy_priors, default_tol):
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0})
    g = build_graph([u1], seq, toy_priors, default_tol, expected)
    for j in range(len(g.layers[2])):
        assert g.edge_cost(1, 0, j) == pytest.approx(g.thresholds[1])
    assert g.edge_cost(2, 0, 0) == pytest.approx(g.thresholds[2])


def test_sequential_walking_prunes_mismatched_carbons(toy_priors, default_tol):
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    # CA_prev far from u1's CA: no sequential edge
    u2 = _grouping("u2", {"N": 122.0, "HN": 8.1, "CA": 53.5, "CA_prev": 56.0})
    g = build_graph([u1, u2], seq, toy_priors, default_tol, expected)
    i1 = next(n.index for n in g.layers[1] if n.grouping_id == "u1")
    i2 = next(n.index for n in g.layers[2] if n.grouping_id == "u2")
    assert (i1, i2) not in g.edges[1]
    # dummy routes always exist
    assert (0, i2) in g.edges[1]
    assert (i1, 0) in g.edges[1]


def test_dummy_connectivity_invariant(toy_priors, default_tol):
    seq = ProteinSequence("AAA")
    expected = spin_observation_counts(toy_priors)
    groupings = [
        _grouping(f"u{i}", {"N": 123.0 + i, "HN": 8.2, "CA": 53.0 + 0.3 * i})
        for i in range(3)
    ]
    g = build_graph(groupings, seq, toy_priors, default_tol, expected)
    for k in range(1, g.n + 1):
        for node in g.layers[k - 1]:
            assert (node.index, 0) in g.edges[k - 1]
        for node in g.layers[k + 1]:
            assert (0, node.index) in g.edges[k]


def test_rebuild_is_deterministic(toy_priors, default_tol):
    seq = ProteinSequence("AGA")
    expected = spin_observation_counts(toy_priors)
    groupings = [
        _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0}),
        _grouping("u2", {"N": 110.0, "HN": 8.3, "CA": 45.5}),
    ]
    g1 = build_graph(groupings, seq, toy_priors, default_tol, expected)
    g2 = build_graph(groupings, seq, toy_priors, default_tol, expected)
    assert g1.edges == g2.edges
    assert g1.thresholds == g2.thresholds


def test_path_cost_errors(toy_priors, default_tol):
    seq = ProteinSequence("A")
    expected = spin_observation_counts(toy_priors)
    g = build_graph([], seq, toy_priors, default_tol, expected)
    with pytest.raises(NmrAssignError):
        g.path_cost([0, 0])
    with pytest.raises(NmrAssignError):
        g.path_cost([0, 5, 0])


def test_export_graph(tmp_path, toy_priors, default_tol):
    seq = ProteinSequence("AG")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0})
    g = build_graph([u1], seq, toy_priors, default_tol, expected)
    path = tmp_path / "graph.json"
    export_graph(g, path)
    doc = json.loads(path.read_text())
    assert doc["sequence"] == "AG"
    assert len(doc["nodes"]) == 4
    assert all(len(e) == 4 for e in doc["edges"])


def test_edge_layer_arrays_and_mapping():
    # three source nodes; node 1 has no out-edges; items given unsorted
    items = {(2, 0): 5.0, (0, 3): 1.5, (2, 1): -2.0, (0, 0): 0.25}
    layer = EdgeLayer(items, 3)
    assert list(layer) == [(0, 0), (0, 3), (2, 0), (2, 1)]
    assert layer.src.tolist() == [0, 0, 2, 2]
    assert layer.dst.tolist() == [0, 3, 0, 1]
    assert layer.cost.tolist() == [0.25, 1.5, 5.0, -2.0]
    assert layer.indptr.tolist() == [0, 2, 2, 4]
    assert layer.out(0) == slice(0, 2)
    assert layer.out(1) == slice(2, 2)
    assert layer.dst[layer.out(2)].tolist() == [0, 1]
    assert len(layer) == 4
    assert layer.index(0, 3) == 1 and layer.index(2, 1) == 3
    assert layer.index(0, 1) is None  # absent edge
    assert layer.index(1, 0) is None  # source without out-edges
    assert layer.index(3, 0) is None and layer.index(-1, 0) is None  # out of range
    assert layer[(2, 1)] == -2.0 and isinstance(layer[(2, 1)], float)
    assert (2, 0) in layer and (3, 0) not in layer
    with pytest.raises(KeyError):
        layer[(0, 1)]
    assert layer == items
    assert layer == EdgeLayer(dict(sorted(items.items())), 3)
    assert layer != EdgeLayer({**items, (2, 1): -2.5}, 3)
    assert EdgeLayer({}, 2).indptr.tolist() == [0, 0, 0]
