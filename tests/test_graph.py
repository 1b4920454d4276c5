import dataclasses
import json

import numpy as np
import pytest

from nmrassign.costmodel import atom_cost, typing_threshold
from nmrassign.domain import (
    Observation,
    ProteinSequence,
    Tolerances,
    base_role,
    is_prev,
)
from nmrassign.experiments import spin_observation_counts
from nmrassign.graph import (
    DUMMY,
    REGULAR,
    EdgeLayer,
    build_graph,
    export_graph,
    graph_stats,
    prune_by_typing,
    residue_threshold,
)
from nmrassign.grouping import PeakGrouping
from nmrassign.shortest_path import path_solution

from oracles import quadrature_atom_cost


def _grouping(gid, shifts, sigma=0.1):
    """A grouping with one observation per role, or several where a role
    maps to a list of values."""
    consensus = {
        role: tuple(Observation(role, v, gid, sigma) for v in np.atleast_1d(values).tolist())
        for role, values in shifts.items()
    }
    return PeakGrouping(gid, frozenset({gid}), consensus)


def test_dummies_only_graph(toy_priors, default_tol):
    seq = ProteinSequence("AGA")
    expected = spin_observation_counts(toy_priors)
    g = build_graph([], seq, toy_priors, default_tol, expected)
    stats = graph_stats(g)
    assert stats["layer_sizes"] == [1, 1, 1, 1, 1]
    assert stats["total_edges"] == 4
    assert stats["density"] == 1.0
    # the unique path is the dummy chain, costing the summed thresholds
    assert path_solution(g, [0, 0, 0, 0, 0]).total_cost == pytest.approx(sum(g.thresholds[1:]))
    assert g.thresholds[1] == pytest.approx(
        residue_threshold("A", toy_priors, default_tol, expected)
    )
    # glycine has no CB, so its threshold excludes that atom
    assert g.thresholds[2] < g.thresholds[1]


def test_typing_filter_absent_atom(toy_priors, default_tol):
    """A grouping observing CB cannot sit on a glycine layer."""
    good = _grouping("u1", {"N": 110.0, "HN": 8.3, "CA": 45.5})
    bad = _grouping("u2", {"N": 110.0, "HN": 8.3, "CA": 45.5, "CB": 19.0})
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
    ala_only = dataclasses.replace(
        _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0}),
        member_peaks=frozenset({"p1", "p2", "p3"}),
    )
    g = build_graph([ala_only], seq, toy_priors, default_tol, expected)
    assert len(g.layers[1]) == 2  # dummy + the grouping
    assert len(g.layers[2]) == 1  # glycine rejects the CB observation
    # a regular node consumes its grouping's peaks; start, dummies and end none
    assert g.usage(1, 1) == frozenset({"p1", "p2", "p3"})
    for layer, index in ((0, 0), (1, 0), (2, 0), (3, 0)):
        assert g.usage(layer, index) == frozenset()


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
    assert g.edges[0][(0, i1)] == 0.0

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
    assert g.edges[1][(i1, i2)] == pytest.approx(want, rel=1e-12)

    # edge u2 -> end charges residue 2 from u2's intra roles only
    want2 = 0.0
    for role, value in (("N", 122.0), ("HN", 8.1), ("CA", 53.5), ("CB", 19.5)):
        want2 += atom_cost(toy_priors.prior("A", role), [(value, sigma)]).cost
    assert g.edges[2][(i2, 0)] == pytest.approx(want2, rel=1e-12)

    # full path cost equals the sum of its parts
    assert path_solution(g, [0, i1, i2, 0]).total_cost == pytest.approx(want + want2, rel=1e-12)


def test_dummy_outgoing_edges_cost_threshold(toy_priors, default_tol):
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0})
    g = build_graph([u1], seq, toy_priors, default_tol, expected)
    for j in range(len(g.layers[2])):
        assert g.edges[1][(0, j)] == pytest.approx(g.thresholds[1])
    assert g.edges[2][(0, 0)] == pytest.approx(g.thresholds[2])


def _walks(src, dst, delta3):
    """Every intra carbon value of src within delta3 of every prev value of
    the same carbon in dst, checked pair by pair."""
    return all(
        abs(x.value - y.value) <= delta3
        for role in ("CA", "CB", "CO")
        for x in src.observations(role)
        for y in dst.observations(role + "_prev")
    )


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

    # several observations per carbon role on each side, in no order, as from
    # peak lists; binary-exact values: 53.25 - 53.0 is exactly delta3, and
    # nextafter puts a value one ulp beyond it
    tol = Tolerances(delta3=0.25, delta=10.0)  # wide typing: only the link cuts
    over_ca = float(np.nextafter(53.25, np.inf))
    under_cb = float(np.nextafter(19.0, -np.inf))  # 19.25 - under_cb is just over
    amide = {"N": 122.0, "HN": 8.1, "CA": 53.5, "CB": 19.5}
    s1 = _grouping("s1", {"N": 123.0, "HN": 8.2, "CA": [53.125, 53.0], "CB": [19.25, 19.0]})
    s2 = _grouping("s2", {"N": 123.0, "HN": 8.2, "CA": [53.125, 53.25]})
    targets = [
        _grouping("t1", {**amide, "CA_prev": [53.0, 53.25]}),  # exactly delta3 apart
        _grouping("t2", {**amide, "CA_prev": [over_ca, 53.125]}),  # s1: 53.0 just over
        _grouping("t3", {**amide, "CA_prev": [53.125], "CB_prev": [19.0, 19.125]}),
        _grouping("t4", {**amide, "CB_prev": [under_cb, 19.125]}),  # s1: 19.25 just over
        _grouping("t5", amide),  # no prev roles: links to every source
    ]
    g = build_graph([s1, s2, *targets], seq, toy_priors, tol, expected)
    src = {n.grouping_id: n for n in g.layers[1] if n.kind == REGULAR}
    dst = {n.grouping_id: n for n in g.layers[2] if n.kind == REGULAR}
    assert len(src) == len(dst) == 7  # every grouping is typed as alanine
    linked = {(i, j) for i, j in g.edges[1] if i and j}
    want = {
        (a.index, b.index)
        for a in src.values()
        for b in dst.values()
        if _walks(a.grouping, b.grouping, tol.delta3)
    }
    assert linked == want
    pair = {(a, b): (src[a].index, dst[b].index) in linked for a in src for b in dst}
    assert pair["s1", "t1"] and pair["s2", "t1"]  # exactly delta3 is kept
    assert not pair["s1", "t2"] and pair["s2", "t2"]  # one ulp over is cut
    assert pair["s1", "t3"] and pair["s2", "t3"]
    assert not pair["s1", "t4"] and pair["s2", "t4"]  # s2 observes no CB
    assert pair["s1", "t5"] and pair["s2", "t5"]


def _quadrature_price(src, dst, residue_type, priors):
    """Residue cost of src's intra and dst's prev observations (dst None for
    the dummy or the end), by quadrature per pooled role; None when the
    residue lacks an observed atom."""
    pooled = {}
    for grouping, prev in ((src, False), (dst, True)):
        for role, obs in grouping.consensus.items() if grouping else ():
            if is_prev(role) == prev:
                pooled.setdefault(base_role(role), []).extend((o.value, o.sigma) for o in obs)
    total = 0.0
    for role, obs in pooled.items():
        prior = priors.prior(residue_type, role)
        if prior is None:
            return None
        total += quadrature_atom_cost(prior.mean, prior.std, obs)
    return total


def test_edge_costs_match_quadrature(toy_priors):
    """Every edge out of a regular node is priced like the quadrature of its
    pooled observations, with several of them per role on both sides."""

    def grouping(gid, **roles):
        consensus = {
            role: tuple(Observation(role, v, gid, s) for v, s in obs)
            for role, obs in roles.items()
        }
        return PeakGrouping(gid, frozenset({gid}), consensus)

    amide = {"N": [(122.5, 0.1), (122.8, 0.05)], "HN": [(8.15, 0.0075), (8.17, 0.01)]}
    alanine = {**amide, "CA": [(53.2, 0.1), (53.4, 0.2)], "CB": [(19.1, 0.1), (19.3, 0.2)]}
    prev = {
        "CA_prev": [(45.4, 0.1), (45.6, 0.2)],
        "CO_prev": [(174.0, 0.1), (174.2, 0.1), (174.1, 0.2)],
    }
    groupings = [
        grouping("g1", N=[(109.5, 0.1), (109.8, 0.05)], HN=[(8.31, 0.0075)],
                 CA=[(45.2, 0.1), (45.5, 0.2)], CO=[(174.1, 0.1), (173.9, 0.1)]),
        grouping("g2", N=[(110.2, 0.1)], HN=[(8.25, 0.0075)],
                 CA=[(45.7, 0.1), (45.6, 0.1), (45.8, 0.2)]),
        grouping("t1", **alanine, **prev),
        # glycine has no CB, so no glycine source may precede this target
        grouping("t2", **alanine, **prev, CB_prev=[(19.0, 0.1), (19.2, 0.1)]),
        grouping("t3", **alanine),
    ]
    seq = ProteinSequence("GA")
    expected = {role: (4, 0.1) for role in ("N", "HN", "CA", "CB", "CO")}
    g = build_graph(groupings, seq, toy_priors, Tolerances(delta3=1.0, delta=10.0), expected)
    assert [n.grouping_id for n in g.layers[1][1:]] == ["g1", "g2"]
    assert len(g.layers[2]) > 3  # t1, t2, t3, and the glycine-like groupings
    priced = 0
    for k in (1, 2):
        rt = seq.residue_type(k)
        for i, j in g.edges[k]:
            if i == 0:
                continue
            src, dst = g.layers[k][i].grouping, g.layers[k + 1][j].grouping
            want = _quadrature_price(src, dst, rt, toy_priors)
            assert g.edges[k][(i, j)] == pytest.approx(want, abs=1e-8)
            priced += 1
        # wide windows and thresholds: only an absent atom removes a regular pair
        regular = {
            (a.index, b.index)
            for a in g.layers[k][1:]
            for b in g.layers[k + 1][1:]
            if _quadrature_price(a.grouping, b.grouping, rt, toy_priors) is not None
        }
        assert {(i, j) for i, j in g.edges[k] if i and j} == regular
    t2 = next(n.index for n in g.layers[2] if n.grouping_id == "t2")
    assert not any(j == t2 for i, j in g.edges[1] if i)
    assert (1, t2 - 1) in g.edges[1] and g.layers[2][t2 - 1].grouping_id == "t1"
    assert priced == len(g.edges[1]) + len(g.edges[2]) - len(g.layers[2]) - 1


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
    layer = EdgeLayer([2, 0, 2, 0], [0, 3, 1, 0], [5.0, 1.5, -2.0, 0.25], 3)
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
    assert layer == EdgeLayer([0, 0, 2, 2], [0, 3, 0, 1], [0.25, 1.5, 5.0, -2.0], 3)
    assert layer != EdgeLayer([2, 0, 2, 0], [0, 3, 1, 0], [5.0, 1.5, -2.5, 0.25], 3)
    assert EdgeLayer([], [], [], 2).indptr.tolist() == [0, 0, 0]
