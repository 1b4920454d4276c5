import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from nmrassign.costmodel import Moments, typing_thresholds
from nmrassign.domain import (
    BASE_ROLES,
    PriorTable,
    ProteinSequence,
    Tolerances,
    base_role,
    is_prev,
    read_peaks,
    read_spins,
)
from nmrassign.experiments import (
    FULL_SET,
    canonical_name,
    expected_observation_counts,
    expected_pattern,
    spin_observation_counts,
)
from nmrassign.graph import (
    DUMMY,
    REGULAR,
    AssignmentNode,
    EdgeLayer,
    _atom_costs,
    _prior_table,
    _residue_priors,
    build_graph,
    export_graph,
    graph_stats,
)
from nmrassign.grouping import (
    GroupingTable,
    build_compatibility_graph,
    enumerate_groupings,
    spins_to_groupings,
)
from nmrassign.pipeline import bundled_priors, bundled_reference, run_simulate
from nmrassign.shortest_path import path_solution

from oracles import (
    closed_form_cost,
    edge_cost,
    edge_layer,
    edge_map,
    moments,
    node_peaks,
    quadrature_atom_cost,
    typing_threshold,
)


def _grouping(gid, shifts, sigma=0.1):
    """A grouping row (``GroupingTable.from_rows``) consuming its own id,
    with one observation per role, or several where a role maps to a list
    of values."""
    consensus = {
        role: [(v, sigma, gid) for v in np.atleast_1d(values).tolist()]
        for role, values in shifts.items()
    }
    return gid, [gid], consensus


def _build(rows, *args):
    """``build_graph`` of the table of these grouping rows."""
    return build_graph(GroupingTable.from_rows(rows), *args)


def _consensus(g, k, i):
    """The consensus of the grouping node i of layer k carries, read from
    the graph's table; {} for start, dummy and end nodes."""
    row = int(g.grouping_rows[k][i])
    return g.groupings.consensus(row) if row >= 0 else {}


def _ids(g, k):
    """The grouping id each node of layer k carries, read from its grouping
    row; None for start, dummy and end nodes (row -1)."""
    return [g.groupings.ids[row] if row >= 0 else None for row in g.grouping_rows[k].tolist()]


def _values(consensus, role):
    """The values a consensus holds for the role, none when unobserved."""
    return consensus[role][0] if role in consensus else []


def test_dummies_only_graph(toy_priors, default_tol):
    seq = ProteinSequence("AGA")
    expected = spin_observation_counts(toy_priors)
    g = _build([], seq, toy_priors, default_tol, expected)
    stats = graph_stats(g)
    assert stats["layer_sizes"] == [1, 1, 1, 1, 1]
    assert stats["total_edges"] == 4
    assert stats["density"] == 1.0
    # the unique path is the dummy chain, costing the summed thresholds
    assert path_solution(g, [0, 0, 0, 0, 0]).total_cost == pytest.approx(sum(g.thresholds[1:]))
    one = build_graph(GroupingTable.from_rows([]), ProteinSequence("A"), toy_priors, default_tol, expected)
    assert g.thresholds[1] == pytest.approx(one.thresholds[1])
    # glycine has no CB, so its threshold excludes that atom
    assert g.thresholds[2] < g.thresholds[1]


def _typed_ids(groupings, residue_type, priors, tol):
    """Grouping ids on the regular nodes of a one-residue graph, checked
    against its layer-1 grouping rows: the dummy's -1, then the kept rows."""
    g = _build(groupings, ProteinSequence(residue_type), priors, tol, spin_observation_counts(priors))
    rows = g.grouping_rows[1]
    assert rows[0] == -1 and (rows[1:] >= 0).all()
    return [g.groupings.ids[r] for r in rows[1:]]


def test_nodes_hash_by_position_kind_and_grouping_id():
    """A node hashes and compares by its position, kind and grouping id."""
    nodes = {AssignmentNode(1, 1, REGULAR, gid) for gid in ("g1", "g1", "g2")}
    assert len(nodes) == 2 and AssignmentNode(1, 1, REGULAR, "g1") in nodes
    assert hash(AssignmentNode(1, 0, DUMMY)) == hash(AssignmentNode(1, 0, DUMMY))
    assert AssignmentNode(1, 0, DUMMY) != AssignmentNode(1, 1, DUMMY)


def test_batched_typing_thresholds_equal_the_scalar_ones(toy_priors):
    """Every batched threshold equals the scalar ``typing_threshold`` bit for
    bit, for 1-13 observations with mixed sigmas; an atom the residue lacks
    gets 0."""
    rng = np.random.default_rng(4)
    # plus, where this platform has them, sigmas whose variance numpy's log
    # and math.log round apart: costmodel takes math.log
    odd = [s for s in np.linspace(0.01, 0.4, 4001).tolist() if math.log(s * s) != np.log(s * s)]
    sigmas = [0.0075, 0.01, 0.05, 0.1, 0.16, 0.2, 0.37, *odd[:3]]
    keys = [
        (rt, role, tuple(float(x) for x in rng.choice(sigmas, size=count)))
        for rt in ("A", "G", "P")
        for role in BASE_ROLES
        for count in range(1, 14)
    ]
    delta = Tolerances().delta
    # one cell per key, its prior's mean NaN where the residue lacks the atom
    priors = [toy_priors.prior(rt, role) for rt, role, _ in keys]
    means = np.array([np.nan if p is None else p.mean for p in priors])
    stds = np.array([np.nan if p is None else p.std for p in priors])
    cells = np.repeat(np.arange(len(keys)), [len(noise) for _, _, noise in keys])
    sigmas = np.array([s for _, _, noise in keys for s in noise])
    batch = typing_thresholds(means, stds, cells, sigmas, delta)
    assert batch.shape == (len(keys),)
    lacking = 0
    for (rt, role, noise), threshold in zip(keys, batch.tolist()):
        prior = toy_priors.prior(rt, role)
        if prior is None:
            lacking += 1
            assert threshold == 0.0
        else:
            assert threshold == typing_threshold(prior, len(noise), noise, delta), (rt, role, noise)
    assert lacking == 3 * 13  # glycine's CB, proline's N and HN


def test_typing_filter_absent_atom(toy_priors, default_tol):
    """A grouping observing CB cannot sit on a glycine layer."""
    good = _grouping("u1", {"N": 110.0, "HN": 8.3, "CA": 45.5})
    bad = _grouping("u2", {"N": 110.0, "HN": 8.3, "CA": 45.5, "CB": 19.0})
    assert _typed_ids([good, bad], "G", toy_priors, default_tol) == ["u1"]


def test_typing_filter_threshold(toy_priors, default_tol):
    near = _grouping("u1", {"CA": 53.0})
    far = _grouping("u2", {"CA": 45.0})  # 4 prior stds from alanine CA
    assert _typed_ids([near, far], "A", toy_priors, default_tol) == ["u1"]


def test_proline_layer_dummy_only(toy_priors, default_tol):
    seq = ProteinSequence("APA")
    expected = spin_observation_counts(toy_priors)
    g1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    g = _build([g1], seq, toy_priors, default_tol, expected)
    assert g.grouping_rows[2].tolist() == [-1]  # the dummy alone
    # proline threshold covers only the carbons
    assert g.thresholds[2] < g.thresholds[1]


def test_layer_instantiation_counts(toy_priors, default_tol):
    seq = ProteinSequence("AG")
    expected = spin_observation_counts(toy_priors)
    shifts = {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0}
    ala_only = "u1", ["p1", "p2", "p3"], {role: [(v, 0.1, "p1")] for role, v in shifts.items()}
    g = _build([ala_only], seq, toy_priors, default_tol, expected)
    assert len(g.grouping_rows[1]) == 2  # dummy + the grouping
    assert len(g.grouping_rows[2]) == 1  # glycine rejects the CB observation
    # -1 is the start, a dummy or the end
    assert [rows.tolist() for rows in g.grouping_rows] == [[-1], [-1, 0], [-1], [-1]]
    assert _ids(g, 1) == [None, "u1"] and _ids(g, 2) == [None]
    # a regular node consumes its grouping's peaks; start, dummies and end none
    assert node_peaks(g, 1, 1) == frozenset({"p1", "p2", "p3"})
    for layer, index in ((0, 0), (1, 0), (2, 0), (3, 0)):
        assert node_peaks(g, layer, index) == frozenset()


def test_edge_costs_and_attribution(toy_priors, default_tol):
    """Path cost decomposes into independently recomputed residue costs."""
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    u2 = _grouping(
        "u2",
        {"N": 122.0, "HN": 8.1, "CA": 53.5, "CB": 19.5, "CA_prev": 53.05, "CB_prev": 19.05},
    )
    g = _build([u1, u2], seq, toy_priors, default_tol, expected)
    i1, i2 = _ids(g, 1).index("u1"), _ids(g, 2).index("u2")
    # start edges carry no cost
    assert edge_cost(g.edges[0], 0, i1) == 0.0

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
        want += closed_form_cost(prior, [(v, sigma) for v in values])
    assert edge_cost(g.edges[1], i1, i2) == pytest.approx(want, rel=1e-12)

    # edge u2 -> end charges residue 2 from u2's intra roles only
    want2 = 0.0
    for role, value in (("N", 122.0), ("HN", 8.1), ("CA", 53.5), ("CB", 19.5)):
        want2 += closed_form_cost(toy_priors.prior("A", role), [(value, sigma)])
    assert edge_cost(g.edges[2], i2, 0) == pytest.approx(want2, rel=1e-12)

    # full path cost equals the sum of its parts
    assert path_solution(g, [0, i1, i2, 0]).total_cost == pytest.approx(want + want2, rel=1e-12)


def test_dummy_outgoing_edges_cost_threshold(toy_priors, default_tol):
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0})
    g = _build([u1], seq, toy_priors, default_tol, expected)
    for j in range(len(g.grouping_rows[2])):
        assert edge_cost(g.edges[1], 0, j) == pytest.approx(g.thresholds[1])
    assert edge_cost(g.edges[2], 0, 0) == pytest.approx(g.thresholds[2])


def _walks(src, dst, delta3):
    """Every intra carbon value of the src consensus within delta3 of every
    prev value of the same carbon in the dst consensus, checked pair by pair."""
    return all(
        abs(x - y) <= delta3
        for role in ("CA", "CB", "CO")
        for x in _values(src, role)
        for y in _values(dst, role + "_prev")
    )


def test_sequential_walking_prunes_mismatched_carbons(toy_priors, default_tol):
    seq = ProteinSequence("AA")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0})
    # CA_prev far from u1's CA: no sequential edge
    u2 = _grouping("u2", {"N": 122.0, "HN": 8.1, "CA": 53.5, "CA_prev": 56.0})
    g = _build([u1, u2], seq, toy_priors, default_tol, expected)
    i1, i2 = _ids(g, 1).index("u1"), _ids(g, 2).index("u2")
    assert g.edges[1].index(i1, i2) is None
    # dummy routes always exist
    assert g.edges[1].index(0, i2) is not None
    assert g.edges[1].index(i1, 0) is not None

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
    g = _build([s1, s2, *targets], seq, toy_priors, tol, expected)
    src = {gid: i for i, gid in enumerate(_ids(g, 1)) if gid is not None}
    dst = {gid: i for i, gid in enumerate(_ids(g, 2)) if gid is not None}
    assert len(src) == len(dst) == 7  # every grouping is typed as alanine
    linked = {(i, j) for i, j in edge_map(g.edges[1]) if i and j}
    want = {
        (i, j)
        for i in src.values()
        for j in dst.values()
        if _walks(_consensus(g, 1, i), _consensus(g, 2, j), tol.delta3)
    }
    assert linked == want
    pair = {(a, b): (src[a], dst[b]) in linked for a in src for b in dst}
    assert pair["s1", "t1"] and pair["s2", "t1"]  # exactly delta3 is kept
    assert not pair["s1", "t2"] and pair["s2", "t2"]  # one ulp over is cut
    assert pair["s1", "t3"] and pair["s2", "t3"]
    assert not pair["s1", "t4"] and pair["s2", "t4"]  # s2 observes no CB
    assert pair["s1", "t5"] and pair["s2", "t5"]


def _quadrature_price(src, dst, residue_type, priors):
    """Residue cost of the src consensus's intra and the dst consensus's prev
    observations (dst {} for the dummy or the end), by quadrature per pooled
    role; None when the residue lacks an observed atom."""
    pooled = {}
    for consensus, prev in ((src, False), (dst, True)):
        for role, (values, sigmas, _) in consensus.items():
            if is_prev(role) == prev:
                pooled.setdefault(base_role(role), []).extend(zip(values, sigmas))
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
        return gid, [gid], {role: [(v, s, gid) for v, s in obs] for role, obs in roles.items()}

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
    g = _build(groupings, seq, toy_priors, Tolerances(delta3=1.0, delta=10.0), expected)
    assert _ids(g, 1)[1:] == ["g1", "g2"]
    assert len(g.grouping_rows[2]) > 3  # t1, t2, t3, and the glycine-like groupings
    priced = 0
    for k in (1, 2):
        rt = seq.residue_type(k)
        for (i, j), cost in edge_map(g.edges[k]).items():
            if i == 0:
                continue
            src, dst = _consensus(g, k, i), _consensus(g, k + 1, j)
            want = _quadrature_price(src, dst, rt, toy_priors)
            assert cost == pytest.approx(want, abs=1e-8)
            priced += 1
        # wide windows and thresholds: only an absent atom removes a regular pair
        regular = {
            (i, j)
            for i in range(1, len(g.grouping_rows[k]))
            for j in range(1, len(g.grouping_rows[k + 1]))
            if _quadrature_price(_consensus(g, k, i), _consensus(g, k + 1, j), rt,
                                 toy_priors) is not None
        }
        assert {(i, j) for i, j in edge_map(g.edges[k]) if i and j} == regular
    t2 = _ids(g, 2).index("t2")
    assert not any(j == t2 for i, j in edge_map(g.edges[1]) if i)
    assert g.edges[1].index(1, t2 - 1) is not None and _ids(g, 2)[t2 - 1] == "t1"
    assert priced == len(g.edges[1]) + len(g.edges[2]) - len(g.grouping_rows[2]) - 1


def test_dummy_connectivity_invariant(toy_priors, default_tol):
    seq = ProteinSequence("AAA")
    expected = spin_observation_counts(toy_priors)
    groupings = [
        _grouping(f"u{i}", {"N": 123.0 + i, "HN": 8.2, "CA": 53.0 + 0.3 * i})
        for i in range(3)
    ]
    g = _build(groupings, seq, toy_priors, default_tol, expected)
    for k in range(1, g.n + 1):
        for i in range(len(g.grouping_rows[k - 1])):
            assert g.edges[k - 1].index(i, 0) is not None
        for j in range(len(g.grouping_rows[k + 1])):
            assert g.edges[k].index(0, j) is not None


def test_rebuild_is_deterministic(toy_priors, default_tol):
    seq = ProteinSequence("AGA")
    expected = spin_observation_counts(toy_priors)
    groupings = [
        _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0, "CB": 19.0}),
        _grouping("u2", {"N": 110.0, "HN": 8.3, "CA": 45.5}),
    ]
    g1 = _build(groupings, seq, toy_priors, default_tol, expected)
    g2 = _build(groupings, seq, toy_priors, default_tol, expected)
    assert [edge_map(layer) for layer in g1.edges] == [edge_map(layer) for layer in g2.edges]
    assert g1.thresholds == g2.thresholds


def test_export_graph(tmp_path, toy_priors, default_tol):
    seq = ProteinSequence("AG")
    expected = spin_observation_counts(toy_priors)
    u1 = _grouping("u1", {"N": 123.0, "HN": 8.2, "CA": 53.0})
    g = _build([u1], seq, toy_priors, default_tol, expected)
    path = tmp_path / "graph.json"
    export_graph(g, path)
    doc = json.loads(path.read_text())
    assert doc["sequence"] == "AG"
    assert len(doc["nodes"]) == 4
    assert all(len(e) == 4 for e in doc["edges"])


def test_edge_layer_arrays_and_lookup():
    # three source nodes; node 1 has no out-edges
    layer = EdgeLayer(np.array([0, 3, 0, 1]), np.array([0.25, 1.5, 5.0, -2.0]), np.array([0, 2, 2, 4]))
    assert layer.src.tolist() == [0, 0, 2, 2]
    assert layer.out(0) == slice(0, 2)
    assert layer.out(1) == slice(2, 2)
    assert layer.dst[layer.out(2)].tolist() == [0, 1]
    assert len(layer) == 4
    assert layer.index(0, 3) == 1 and layer.index(2, 1) == 3
    assert layer.index(0, 1) is None  # absent edge
    assert layer.index(1, 0) is None  # source without out-edges
    assert layer.index(3, 0) is None and layer.index(-1, 0) is None  # out of range
    assert edge_cost(layer, 2, 1) == -2.0
    # the oracles' builder lays an unsorted mapping out in (src, dst) order
    built = edge_layer({(2, 0): 5.0, (0, 3): 1.5, (2, 1): -2.0, (0, 0): 0.25}, 3)
    for part in ("src", "dst", "cost", "indptr"):
        assert getattr(built, part).tolist() == getattr(layer, part).tolist()
    assert edge_map(built) == {(0, 0): 0.25, (0, 3): 1.5, (2, 0): 5.0, (2, 1): -2.0}
    empty = edge_layer({}, 2)
    assert empty.indptr.tolist() == [0, 0, 0] and len(empty) == 0 and empty.index(0, 0) is None


#: two sigmas per base role, drawn per observation: noise signatures differ
#: in some roles and share others
SIGMAS = {"N": (0.1, 0.05), "HN": (0.0075, 0.01), "CA": (0.1, 0.2), "CB": (0.1, 0.2), "CO": (0.1, 0.2)}


def _peak_list_groupings(rng, seq, priors):
    """The table of peak-list-style groupings of a random protein, one per
    residue plus three decoys: 2-3 observations per observed role, each with
    one of the role's two sigmas, within 0.3 ppm of the residue's shift
    (decoys 1.5); a fifth of the roles, intra or prev, left unobserved."""
    shifts = [
        {role: p.mean + rng.normal() * p.std for role in BASE_ROLES if (p := priors.prior(rt, role))}
        for rt in seq.residues
    ]
    out = []
    for a in range(len(seq) + 3):
        k, spread = (a, 0.3) if a < len(seq) else (int(rng.integers(len(seq))), 1.5)
        gid = f"g{a}"
        parts = [("", shifts[k])] + ([("_prev", shifts[k - 1])] if k else [])
        consensus = {
            role + suffix: [
                (x + rng.uniform(-spread, spread), float(rng.choice(SIGMAS[role])), gid)
                for _ in range(int(rng.integers(2, 4)))
            ]
            for suffix, own in parts
            for role, x in own.items()
            if (suffix == "" or role in ("CA", "CB", "CO")) and rng.random() >= 0.2
        }
        out.append((gid, [gid], consensus))
    return GroupingTable.from_rows(out)


def _reference_graph(table, seq, priors, tol, expected):
    """build_graph's thresholds, typed rows and edge costs, one residue and
    one layer at a time: thresholds summed from ``typing_threshold`` per
    atom, moments from ``moments`` per grouping's ``consensus``, costs from
    ``_atom_costs`` summed on each layer's own rows, and sequential walking
    checked value pair by value pair."""

    def threshold(rt, noise):
        total = 0.0
        for role in sorted(noise):
            prior = priors.prior(rt, role)
            if prior is not None:
                total += typing_threshold(prior, len(noise[role]), noise[role], tol.delta)
        return total

    def summary(consensus, prev):
        fields = np.zeros((len(Moments._fields), len(BASE_ROLES)))
        for role, (values, sigmas, _) in consensus.items():
            if is_prev(role) == prev:
                fields[:, BASE_ROLES.index(base_role(role))] = moments(zip(values, sigmas))
        return fields

    def stacked(tables):
        fields = np.array(tables).reshape(-1, len(Moments._fields), len(BASE_ROLES))
        return Moments(*fields.transpose(1, 0, 2))

    def walks(src, dst):
        return all(
            abs(x - y) <= tol.delta3
            for role in BASE_ROLES
            for x in _values(src, role)
            for y in _values(dst, role + "_prev")
        )

    observed = [table.consensus(r) for r in range(len(table))]
    intra = [summary(c, False) for c in observed]
    prev = [summary(c, True) for c in observed]
    noise = [{r: sigmas for r, (_, sigmas, _) in c.items() if not is_prev(r)} for c in observed]
    thresholds = [0.0] + [
        threshold(rt, {role: [sigma] * count for role, (count, sigma) in expected.items()})
        for rt in seq.residues
    ]
    rows = []
    for rt in seq.residues:
        costs = _atom_costs(_residue_priors(*_prior_table([rt], priors)), stacked(intra)).sum(axis=-1)
        rows.append([a for a in range(len(table)) if costs[a] <= threshold(rt, noise[a])])
    rows.append([])
    edges = [{(0, j): 0.0 for j in range(len(rows[0]) + 1)}]
    n_walked = n_unwalked = n_foreign = 0
    for k, rt in enumerate(seq.residues, 1):
        src, dst = rows[k - 1], rows[k]
        prior = _residue_priors(*_prior_table([rt], priors))
        layer = {(0, j): thresholds[k] for j in range(len(dst) + 1)}
        typing = _atom_costs(prior, stacked([intra[a] for a in src])).sum(axis=-1)
        layer.update({(i, 0): float(typing[i - 1]) for i in range(1, len(src) + 1)})
        pairs = [
            (i, j)
            for i, a in enumerate(src, 1)
            for j, b in enumerate(dst, 1)
            if walks(observed[a], observed[b])
        ]
        n_walked += len(pairs)
        n_unwalked += len(src) * len(dst) - len(pairs)
        # walked pairs into groupings typed only for another residue that
        # follows this type elsewhere: priced with the type, kept by no layer here
        others = {b for q, t in enumerate(seq.residues[:-1], 1) if t == rt for b in rows[q]}
        n_foreign += sum(
            walks(observed[a], observed[b]) for a in src for b in sorted(others - set(dst))
        )
        if pairs:
            cost = _atom_costs(
                prior,
                stacked([intra[src[i - 1]] for i, _ in pairs]),
                stacked([prev[dst[j - 1]] for _, j in pairs]),
            ).sum(axis=-1)
            layer.update({pair: float(c) for pair, c in zip(pairs, cost) if c <= thresholds[k]})
        edges.append(layer)
    return thresholds, rows[:-1], edges, n_walked, n_unwalked, n_foreign


def _matches_reference(g, reference):
    """Check the graph's thresholds, typed rows, edge sets and costs against
    ``_reference_graph``'s, exactly; returns the reference's counts."""
    thresholds, rows, edges, *counts = reference
    assert g.thresholds == thresholds
    assert [r.tolist() for r in g.grouping_rows[1:-1]] == [[-1, *r] for r in rows]
    assert len(g.edges) == len(edges)
    for layer, want in zip(g.edges, edges):
        assert len(layer) == len(want) and edge_map(layer) == want
    return rows, counts


def test_build_graph_matches_per_layer_reference(toy_priors, random_peak_list):
    """On random peak-list-style groupings (several observations per role
    with mixed sigmas, unobserved roles, glycine and proline layers) the
    graph's thresholds, typed rows, edge sets and costs equal exactly those
    of a per-layer reference. The last sequence's alanines are followed by
    glycine, proline and alanine, so that the edges its type prices reach
    groupings that only some of its layers keep. So do the graphs of the
    enumerated groupings of the random 20-residue peak lists, seeds 1-5,
    with the bundled priors (the reference prices every pair in Python: a
    40-residue list takes it 20-30 s)."""
    tol = Tolerances(delta3=0.4)
    expected = {"N": (3, 0.1), "HN": (3, 0.0075), "CA": (4, 0.1), "CB": (2, 0.2), "CO": (2, 0.1)}
    counts = np.zeros(5, dtype=int)
    for seed in range(13):
        rng = np.random.default_rng(seed)
        residues = "AG" + "".join(rng.choice(list("AAGP"), size=5)) if seed < 12 else "AGAPAAGA"
        seq = ProteinSequence(residues)
        groupings = _peak_list_groupings(rng, seq, toy_priors)
        g = build_graph(groupings, seq, toy_priors, tol, expected)
        rows, (walked, unwalked, foreign) = _matches_reference(
            g, _reference_graph(groupings, seq, toy_priors, tol, expected)
        )
        signatures = {
            frozenset(
                (r, tuple(sigmas))
                for r, (_, sigmas, _) in groupings.consensus(a).items() if not is_prev(r)
            )
            for a in range(len(groupings))
        }
        shared = sum(bool(s & t) for s, t in itertools.combinations(signatures, 2))
        glycine = sum(len(r) for r, rt in zip(rows, seq.residues) if rt == "G")
        counts += [walked, unwalked, glycine, shared, foreign]
    # not vacuous: pairs on both sides of the walk rule, typed glycine layers,
    # distinct noise signatures that share one role's sigmas, and walked
    # pairs that one layer of a type drops and another keeps
    assert counts.min() > 0, counts
    assert foreign > 0  # on the last, fixed sequence alone

    priors, tol = bundled_priors(), Tolerances(delta1=0.08, delta2=0.8, delta3=0.8)
    walked = 0
    for seed in range(1, 6):
        seq, peaks = random_peak_list(20, seed)
        spectra = sorted({canonical_name(p.spectrum_id) for p in peaks}, key=FULL_SET.index)
        groupings = enumerate_groupings(
            build_compatibility_graph(peaks, tol), expected_pattern(spectra), 20, priors, tol
        )
        expected = expected_observation_counts(spectra, priors)
        g = build_graph(groupings, seq, priors, tol, expected)
        walked += _matches_reference(g, _reference_graph(groupings, seq, priors, tol, expected))[1][0]
    assert walked > 0


def _graph_digest(g):
    """sha256 of a graph's thresholds, grouping rows, and every edge layer's
    src, dst, indptr and costs, each float down to its last bit."""
    digest = hashlib.sha256()
    digest.update(repr([t.hex() for t in g.thresholds]).encode())
    for rows in g.grouping_rows:
        digest.update(np.asarray(rows, dtype=np.int64).tobytes() + b"|")
    for layer in g.edges:
        for part in (layer.src, layer.dst, layer.indptr):
            digest.update(np.asarray(part, dtype=np.int64).tobytes() + b"|")
        digest.update(repr([c.hex() for c in layer.cost.tolist()]).encode())
    return digest.hexdigest()


def _pinned_dataset(tmp_path, dataset):
    """(groupings, sequence, priors, tolerances, expected counts) of a pinned
    dataset: peaks-ref40 (ref40, flya, tolerances 0.08/0.8/0.8, top_k 20) or
    spins-deletion (ref60, cisa, high noise, 20 % deletion, spins sigmas
    widened to CA 0.16 and CB 0.32, delta3 1.4), with its simulation seed."""
    name, seed = dataset
    priors = bundled_priors()
    if name == "ref40":
        ref = bundled_reference("ref40")
        tol = Tolerances(delta1=0.08, delta2=0.8, delta3=0.8)
        run_simulate(tmp_path, "flya", ref.sequence, priors, seed, reference=ref)
        peaks = read_peaks(tmp_path / "peaks.tsv")
        spectra = sorted({canonical_name(p.spectrum_id) for p in peaks}, key=FULL_SET.index)
        groupings = enumerate_groupings(
            build_compatibility_graph(peaks, tol), expected_pattern(spectra), 20, priors, tol
        )
        return groupings, ref.sequence, priors, tol, expected_observation_counts(spectra, priors)
    ref = bundled_reference("ref60")
    run_simulate(
        tmp_path, "cisa", ref.sequence, priors, seed, noise="high", reference=ref,
        deletion_rate=0.2,
    )
    noise = {k: dict(v) for k, v in priors.noise.items()}
    noise["spins"].update(CA=0.16, CB=0.32)
    wide = PriorTable(priors.atoms, noise)
    groupings = spins_to_groupings(read_spins(tmp_path / "spins.tsv"), wide)
    return groupings, ref.sequence, wide, Tolerances(delta3=1.4), spin_observation_counts(wide)


#: ``_graph_digest`` of the graph built on each pinned dataset
PINNED_GRAPH_DIGESTS = {
    ("ref40", 0): "2b3affbe1ed2664fc5c1ba3e63aa866ea87035797a7e7a2428edea00eaaf3737",
    ("ref40", 3): "370c0a77253c7311619025b50e9162217fb66125e012bce06f8f6b0e1478d78d",
    ("ref60-cisa", 0): "e746b8cf9013e07b85e194b8cd57ad50a06523353e22665b8cbe88861bf54fbd",
}


@pytest.mark.parametrize("dataset", sorted(PINNED_GRAPH_DIGESTS))
def test_graph_is_pinned(tmp_path, dataset):
    """The graphs of the benchmark's datasets do not move: same thresholds,
    nodes, edges and costs, down to each cost's last bit."""
    groupings, seq, priors, tol, expected = _pinned_dataset(tmp_path, dataset)
    assert _graph_digest(build_graph(groupings, seq, priors, tol, expected)) == (
        PINNED_GRAPH_DIGESTS[dataset]
    )
