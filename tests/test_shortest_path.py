import math

import numpy as np
import pytest

from nmrassign.shortest_path import (
    NoPathError,
    PathSolution,
    canonical_path,
    dp_edge_bounds,
    dp_shortest_path,
    path_solution,
)

from oracles import (
    InstanceTooLargeError,
    brute_constrained,
    brute_shortest,
    check_path,
    conflict_fixture,
    exhaustive_constrained,
    fragments,
    iter_paths,
    make_graph,
    node_peaks,
    path_cost,
    path_overuse,
    random_instance,
)


def _abcd_fixture():
    """Two inner layers {A,B}/{C,D}; A=1, B=2 within their layers."""
    edges = [
        {(0, 0): 0.0, (0, 1): 0.0, (0, 2): 0.0},
        {
            # dummy routes are priced out so a regular path wins
            (0, 0): 100.0, (0, 1): 100.0, (0, 2): 100.0,
            (1, 0): 100.0, (2, 0): 100.0,
            (1, 1): 1.0, (1, 2): 5.0,  # A->C, A->D
            (2, 1): 4.0, (2, 2): 2.0,  # B->C, B->D
        },
        {(0, 0): 0.0, (1, 0): 0.0, (2, 0): 0.0},
    ]
    return make_graph([3, 3], edges)


def test_dp_abcd_fixture():
    sol = dp_shortest_path(_abcd_fixture())
    assert sol.nodes == (0, 1, 1, 0)  # Start, A, C, End
    assert sol.total_cost == pytest.approx(1.0)
    assert sol.edge_costs == (0.0, 1.0, 0.0)


def test_dp_dummies_only():
    thresholds = [0.0, 3.0, 4.0, 5.0]
    edges = [{(0, 0): 0.0}, {(0, 0): 3.0}, {(0, 0): 4.0}, {(0, 0): 5.0}]
    g = make_graph([1, 1, 1], edges, thresholds=thresholds)
    sol = dp_shortest_path(g)
    assert sol.nodes == (0, 0, 0, 0, 0)
    assert sol.total_cost == pytest.approx(12.0)


def test_dp_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = random_instance(rng, int(rng.integers(1, 8)), 4, 10)
        sol = dp_shortest_path(g)
        check_path(g, sol.nodes, allow_reuse=True)
        assert sol.total_cost == pytest.approx(brute_shortest(g), abs=1e-9)
        assert path_cost(g, sol.nodes) == pytest.approx(sol.total_cost, abs=1e-12)


def test_dp_penalty_matches_brute_force():
    """With node penalties the DP returns the lexicographically smallest
    path of least penalized cost, priced at the graph's own costs."""
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_instance(rng, int(rng.integers(1, 6)), 4, 10)
        penalty = [rng.choice([0.0, 0.5, 3.0], size=len(rows)) for rows in g.grouping_rows]

        def penalized(path):
            return path_cost(g, path) + sum(penalty[k][i] for k, i in enumerate(path))

        best = min(penalized(path) for path in iter_paths(g))
        want = min(path for path in iter_paths(g) if penalized(path) <= best + 1e-9)
        sol = dp_shortest_path(g, penalty)
        assert sol.nodes == want
        assert sol.total_cost == pytest.approx(path_cost(g, want), abs=1e-12)


def test_dp_edge_bounds_match_brute_force():
    """Each edge's bound is the least penalized cost of the paths through
    it (inf where none passes), and each layer's least bound is the
    penalized optimum ``dp_shortest_path`` chooses. The end node has no
    out-edge, so its penalty never counts."""
    rng = np.random.default_rng(29)
    for _ in range(25):
        g = random_instance(rng, int(rng.integers(1, 6)), 4, 10)
        penalty = [rng.uniform(0.0, 3.0, size=len(rows)) for rows in g.grouping_rows]

        def penalized(path):
            return path_cost(g, path) + sum(penalty[k][i] for k, i in enumerate(path[:-1]))

        want = [np.full(len(layer), math.inf) for layer in g.edges]
        for path in iter_paths(g):
            cost = penalized(path)
            for k, layer in enumerate(g.edges):
                e = layer.index(path[k], path[k + 1])
                want[k][e] = min(want[k][e], cost)
        optimum = penalized(dp_shortest_path(g, penalty).nodes)
        bounds = dp_edge_bounds(g, penalty)
        assert len(bounds) == len(g.edges)
        for got, expected in zip(bounds, want):
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)
            assert got.min() == pytest.approx(optimum, abs=1e-9)


def test_dp_tie_break_lexicographic():
    edges = [
        {(0, 0): 0.0, (0, 1): 0.0, (0, 2): 0.0},
        {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0},
    ]
    g = make_graph([3], edges)
    assert dp_shortest_path(g).nodes == (0, 0, 0)


def test_dp_no_path():
    g = make_graph([2], [{(0, 1): 0.0}, {(0, 0): 1.0}])
    with pytest.raises(NoPathError):
        dp_shortest_path(g)


def test_exhaustive_conflict_fixture():
    g = conflict_fixture()
    sol = exhaustive_constrained(g)
    assert sol.total_cost == pytest.approx(10.0)
    check_path(g, sol.nodes, allow_reuse=False)
    # one regular node (a grouping row), one dummy (row -1)
    rows = sorted(int(g.grouping_rows[k][sol.nodes[k]]) for k in (1, 2))
    assert rows[0] == -1 and rows[1] >= 0


def test_exhaustive_dummies_only():
    thresholds = [0.0, 3.0, 4.0]
    edges = [{(0, 0): 0.0}, {(0, 0): 3.0}, {(0, 0): 4.0}]
    g = make_graph([1, 1], edges, thresholds=thresholds)
    assert exhaustive_constrained(g).total_cost == pytest.approx(7.0)


def test_exhaustive_matches_independent_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_instance(rng, int(rng.integers(1, 6)), 3, 6)
        sol = exhaustive_constrained(g)
        check_path(g, sol.nodes, allow_reuse=False)
        assert sol.total_cost == pytest.approx(brute_constrained(g), abs=1e-9)
        # relaxation ordering
        assert dp_shortest_path(g).total_cost <= sol.total_cost + 1e-9


def test_exhaustive_budget():
    edges = [{(0, j): 0.0 for j in range(5)}]
    for _ in range(9):
        edges.append({(i, j): 0.0 for i in range(5) for j in range(5)})
    edges.append({(i, 0): 0.0 for i in range(5)})
    g = make_graph([5] * 10, edges)
    with pytest.raises(InstanceTooLargeError):
        exhaustive_constrained(g, budget=10_000)


def test_path_solution_invariant():
    with pytest.raises(Exception):
        PathSolution((0, 1, 0), 1.0, (1.0,))


def test_canonical_path_sorts_fragments_of_equal_windows():
    """Layers 1 and 3 are both "A" and their fragments swap at equal cost;
    layer 2 is "G", so its node stays."""
    edges = [
        {(0, 0): 0.0, (0, 1): 0.0, (0, 2): 0.0},
        {(0, 0): 5.0, (0, 1): 5.0, (1, 0): 1.0, (2, 0): 2.0},
        {(0, 0): 6.0, (0, 1): 6.0, (0, 2): 6.0, (1, 0): 3.0},
        {(0, 0): 5.0, (1, 0): 1.0, (2, 0): 2.0},
    ]
    usage = [{}, {1: {"p1"}, 2: {"p2"}}, {1: {"p3"}}, {1: {"p1"}, 2: {"p2"}}, {}]
    thresholds = [0.0, 5.0, 6.0, 5.0]
    g = make_graph([3, 2, 3], edges, usage, thresholds, sequence="AGA")
    moved = canonical_path(g, (0, 2, 0, 1, 0))
    assert moved.nodes == (0, 1, 0, 2, 0) and moved.canonicalized
    assert moved.edge_costs == (0.0, 1.0, 6.0, 2.0) and moved.total_cost == 9.0
    kept = canonical_path(g, (0, 1, 0, 2, 0))
    assert kept.nodes == (0, 1, 0, 2, 0) and not kept.canonicalized
    assert canonical_path(g, (0, 0, 1, 0, 0)).nodes == (0, 0, 1, 0, 0)
    # windows of different residue types never trade fragments
    g = make_graph([3, 2, 3], edges, usage, thresholds, sequence="AGG")
    assert canonical_path(g, (0, 2, 0, 1, 0)).nodes == (0, 2, 0, 1, 0)


def test_canonical_path_guard_on_random_graphs():
    """random_instance graphs price each edge at random, so a fragment swap
    between equal-type windows (the sequence is all "A") may change the
    cost or break a path. Over every path of 40 of them, canonical_path
    returns a path with the same cost and the same peak overuse, because
    the guard keeps the given path whenever the sorted candidate does not
    qualify."""
    rng = np.random.default_rng(61)
    kept = 0
    for _ in range(40):
        g = random_instance(rng, int(rng.integers(3, 7)), 3, 8)
        for path in iter_paths(g):
            priced = canonical_path(g, path)
            out = priced.nodes
            check_path(g, out, allow_reuse=True)
            assert priced.total_cost == pytest.approx(path_cost(g, out), rel=1e-12, abs=1e-12)
            assert priced.canonicalized == (out != path)
            assert path_cost(g, out) == pytest.approx(path_cost(g, path), rel=1e-9, abs=1e-12)
            assert path_overuse(g, out) == path_overuse(g, path)
            by_window: dict[str, list] = {}
            for types, fragment in fragments(g, path):
                by_window.setdefault(types, []).append(fragment)
            kept += any(f != sorted(f) for f in by_window.values()) and out == path
    assert kept > 0


def test_path_solution_prices_a_path_and_rejects_the_rest():
    g = _abcd_fixture()
    sol = path_solution(g, [0, 2, 1, 0])
    assert sol.nodes == (0, 2, 1, 0) and sol.edge_costs == (0.0, 4.0, 0.0)
    assert sol.total_cost == 4.0 and not sol.canonicalized
    # too short, an absent node, a start or an end node other than 0
    for nodes in ((0, 1, 1), (0, 1, 1, 0, 0), (0, 3, 1, 0), (1, 1, 1, 0), (0, 1, 1, 1)):
        assert path_solution(g, nodes) is None
        with pytest.raises(NoPathError):
            canonical_path(g, nodes)
    edges = [{(0, 0): 0.0, (0, 1): 0.0}, {(0, 0): 1.0, (1, 1): 2.0}, {(0, 0): 0.0, (1, 0): 0.0}]
    g = make_graph([2, 2], edges)
    assert path_solution(g, (0, 1, 0, 0)) is None  # the layer lacks edge (1, 0)


def test_path_reused_peaks_matches_the_per_node_count():
    """One gather and one bincount count the same peaks as a walk over each
    node's peaks, on every path of random graphs that share peaks."""
    rng = np.random.default_rng(17)
    reused = 0
    for _ in range(20):
        g = random_instance(rng, int(rng.integers(2, 6)), 3, 5)
        for path in iter_paths(g):
            counts: dict[str, int] = {}
            for k in range(1, g.n + 1):
                for pid in node_peaks(g, k, path[k]):
                    counts[pid] = counts.get(pid, 0) + 1
            want = {p: c for p, c in sorted(counts.items()) if c >= 2}
            got = g.path_reused_peaks(path)
            assert got == want and list(got) == list(want)
            assert all(type(c) is int for c in got.values())
            reused += bool(want)
    assert reused > 0
