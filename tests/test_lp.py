import itertools
import json
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import nmrassign.lp as lpmod
from nmrassign.cli import main as cli_main
from nmrassign.domain import (
    NODE_LIMIT,
    NmrAssignError,
    PriorTable,
    ProteinSequence,
    Tolerances,
    write_priors,
)
from nmrassign.lp import (
    LinearProgram,
    LpSolution,
    SolverError,
    branch_and_bound,
    edge_bounds,
    extract_path,
    formulate,
    is_integral,
    lagrangian_stage,
    load_backend,
    node_penalty,
    peak_incidence,
    round_and_resolve,
    solve_ilp,
    solve_lian1,
    solve_lian2,
    solve_lp,
)
from nmrassign.experiments import spin_observation_counts
from nmrassign.graph import REGULAR, AssignmentGraph, build_graph
from nmrassign.grouping import spins_to_groupings
from nmrassign.shortest_path import canonical_path, dp_shortest_path, solve_result
from nmrassign.simulate import sample_reference, simulate_cisa

from oracles import (
    InstanceTooLargeError,
    brute_constrained,
    brute_penalized,
    check_path,
    conflict_fixture,
    exhaustive_constrained,
    fragments,
    iter_paths,
    make_graph,
    masked_program,
    node_peaks,
    path_cost,
    path_overuse,
    random_instance,
    truth_cost,
)
from nmrassign.pipeline import bundled_priors, bundled_reference


def _dummies_only(thresholds):
    n = len(thresholds) - 1
    edges = [{(0, 0): t} for t in thresholds]
    return make_graph([1] * n, edges, thresholds=thresholds)


def _col(lp, g, k, i, j):
    """Column of edge (i, j) between layers k and k+1."""
    return int(lp.edge_offsets[k]) + g.edges[k].index(i, j)


def _rows(A, b, positions):
    """(rhs, {column: coefficient}) of the rows of ``A`` at ``positions``."""
    out = []
    for r in positions:
        row = A.getrow(r)
        out.append((b[r], dict(zip(row.indices.tolist(), row.data.tolist()))))
    return out


def test_formulation_shape_dummies_only(default_tol):
    g = _dummies_only([0.0, 3.0, 4.0, 5.0])
    lp = formulate(g, "flow", default_tol)
    assert lp.n_vars == 4
    A_eq, b_eq, A_ub, b_ub = lp.matrices()
    # one selection row per inner layer, then one flow row per inner node
    selection = _rows(A_eq, b_eq, range(g.n))
    coupling = _rows(A_eq, b_eq, range(g.n, len(b_eq)))
    assert len(selection) == 3
    assert len(coupling) == 3
    assert lp.n_rows == 6
    assert all(rhs == 1.0 for rhs, _ in selection)
    assert all(rhs == 0.0 for rhs, _ in coupling)
    assert A_ub is None and b_ub.size == 0
    assert not lp.utilization and lp.n_vars == lp.n_edges


def test_constraint_matrices_by_hand(default_tol):
    g = _dummies_only([0.0, 3.0, 4.0])
    lp = formulate(g, "flow", default_tol)
    A_eq, b_eq, A_ub, b_ub = lp.matrices()
    # variables in (k, i, j) order: start edge, inner edge, end edge
    np.testing.assert_array_equal(lp.edge_offsets, [0, 1, 2, 3])
    np.testing.assert_allclose(lp.costs, [0.0, 3.0, 4.0])
    np.testing.assert_allclose(
        A_eq.toarray(),
        [
            [0.0, 1.0, 0.0],  # selection, layer 1
            [0.0, 0.0, 1.0],  # selection, layer 2
            [1.0, -1.0, 0.0],  # flow at layer-1 dummy
            [0.0, 1.0, -1.0],  # flow at layer-2 dummy
        ],
    )
    np.testing.assert_allclose(b_eq, [1.0, 1.0, 0.0, 0.0])
    assert A_ub is None and b_ub.size == 0


def test_utilization_rows_conflict_fixture(default_tol):
    g = conflict_fixture()
    lp = formulate(g, "lian1", default_tol)
    assert list(lp.utilization) == ["p1"]
    [(rhs, coeffs)] = _rows(lp.A_ub, lp.b_ub, [lp.utilization.index("p1")])
    assert rhs == 1.0
    # outgoing edges of the two consumers: two from (1,1), one from (2,1)
    want = {_col(lp, g, 1, 1, 0), _col(lp, g, 1, 1, 1), _col(lp, g, 2, 1, 0)}
    assert set(coeffs) == want
    assert all(c == 1.0 for c in coeffs.values())

    soft = formulate(g, "lian2", default_tol)
    # one slack column per utilization row, after the edges
    assert soft.n_vars == soft.n_edges + len(soft.utilization)
    eps_idx = soft.n_edges + soft.utilization.index("p1")
    [(_, soft_coeffs)] = _rows(soft.A_ub, soft.b_ub, [soft.utilization.index("p1")])
    assert soft_coeffs[eps_idx] == -1.0
    assert soft.costs[eps_idx] == default_tol.lam
    assert soft.bounds.shape == (soft.n_vars, 2)
    assert soft.bounds[eps_idx].tolist() == [0.0, np.inf]
    assert soft.bounds[: soft.n_edges].tolist() == [[0.0, 1.0]] * soft.n_edges


def test_matrices_encode_exactly_the_paths(default_tol):
    """Every start-to-end path satisfies the flow rows; for lian1 the
    utilization rows hold exactly on the paths that reuse no peak."""
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(25):
        g = random_instance(rng, int(rng.integers(1, 5)), 3, 6)
        for variant in ("flow", "lian1"):
            lp = formulate(g, variant, default_tol)
            A_eq, b_eq, A_ub, b_ub = lp.matrices()
            for path in iter_paths(g):
                x = np.zeros(lp.n_vars)
                for k in range(g.n + 1):
                    x[_col(lp, g, k, path[k], path[k + 1])] = 1.0
                np.testing.assert_array_equal(A_eq @ x, b_eq)
                if variant == "lian1":
                    fits = A_ub is None or bool(np.all(A_ub @ x <= b_ub))
                    assert fits == (path_overuse(g, path) == 0)
                checked += 1
    assert checked > 100


def _ascending_within(indptr, indices) -> bool:
    """Whether the indices of each compressed column (or row) strictly ascend."""
    step = np.diff(indices)
    within = np.ones(len(step), dtype=bool)
    first = indptr[1:-1]
    within[first[(first > 0) & (first < len(indices))] - 1] = False
    return bool(np.all(step[within] > 0))


def test_column_arrays_stack_the_csr_views(default_tol):
    """``formulate``'s column arrays, the matrix HiGHS reads, are int32
    ``indptr`` and ``indices`` and float64 ``data``, with rows strictly
    ascending in each column, and equal ``[A_ub; A_eq]`` stacked from the
    scipy views and turned column-wise. On random instances and on
    spins-deletion's (ref60, 20 % deletions, seeds 0-7), for every variant."""
    from scipy import sparse

    rng = np.random.default_rng(17)
    cases = [(random_instance(rng, int(rng.integers(1, 6)), 4, int(rng.integers(2, 9))), default_tol)
             for _ in range(40)]
    ref60 = bundled_reference("ref60")
    cases += [_deletion_graph(ref60.sequence.residues, seed, 0.2, ref60)[:2] for seed in range(8)]
    for g, tol in cases:
        for variant in ("flow", "lian1", "lian2"):
            lp = formulate(g, variant, tol)
            indptr, indices, data = lp.columns
            assert (indptr.dtype, indices.dtype, data.dtype) == (np.int32, np.int32, np.float64)
            assert len(indptr) == lp.n_vars + 1 and indptr[-1] == len(indices) == len(data)
            assert _ascending_within(indptr, indices)
            stacked = sparse.vstack([m for m in (lp.A_ub, lp.A_eq) if m is not None]).tocsc()
            assert stacked.shape == (lp.n_rows, lp.n_vars)
            for got, want in zip(lp.columns, (stacked.indptr, stacked.indices, stacked.data)):
                np.testing.assert_array_equal(got, want)


def test_external_backends_read_csr_views_built_once(monkeypatch, default_tol):
    """A backend that reads ``lp.matrices()`` gets scipy CSR matrices with
    sorted column indices, and None for a flow program's ``A_ub``. The views
    are built once per program: after a fractional root, every node of a
    margin round reads the same ``A_eq`` and ``A_ub`` objects, those of the
    round's program, and a round's first node, the root's answer, makes no
    solve."""
    from scipy import sparse

    seen = []

    def reading(lp):
        A_eq, _, A_ub, _ = lp.matrices()
        assert A_eq is lp.A_eq and A_ub is lp.A_ub
        seen.append((A_eq, A_ub))
        return solve_lp(lp)

    g = random_instance(np.random.default_rng(3), 3, 3, 4)
    flow = formulate(g, "flow", default_tol)
    assert solve_lp(flow, reading).ok
    [(A_eq, A_ub)] = seen
    assert A_ub is None and isinstance(A_eq, sparse.csr_matrix)
    assert A_eq.shape == (flow.n_rows, flow.n_vars)

    for g, lp in _conflicted_instances(4242):
        seen.clear()
        relaxed = solve_lp(lp, reading)
        if not is_integral(lp, relaxed):
            break
    calls = _record_bnb(monkeypatch)
    result = round_and_resolve(g, lp, relaxed, backend=reading)
    # the root's solve, then per round one solve per node after its first
    per_round = [r.nodes_explored - 1 for _, _, _, r, _ in calls]
    assert result.proven_optimal and len(seen) == 1 + sum(per_round) and sum(per_round) > 3
    views, start = [seen[0]], 1
    for solves, (_, _, _, _, program) in zip(per_round, calls):
        views += [seen[start]] if solves else []
        assert all(a is b for got in seen[start : start + solves] for a, b in zip(got, views[-1]))
        start += solves
        if solves:
            A_eq, A_ub = views[-1]
            assert A_eq.shape == (len(program.b_eq), program.n_vars)
            assert A_ub.shape == (len(program.b_ub), program.n_vars)
    assert len({id(A_eq) for A_eq, _ in views}) == len(views) > 1
    for A_eq, A_ub in views:
        for A in (A_eq, A_ub):
            assert isinstance(A, sparse.csr_matrix) and A.dtype == np.float64
            assert _ascending_within(A.indptr, A.indices)
    A_eq, A_ub = views[0]
    assert A_eq.shape == (len(lp.b_eq), lp.n_vars) and A_ub.shape == (len(lp.b_ub), lp.n_vars)


def test_unknown_variant_rejected(default_tol):
    with pytest.raises(NmrAssignError):
        formulate(_dummies_only([0.0, 1.0]), "simplex", default_tol)


def test_flow_relaxation_is_integral_and_matches_dp(default_tol):
    rng = np.random.default_rng(31)
    for _ in range(30):
        g = random_instance(rng, int(rng.integers(1, 7)), 4, 8)
        lp = formulate(g, "flow", default_tol)
        sol = solve_lp(lp)
        assert sol.ok
        assert is_integral(lp, sol)
        check_path(g, extract_path(g, lp, sol), allow_reuse=True)
        assert sol.objective == pytest.approx(
            dp_shortest_path(g).total_cost, abs=1e-6
        )


def test_lian1_conflict_fixture(default_tol):
    g = conflict_fixture()
    result = solve_lian1(g, default_tol)
    assert result.objective == pytest.approx(10.0)
    assert result.proven_optimal
    assert result.reused_peaks == {}
    check_path(g, result.path.nodes, allow_reuse=False)
    kinds = sorted(g.node(k, result.path.nodes[k]).kind for k in (1, 2))
    assert kinds == ["dummy", "regular"]
    # the relaxation splits the conflict, so it bounds strictly below 10
    assert result.lp_bound <= result.objective + 1e-9


def test_lian2_conflict_fixture_small_lambda():
    g = conflict_fixture()
    tol = Tolerances(lam=5.0)
    result = solve_lian2(g, tol)
    assert result.objective == pytest.approx(5.0)
    assert result.objective == pytest.approx(brute_penalized(g, 5.0))
    # both regular nodes chosen, peak p1 consumed twice and flagged
    assert result.reused_peaks == {"p1": 2}
    assert result.epsilons.get("p1", 0.0) == pytest.approx(1.0, abs=1e-6)


def test_lian2_conflict_fixture_large_lambda():
    g = conflict_fixture()
    tol = Tolerances(lam=100.0)
    result = solve_lian2(g, tol)
    assert result.objective == pytest.approx(10.0)
    assert result.objective == pytest.approx(brute_penalized(g, 100.0))
    assert result.reused_peaks == {}
    assert result.epsilons == {}


def test_lian1_matches_exhaustive_on_random_instances(default_tol):
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 15:
        g = random_instance(rng, int(rng.integers(1, 6)), 4, 6)
        want = brute_constrained(g)
        if want is None:
            continue
        result = solve_lian1(g, default_tol)
        check_path(g, result.path.nodes, allow_reuse=False)
        assert result.objective == pytest.approx(want, abs=1e-6)
        assert result.lp_bound <= result.objective + 1e-6
        solved += 1


def test_ilp_matches_exhaustive_on_random_instances(default_tol):
    """Checked until 20 instances have a fractional root, so the search
    explores both kinds of child against the oracles."""
    rng = np.random.default_rng(13)
    branched = 0
    while branched < 20:
        g = random_instance(rng, int(rng.integers(1, 5)), 3, 5)
        want = brute_constrained(g)
        if want is None:
            continue
        result = solve_ilp(g, default_tol)
        assert result.proven_optimal
        assert result.objective == pytest.approx(want, abs=1e-6)
        assert result.objective == pytest.approx(
            exhaustive_constrained(g).total_cost, abs=1e-6
        )
        branched += not result.root_integral


def test_lian2_equals_lian1_without_conflicts(default_tol):
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = random_instance(rng, 4, 3, 1000)  # peaks rarely shared
        lp = formulate(g, "lian1", default_tol)
        if lp.utilization:
            continue
        r1 = solve_lian1(g, default_tol)
        r2 = solve_lian2(g, default_tol)
        assert r2.objective == pytest.approx(r1.objective, abs=1e-9)
        assert r2.path.nodes == r1.path.nodes


def test_round_and_resolve_recovers_optimum(default_tol):
    g = conflict_fixture()
    lp = formulate(g, "lian1", default_tol)
    relaxed = solve_lp(lp)
    assert relaxed.ok and not is_integral(lp, relaxed)
    result = round_and_resolve(g, lp, relaxed)
    assert result.solution is not None and result.proven_optimal
    assert result.solution.objective == pytest.approx(10.0, abs=1e-9)


def test_branch_and_bound_node_limit(default_tol):
    g = conflict_fixture()
    lp = formulate(g, "lian1", default_tol)
    result = branch_and_bound(lp, node_limit=1)
    assert not result.proven_optimal


def _record_bnb(monkeypatch) -> list:
    """(kept mask, cutoff, node limit, result, program) of every later
    margin round, that is every ``branch_and_bound`` call on a restricted
    graph's program: the mask over the full program's columns (its slack
    columns always kept), the round's ``branch_and_bound`` arguments and
    answer, with the answer's values mapped back to the full program's
    columns, and the round's own program."""
    calls, masks = [], []
    restricted, original = AssignmentGraph.restricted, lpmod.branch_and_bound

    def recording_mask(g, keep):
        masks.append(keep)
        return restricted(g, keep)

    def recording(lp, *args, **kwargs):
        result = original(lp, *args, **kwargs)
        if not masks:  # a search that is no margin round
            return result
        kept = np.r_[masks.pop(), np.ones(lp.n_vars - lp.n_edges, dtype=bool)]
        mapped, solution = result, result.solution
        if solution is not None:
            values = np.zeros(len(kept))
            values[kept] = solution.values
            mapped = replace(result, solution=replace(solution, values=values))
        calls.append((kept, kwargs.get("cutoff"), kwargs.get("node_limit"), mapped, lp))
        return result

    monkeypatch.setattr(AssignmentGraph, "restricted", recording_mask)
    monkeypatch.setattr(lpmod, "branch_and_bound", recording)
    return calls


def _conflicted_instances(seed: int):
    """(graph, its lian1 program) of criterion 3's conflicted random
    instances with a conflict-free path, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    while True:
        g = random_instance(rng, int(rng.integers(2, 7)), 4, int(rng.integers(2, 16)))
        lp = formulate(g, "lian1", Tolerances())
        if lp.utilization and brute_constrained(g) is not None:
            yield g, lp


@pytest.mark.parametrize("node_limit", [1, 2, 3])
def test_round_and_resolve_keeps_node_limit(monkeypatch, node_limit):
    """The margin rounds share one node budget: each round gets what the
    rounds before it left, and a budget ``node_limit`` nodes short of what
    the search needs runs out, leaving the answer unproven."""
    calls = _record_bnb(monkeypatch)
    for g, lp in _conflicted_instances(4242):
        relaxed = solve_lp(lp)
        if is_integral(lp, relaxed):
            continue
        calls.clear()
        full = round_and_resolve(g, lp, relaxed)
        if len(calls) >= 3:
            break
    assert full.proven_optimal
    for budget in (NODE_LIMIT, full.nodes_explored - node_limit):
        calls.clear()
        result = round_and_resolve(g, lp, relaxed, node_limit=budget)
        spent = np.cumsum([0] + [r.nodes_explored for _, _, _, r, _ in calls])
        assert [limit for _, _, limit, _, _ in calls] == (budget - spent[:-1]).tolist()
        assert result.nodes_explored == spent[-1] <= budget
    assert not result.proven_optimal and result.nodes_explored == budget


def test_dual_priced_fixing_is_exact(monkeypatch, default_tol):
    """Criterion 3's conflicted instances, for lian1 and for lian2. At the
    root's duals and at random multipliers in [0, lam], each edge's bound is
    at most the objective of every answer through it (for lian1, every
    conflict-free path), and each layer's least bound is the penalized DP
    optimum minus the summed multipliers; at the duals that is the root. No
    search round drops an edge of an answer costing at most its cutoff UB',
    and lian1 matches the brute force."""
    calls = _record_bnb(monkeypatch)
    rng = np.random.default_rng(4242)
    fixed = 0
    for g, _ in itertools.islice(_conflicted_instances(4242), 30):
        assert solve_lian1(g, default_tol).objective == pytest.approx(brute_constrained(g), abs=1e-9)
        incidence = peak_incidence(g)
        paths = list(iter_paths(g))
        lam = float(rng.uniform(0.5, 10.0))
        for tol, soft in ((default_tol, False), (Tolerances(lam=lam), True)):
            lp = formulate(g, "lian2" if soft else "lian1", tol, incidence)
            columns = np.array([
                [_col(lp, g, k, p[k], p[k + 1]) for k in range(g.n + 1)] for p in paths
            ])
            overuse = np.array([path_overuse(g, p) for p in paths])
            objective = np.array([path_cost(g, p) for p in paths])
            objective += lam * overuse if soft else np.where(overuse > 0, math.inf, 0.0)
            relaxed = solve_lp(lp)
            upper = lam if soft else math.inf
            duals = np.clip(relaxed.multipliers, 0.0, upper)
            for mu in (duals, rng.uniform(0.0, min(upper, 10.0), len(incidence[0]))):
                bounds = edge_bounds(g, incidence, mu)
                assert np.all(bounds[columns].max(axis=1) <= objective + 1e-9)
                penalty = node_penalty(g, incidence, mu)
                dp = dp_shortest_path(g, penalty)
                optimum = dp.total_cost + sum(penalty[k][i] for k, i in enumerate(dp.nodes))
                least = np.minimum.reduceat(bounds, lp.edge_offsets[:-1])
                np.testing.assert_allclose(least, optimum - mu.sum(), rtol=1e-12, atol=1e-9)
            at_duals = edge_bounds(g, incidence, duals).min()
            assert at_duals == pytest.approx(relaxed.objective, rel=1e-9, abs=1e-9)
            if is_integral(lp, relaxed):
                continue
            calls.clear()
            round_and_resolve(g, lp, relaxed)
            for keep, cutoff, _, result, _ in calls:  # each round searches only its mask
                if result.solution is not None:
                    assert not result.solution.values[~keep].any()
                assert keep[columns[objective <= cutoff]].all()
            fixed += int(np.count_nonzero(~calls[-1][0]))
    assert fixed > 0


def test_round_and_resolve_is_a_function_of_its_inputs():
    """Each margin round solves a program of its own, so a search does not
    depend on what was solved before it: on the fractional roots of the
    first 30 conflicted instances, a second ``round_and_resolve`` on the
    same graph, program and root answers exactly as the first did."""
    searched = 0
    for g, lp in itertools.islice(_conflicted_instances(4242), 30):
        relaxed = solve_lp(lp)
        if is_integral(lp, relaxed):
            continue
        first, second = (round_and_resolve(g, lp, relaxed) for _ in range(2))
        assert (first.nodes_explored, first.columns_fixed) == (second.nodes_explored, second.columns_fixed)
        assert first.solution.objective == second.solution.objective
        np.testing.assert_array_equal(first.solution.values, second.solution.values)
        searched += 1
    assert searched > 5


def test_round_programs_match_masked_programs(monkeypatch):
    """Every margin round's program, the kept edges only, against the oracle
    ``masked_program``: the full program with the dropped edges' upper
    bounds at 0. At the round's own bounds and at every node's, both agree
    on the status and on the objective within 1e-9 relative, and the
    round's first node, the root's answer, costs what the round's program
    does. For lian1 and for lian2 at a random lambda, on the first 30
    conflicted instances and on the regression dataset."""
    calls = _record_bnb(monkeypatch)
    nodes = []

    def recording(lp, backend=None):
        answer = solve_lp(lp, backend)
        nodes.append((lp, answer))
        return answer

    monkeypatch.setattr(lpmod, "solve_lp", recording)
    rng = np.random.default_rng(5151)
    cases = [g for g, _ in itertools.islice(_conflicted_instances(4242), 30)]
    cases.append(_deletion_graph(REGRESSION_SEQUENCE, 6, 0.2)[0])
    rounds, statuses = Counter(), Counter()
    for g in cases:
        incidence = peak_incidence(g)
        lam = float(rng.uniform(0.5, 10.0))
        for variant, tol in (("lian1", Tolerances()), ("lian2", Tolerances(lam=lam))):
            lp = formulate(g, variant, tol, incidence)
            relaxed = solve_lp(lp)
            if is_integral(lp, relaxed):
                continue
            calls.clear()
            nodes.clear()
            round_and_resolve(g, lp, relaxed, incidence)
            for kept, _, _, result, program in calls:
                columns = np.flatnonzero(kept)
                at_root = replace(program, _highs=[None, None], _csr=[None])
                solved = [(at_root, solve_lp(at_root))]
                solved += [(node, answer) for node, answer in nodes if node.columns is program.columns]
                # the round's own bounds, where the root's answer was its first
                # node, then one solve per later node
                assert len(solved) == result.nodes_explored
                for node, answer in solved:
                    oracle = masked_program(lp, kept[: lp.n_edges])
                    oracle.bounds[columns] = node.bounds
                    want = solve_lp(oracle)
                    assert answer.status == want.status
                    if want.ok:
                        assert answer.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
                    statuses[want.status] += 1
                assert solved[0][1].objective == pytest.approx(relaxed.objective, rel=1e-9)
                rounds[variant] += 1
    assert min(rounds["lian1"], rounds["lian2"]) > 10, rounds
    assert statuses["optimal"] > statuses["infeasible"] > 0, statuses


def test_lian2_with_fixing_matches_penalized_oracle():
    rng = np.random.default_rng(99)
    fixed = 0
    for _ in range(40):
        g = random_instance(rng, int(rng.integers(2, 7)), 4, int(rng.integers(2, 10)))
        lam = float(rng.uniform(1.0, 12.0))
        result = solve_lian2(g, Tolerances(lam=lam))
        assert result.proven_optimal
        assert result.objective == pytest.approx(brute_penalized(g, lam), abs=1e-6)
        fixed += result.columns_fixed
    assert fixed > 0


REGRESSION_SEQUENCE = "NAEVCEPCDEDYSFLFHWCEGYSDVIHCIY"


def _wide_priors() -> PriorTable:
    """The bundled priors with the spins CA/CB sigmas widened to 0.16/0.32."""
    priors = bundled_priors()
    noise = {k: dict(v) for k, v in priors.noise.items()}
    noise["spins"]["CA"], noise["spins"]["CB"] = 0.16, 0.32
    return PriorTable(priors.atoms, noise)


def _deletion_graph(seq: str, seed: int, deletion_rate: float, reference=None):
    """(graph, tolerances, ground truth) of a simulated cisa dataset with
    high noise, as ``assign --delta3 1.4`` with the widened priors builds
    it; the shifts are sampled for the seed unless a reference is given."""
    sequence, wide = ProteinSequence(seq), _wide_priors()
    if reference is None:
        reference = sample_reference(sequence, bundled_priors(), seed)
    spins, truth = simulate_cisa(sequence, reference, seed, "high", deletion_rate)
    tol = Tolerances(delta3=1.4)
    groupings = spins_to_groupings(spins, wide)
    return build_graph(groupings, sequence, wide, tol, spin_observation_counts(wide)), tol, truth


def _layout(g, nodes) -> tuple[Counter, Counter]:
    """The groupings a path assigns and the residue types it leaves null;
    two optima that share both differ only in where they put them."""
    inner = range(1, g.n + 1)
    return (
        Counter(g.node(k, nodes[k]).grouping_id for k in inner if nodes[k]),
        Counter(g.sequence.residue_type(k) for k in inner if not nodes[k]),
    )


#: short sequences over five residue types, so that equal-type windows are
#: common once 35 % of the spin systems are deleted
TIE_SEQUENCES = ("SLKLLLES", "ESLEELAS", "AEALKLALE", "KSKSEAKS", "LESLELALK")


def _tie_graphs():
    """(label, graph, tolerances, conflict-free optimum) of every tiny
    deletion dataset (seeds 0-5, at most 200 000 candidate paths) whose
    optimum puts two fragments on windows with equal residue types."""
    out = []
    for seq in TIE_SEQUENCES:
        for seed in range(6):
            g, tol, _ = _deletion_graph(seq, seed, 0.35)
            try:
                best = exhaustive_constrained(g, budget=200_000)
            except InstanceTooLargeError:
                continue
            windows = [types for types, _ in fragments(g, best.nodes)]
            if len(set(windows)) < len(windows):
                out.append((f"{seq}/{seed}", g, tol, best))
    return out


def _ipm_backend(tmp_path):
    """An external backend solving with HiGHS's interior point method,
    which may return other optima than the bundled dual simplex."""
    path = tmp_path / "ipm_backend.py"
    path.write_text(
        "import numpy as np\n"
        "from scipy.optimize import linprog\n"
        "from nmrassign.lp import LpSolution\n"
        "\n"
        "def solve(lp):\n"
        "    A_eq, b_eq, A_ub, b_ub = lp.matrices()\n"
        "    res = linprog(lp.costs, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,\n"
        "                  b_eq=b_eq, bounds=lp.bounds, method='highs-ipm')\n"
        "    if res.status != 0:\n"
        "        return LpSolution('infeasible', None, None)\n"
        "    return LpSolution('optimal', float(res.fun), np.asarray(res.x))\n"
    )
    return load_backend(path)


def test_solvers_return_the_canonical_optimum(tmp_path):
    """On tiny deletion datasets with equal-type windows, lian1, ilp, lian2
    (at a lambda no peak reuse can pay) and an external backend return
    ``canonical_path`` of the lexicographically smallest conflict-free
    optimum, which is itself a fixed point of the rule, as is dp's path.

    The rule only swaps fragments between windows. Optima that put the
    same groupings and the same null residues in other windows (a fragment
    and a dummy of one residue type trading places, or the first spin
    system, which has no previous-residue shifts, linked behind another
    fragment at no cost) are ties it does not explain; they are listed."""
    backend = _ipm_backend(tmp_path)
    graphs = _tie_graphs()
    moved = 0
    unexplained = []
    for label, g, tol, best in graphs:
        want = canonical_path(g, best.nodes).nodes
        assert want == best.nodes
        dp = dp_shortest_path(g).nodes
        assert canonical_path(g, dp).nodes == dp
        results = {
            "lian1": solve_lian1(g, tol),
            "ilp": solve_ilp(g, tol),
            "lian2": solve_lian2(g, Tolerances(delta3=tol.delta3, lam=1e4)),
            "external": solve_lian1(g, tol, backend=backend),
        }
        for name, result in results.items():
            got = result.path.nodes
            check_path(g, got, allow_reuse=False)
            assert result.proven_optimal and result.reused_peaks == {}
            assert result.objective == pytest.approx(best.total_cost, rel=1e-9)
            assert canonical_path(g, got).nodes == got
            if got == want:
                moved += result.path_canonicalized
            else:
                assert _layout(g, got) == _layout(g, want), (label, name)
                unexplained.append(f"{label} {name}")
    assert len(graphs) == 10
    assert moved > 0  # the rule changed some solver's path
    assert unexplained == [
        "SLKLLLES/0 external",
        "KSKSEAKS/3 lian1",
        "KSKSEAKS/3 ilp",
        "KSKSEAKS/3 lian2",
        "KSKSEAKS/3 external",
    ]


def _swap_equal_windows(g, nodes) -> tuple[int, ...] | None:
    """``nodes`` with its first two distinct fragments on windows of equal
    residue types swapped, or None when it has no such pair."""
    runs: list[list[int]] = []  # [start, end) of each maximal regular run
    for k in range(1, g.n + 1):
        if g.node(k, nodes[k]).kind != REGULAR:
            continue
        if runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    types = g.sequence.residues
    for i, (a, b) in enumerate(runs):
        for c, d in runs[i + 1 :]:
            if types[a - 1 : b - 1] == types[c - 1 : d - 1] and nodes[a:b] != nodes[c:d]:
                swapped = list(nodes)
                swapped[a:b], swapped[c:d] = nodes[c:d], nodes[a:b]
                return tuple(swapped)
    return None


def test_dp_paths_are_fixed_points_of_the_tie_rule():
    """``solve_result`` sends dp's answer through ``canonical_path`` too,
    which must leave it unchanged. Checked on the tiny deletion datasets
    (every sequence, seeds 0-5) and on the spins-deletion instances (ref60,
    20 % deletions, seeds 0-7). The rule is not idle on these graphs: on
    every tie graph it moves the conflict-free optimum with two fragments
    swapped back to that optimum."""
    graphs = [
        _deletion_graph(seq, seed, 0.35)[0] for seq in TIE_SEQUENCES for seed in range(6)
    ]
    ref60 = bundled_reference("ref60")
    graphs += [
        _deletion_graph(ref60.sequence.residues, seed, 0.2, ref60)[0] for seed in range(8)
    ]
    for g in graphs:
        dp = dp_shortest_path(g)
        result = solve_result(g, dp.nodes, "dp", 5.0, lp_bound=dp.total_cost, proven_optimal=True)
        assert result.path == dp and not result.path_canonicalized
    for label, g, _, best in _tie_graphs():
        swapped = _swap_equal_windows(g, best.nodes)
        assert swapped is not None, label
        result = solve_result(g, swapped, "lian1", 5.0, lp_bound=0.0, proven_optimal=True)
        assert result.path.nodes == best.nodes and result.path_canonicalized, label
        assert result.objective == pytest.approx(best.total_cost, rel=1e-9)


def test_lp_answers_report_exact_slacks():
    """A lian2 answer the LP proves reports each reused peak's extra uses
    as its slack, exactly, as a Lagrangian proof does. The spins-deletion
    instance of seed 1 (ref60 shifts) is proved by the LP, and its HiGHS
    slack values are off integers by up to 1e-15."""
    ref60 = bundled_reference("ref60")
    g, tol, _ = _deletion_graph(ref60.sequence.residues, 1, 0.2, ref60)
    result = solve_lian2(g, tol)
    assert result.proved_by == "lp" and result.proven_optimal
    assert len(result.reused_peaks) >= 2
    assert result.epsilons == {p: c - 1.0 for p, c in result.reused_peaks.items()}
    overuse = sum(result.epsilons.values())
    assert result.objective == result.path.total_cost + tol.lam * overuse


def test_root_presolve_does_not_decide_the_answer(monkeypatch):
    """lian1 with the root solved with and without HiGHS presolve returns
    the same path, and objectives within 1e-9, on the regression dataset.
    On the tiny deletion datasets the objectives agree too; the paths
    differ only by ties the rule does not explain, which are listed."""
    cases = [("regression", *_deletion_graph(REGRESSION_SEQUENCE, 6, 0.2)[:2])]
    cases += [(label, g, tol) for label, g, tol, _ in _tie_graphs()]
    off = {label: solve_lian1(g, tol) for label, g, tol in cases}
    linprog = lpmod.linprog  # from here on every cold solve, the root's, presolves
    monkeypatch.setattr(lpmod, "linprog", lambda *args, **kwargs: linprog(
        *args, **kwargs, presolve=True
    ))
    differ = []
    for label, g, tol in cases:
        on = solve_lian1(g, tol)
        assert on.objective == pytest.approx(off[label].objective, rel=1e-9)
        if on.path.nodes != off[label].path.nodes:
            assert _layout(g, on.path.nodes) == _layout(g, off[label].path.nodes), label
            differ.append(label)
    assert not off["regression"].root_integral
    assert differ == ["SLKLLLES/0", "KSKSEAKS/3"]


def test_ilp_search_starts_from_the_root(monkeypatch, default_tol):
    """solve_ilp's first node is the root relaxation already solved: one
    HiGHS call per node, the root's cold without presolve, and every later
    one warm on the root's model."""
    calls = []
    original = lpmod.linprog

    def recording(lp, highs=None, held=None, presolve=False):
        answer = original(lp, highs, held, presolve)
        calls.append((highs, presolve, answer.highs))
        return answer

    monkeypatch.setattr(lpmod, "linprog", recording)
    rng = np.random.default_rng(13)
    branched = 0
    while branched < 5:
        g = random_instance(rng, int(rng.integers(1, 5)), 3, 5)
        if brute_constrained(g) is None:
            continue
        calls.clear()
        result = solve_ilp(g, default_tol)
        assert len(calls) == result.nodes_explored
        (cold, presolve, model), *warm = calls
        assert cold is None and presolve is False and model is not None
        assert all(highs is model for highs, _, _ in warm)
        branched += not result.root_integral


def test_warm_node_solves_match_cold_ones(monkeypatch):
    """Each search node solved warm, on the model of the solve before it,
    is solved cold too on the same bounds, the oracle: the status is the
    same and the objectives agree within 1e-9 relative. On the instances
    of ``LP_ANSWERS`` (lian1 and lian2 without the Lagrangian stage) and on
    the regression dataset (lian1 and ilp)."""
    pairs = []
    original = lpmod.linprog

    def checking(*args, highs=None, **kwargs):
        answer = original(*args, highs=highs, **kwargs)
        if highs is not None:
            pairs.append((answer, original(*args, **kwargs)))
        return answer

    monkeypatch.setattr(lpmod, "linprog", checking)
    monkeypatch.setattr(lpmod, "LAGRANGIAN_ITERATIONS", 0)
    for g, _ in itertools.islice(_conflicted_instances(2024), len(LP_ANSWERS)):
        solve_lian1(g, Tolerances())
        solve_lian2(g, Tolerances(lam=2.0))
    g, tol, _ = _deletion_graph(REGRESSION_SEQUENCE, 6, 0.2)
    solve_lian1(g, tol)
    solve_ilp(g, tol)
    for warm, cold in pairs:
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.fun == pytest.approx(cold.fun, rel=1e-9)
    assert {cold.status for _, cold in pairs} == {"optimal", "infeasible"}


def test_objectives_stay_below_the_true_path():
    """The path that follows each residue's true spin system uses each one
    once, so every lian1 and ilp optimum costs at most it (``truth_cost``,
    within 1e-9 relative). On spins-deletion's instances (ref60, 20 %
    deletions, seeds 0-7; lian1) and on the regression dataset (lian1 and
    ilp); on each the true path is whole in the graph."""
    ref60 = bundled_reference("ref60")
    cases = [(_deletion_graph(ref60.sequence.residues, seed, 0.2, ref60), (solve_lian1,))
             for seed in range(8)]
    cases.append((_deletion_graph(REGRESSION_SEQUENCE, 6, 0.2), (solve_lian1, solve_ilp)))
    for (g, tol, truth), solvers in cases:
        bound = truth_cost(g, truth)
        assert math.isfinite(bound)
        for solve in solvers:
            result = solve(g, tol)
            assert result.proven_optimal
            assert result.objective <= bound + 1e-9 * abs(bound)


#: the status of each of ``scipy.optimize.linprog``'s status codes
SCIPY_STATUS = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical_failure",
}


def _two_columns(costs, data, b_eq, b_ub, upper) -> LinearProgram:
    """A program of one row over two columns with entries ``data``, each
    column in [0, ``upper``]."""
    return LinearProgram(
        variant="flow",
        costs=np.array(costs),
        bounds=np.array([[0.0, upper]] * 2),
        columns=(np.array([0, 1, 2], dtype=np.int32), np.zeros(2, dtype=np.int32), np.array(data)),
        b_eq=np.array(b_eq),
        b_ub=np.array(b_ub),
        edge_offsets=np.array([0, 2]),
    )


def test_linprog_matches_scipy_highs_ds(default_tol):
    """``linprog`` passes HiGHS what ``scipy.optimize.linprog`` passes it for
    ``method="highs-ds"``: under either presolve setting the status and
    iteration count match, and an optimal answer's objective, values and
    utilization duals match bit for bit. ``linprog`` reads a program's
    column arrays, scipy its CSR matrices; scipy's call is only the oracle."""
    from scipy.optimize import linprog as scipy_linprog

    assert set(SCIPY_STATUS.values()) == set(lpmod.STATUSES)
    rng = np.random.default_rng(17)
    programs = []
    for _ in range(12):
        g = random_instance(rng, int(rng.integers(1, 6)), 4, int(rng.integers(2, 9)))
        programs += [formulate(g, variant, default_tol) for variant in ("flow", "lian1", "lian2")]
    assert programs[0].A_ub is None  # a flow program has no inequality rows
    programs += [
        # x0 + x1 == 3 within the unit box: infeasible
        _two_columns([1.0, 1.0], [1.0, 1.0], [3.0], [], 1.0),
        # minimize -x0 subject to x0 <= x1, both unbounded above: unbounded
        _two_columns([-1.0, 0.0], [1.0, -1.0], [], [0.0], np.inf),
    ]
    statuses = Counter()
    for lp in programs:
        for presolve in (False, True):
            ours = lpmod.linprog(lp, presolve=presolve)
            theirs = scipy_linprog(
                lp.costs, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
                bounds=lp.bounds, options={"presolve": presolve}, method="highs-ds",
            )
            assert (ours.status, ours.nit) == (SCIPY_STATUS[theirs.status], theirs.nit)
            statuses[ours.status] += 1
            if theirs.status == 0:
                assert np.float64(ours.fun).tobytes() == np.float64(theirs.fun).tobytes()
                assert ours.x.tobytes() == theirs.x.tobytes()
                assert ours.marginals.tobytes() == theirs.ineqlin.marginals.tobytes()
    # every random program is feasible and bounded; the last two are not
    assert statuses == {"optimal": 2 * len(programs) - 4, "infeasible": 2, "unbounded": 2}


def test_fractional_root_deletion_regression(tmp_path, capsys):
    """A 30-residue cisa dataset with high noise, 20 % deletions and the
    spins CA/CB sigmas widened to 0.16/0.32 has a fractional root LP: lian1
    fixes columns, proves its answer optimal, matches the ilp objective,
    and the lian1 assign takes under 10 s (about 0.5 s on a 2-vCPU VM)."""
    seq = REGRESSION_SEQUENCE
    write_priors(_wide_priors(), tmp_path / "priors.json")
    assert cli_main([
        "simulate", "--sequence", seq, "--protocol", "cisa", "--noise", "high",
        "--deletion-rate", "0.2", "--seed", "6", "--out", str(tmp_path),
    ]) == 0
    reports = {}
    for variant in ("lian1", "ilp"):
        out = tmp_path / variant
        t0 = time.monotonic()
        assert cli_main([
            "assign", "--sequence", seq, "--dataset", str(tmp_path / "spins.tsv"),
            "--priors", str(tmp_path / "priors.json"), "--delta3", "1.4",
            "--variant", variant, "--out", str(out),
        ]) == 0
        if variant == "lian1":
            assert time.monotonic() - t0 < 10.0
        reports[variant] = json.loads((out / "lp_report.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    lian1, ilp = reports["lian1"], reports["ilp"]
    assert not lian1["root_integral"] and lian1["proven_optimal"]
    assert lian1["columns_fixed"] > 0
    assert ilp["proven_optimal"] and ilp["columns_fixed"] == 0
    assert lian1["objective"] == pytest.approx(ilp["objective"], rel=1e-9)
    assert isinstance(lian1["path_canonicalized"], bool)


def test_external_backend(tmp_path, default_tol):
    backend_file = tmp_path / "backend.py"
    backend_file.write_text(
        "import numpy as np\n"
        "from scipy.optimize import linprog\n"
        "from nmrassign.lp import LpSolution\n"
        "\n"
        "def solve(lp):\n"
        "    A_eq, b_eq, A_ub, b_ub = lp.matrices()\n"
        "    res = linprog(lp.costs, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,\n"
        "                  b_eq=b_eq, bounds=lp.bounds, method='highs')\n"
        "    if res.status != 0:\n"
        "        return LpSolution('infeasible', None, None)\n"
        "    return LpSolution('optimal', float(res.fun), np.asarray(res.x))\n"
    )
    backend = load_backend(backend_file)
    g = conflict_fixture()
    result = solve_lian1(g, default_tol, backend=backend)
    assert result.objective == pytest.approx(10.0)

    # without duals the search prices every node at mu = 0, and the answer
    # stays exact
    checked = 0
    for g, _ in _conflicted_instances(4242):
        bundled = solve_lian1(g, default_tol)
        if bundled.root_integral is not False:
            continue
        external = solve_lian1(g, default_tol, backend=backend)
        assert external.proven_optimal and external.root_integral is False
        assert external.objective == pytest.approx(bundled.objective, abs=1e-9)
        checked += 1
        if checked == 5:
            break

    # an answer the search cannot use names the backend instead of failing later
    for k, (answer, message) in enumerate((
        ("None", "returned NoneType, not an LpSolution"),
        ("LpSolution('optimal', 10.0, np.zeros(3))", "lacks a finite objective or 8 values"),
        ("LpSolution('optimal', None, np.zeros(lp.n_vars))", "lacks a finite objective"),
        ("LpSolution('optimal', np.nan, np.zeros(lp.n_vars))", "lacks a finite objective"),
        ("LpSolution('solved', 10.0, np.zeros(lp.n_vars))", "unknown status 'solved'"),
        ("LpSolution('optimal', 10.0, np.zeros(lp.n_vars), np.zeros(2))",
         "returned multipliers other than 1 finite numbers"),
        ("LpSolution('optimal', 10.0, np.zeros(lp.n_vars), np.full(1, np.nan))",
         "returned multipliers other than 1 finite numbers"),
        ("LpSolution('optimal', 10.0, np.r_[np.nan, np.zeros(lp.n_vars - 1)])",
         "optimal answer has a value that is not finite"),
        ("LpSolution('optimal', 10.0, np.r_[np.zeros(lp.n_vars - 1), 2.0])",
         "optimal answer puts column 7 outside its bounds"),
        # the first selection row, below the one utilization row, gets no flow
        ("LpSolution('optimal', 10.0, np.zeros(lp.n_vars))", "optimal answer misses row 1 by 1"),
    )):
        answering = tmp_path / f"answer{k}.py"
        answering.write_text(
            "import numpy as np\n"
            "from nmrassign.lp import LpSolution\n"
            f"def solve(lp):\n    return {answer}\n"
        )
        with pytest.raises(SolverError, match=rf"^backend lp_backend_answer{k}\.solve.*{message}"):
            solve_ilp(conflict_fixture(), default_tol, backend=load_backend(answering))

    bad = tmp_path / "bad.py"
    bad.write_text("x = 1\n")
    with pytest.raises(SolverError):
        load_backend(bad)
    # solve must take the program alone
    old = tmp_path / "old.py"
    old.write_text("def solve(lp, bounds):\n    return None\n")
    with pytest.raises(SolverError, match=r"solve\(lp\) -> LpSolution"):
        load_backend(old)


def test_extract_path_requires_values(default_tol):
    g = _dummies_only([0.0, 1.0])
    lp = formulate(g, "flow", default_tol)
    with pytest.raises(SolverError):
        extract_path(g, lp, LpSolution("infeasible", None, None))



def test_peak_incidence_matches_usage(default_tol):
    """A peak is contested when two or more inner nodes consume it and one
    of them has an out-edge. Each grouping row lists the contested peaks it
    consumes in ascending order, the final row (row -1) is empty, and
    utilization row r of the LP holds exactly the out-edges of the nodes
    whose usage contains peak r."""
    rng = np.random.default_rng(61)
    graphs = [random_instance(rng, int(rng.integers(1, 7)), 4, int(rng.integers(2, 16)))
              for _ in range(40)]
    # node 2 of layer 2 consumes p1 and p2 but has no out-edge; p2 has no
    # other consumer, and p3's consumers have no out-edge at all
    edges = [{(0, 0): 0.0, (0, 1): 0.0}, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, {(0, 0): 1.0}]
    usage = [{}, {1: {"p1"}}, {1: {"p3"}, 2: {"p1", "p2"}, 3: {"p3"}}, {}]
    handmade = make_graph([2, 4], edges, usage)
    assert peak_incidence(handmade)[0] == ["p1"]
    # no grouping at all, and groupings whose peaks no other node consumes
    uncontested = make_graph([2, 2], [{(0, 0): 0.0, (0, 1): 0.0}, {(0, 0): 1.0, (1, 1): 0.0},
                                      {(0, 0): 1.0, (1, 0): 0.0}])
    graphs += [handmade, _dummies_only([0.0, 1.0, 2.0]), uncontested]
    for g in graphs:
        peaks, indptr, indices = peak_incidence(g)
        consumers: dict[str, list[tuple[int, int]]] = {}
        for k in range(1, g.n + 1):
            for i in range(len(g.layers[k])):
                for pid in node_peaks(g, k, i):
                    consumers.setdefault(pid, []).append((k, i))
        want = sorted(
            pid for pid, nodes in consumers.items()
            if len(nodes) >= 2 and any((g.edges[k].src == i).any() for k, i in nodes)
        )
        assert peaks == want
        assert len(indptr) == len(g.groupings) + 2 and indptr[-2] == indptr[-1] == len(indices)
        for r in range(len(g.groupings)):
            row = indices[indptr[r]:indptr[r + 1]]
            assert [peaks[c] for c in row] == sorted(set(want) & set(g.groupings.member_ids(r)))
        lp = formulate(g, "lian1", default_tol)
        assert lp.utilization == peaks
        # the oracle reads each edge's source node's usage, not the incidence
        oracle = np.zeros((len(peaks), lp.n_vars))
        for k, layer in enumerate(g.edges):
            for e, i in enumerate(layer.src.tolist()):
                for r, pid in enumerate(lp.utilization):
                    oracle[r, lp.edge_offsets[k] + e] = pid in node_peaks(g, k, i)
        got = oracle[:0] if lp.A_ub is None else lp.A_ub.toarray()
        assert got.shape == oracle.shape and (got == oracle).all()
    assert [len(peak_incidence(g)[0]) for g in graphs[-2:]] == [0, 0]


def test_lagrangian_proofs_match_oracles():
    """200 criterion-3-style random instances: every path the Lagrangian
    stage proves is an optimum of the hard program (brute_constrained) and
    of the soft one at lambda 0.5 and 5 (brute_penalized), its bound never
    exceeds the optimum, and the solvers return proofs as such."""
    rng = np.random.default_rng(3131)
    proofs = Counter()
    for _ in range(200):
        g = random_instance(rng, int(rng.integers(2, 7)), 4, int(rng.integers(2, 16)))
        incidence = peak_incidence(g)
        hard = brute_constrained(g)
        stage = lagrangian_stage(g, incidence)
        if hard is not None:
            assert stage.bound <= hard + 1e-9 * max(1.0, abs(hard))
        if stage.nodes is not None:
            check_path(g, stage.nodes, allow_reuse=False)
            assert path_cost(g, stage.nodes) == pytest.approx(hard, rel=1e-9, abs=1e-9)
            result = solve_lian1(g, Tolerances())
            assert result.proved_by == "lagrangian" and result.proven_optimal
            assert result.root_integral is None and result.nodes_explored == 0
            assert result.objective == pytest.approx(hard, rel=1e-9, abs=1e-9)
            proofs["lian1"] += 1
        for lam in (0.5, 5.0):
            soft = brute_penalized(g, lam)
            stage = lagrangian_stage(g, incidence, lam)
            assert stage.bound <= soft + 1e-9 * max(1.0, abs(soft))
            if stage.nodes is None:
                continue
            got = path_cost(g, stage.nodes) + lam * path_overuse(g, stage.nodes)
            assert got == pytest.approx(soft, rel=1e-9, abs=1e-9)
            result = solve_lian2(g, Tolerances(lam=lam))
            assert result.proved_by == "lagrangian"
            assert result.objective == pytest.approx(soft, rel=1e-9, abs=1e-9)
            assert result.epsilons == {p: c - 1.0 for p, c in result.reused_peaks.items()}
            proofs[lam] += 1
    assert min(proofs["lian1"], proofs[0.5], proofs[5.0]) > 0, proofs


#: lagrangian_stage's (nodes, bound.hex(), iterations) for the hard variant,
#: lambda 0.5 and lambda 5 on the first 20 instances of ``default_rng(1616)``
LAGRANGIAN_PINS = [
    [(None, "-0x1.ce28309f4c503p-2", 15),
     (None, "-0x1.ce28309f4c503p-2", 15),
     (None, "-0x1.ce28309f4c503p-2", 15)],
    [(None, "0x1.7e892a6086a16p+2", 15),
     ((0, 1, 1, 1, 0, 0), "0x1.41ea1198d0be4p+2", 7),
     (None, "0x1.7e892a6086a16p+2", 15)],
    [(None, "-0x1.df88884627389p+3", 15),
     ((0, 2, 2, 2, 1, 1, 0), "-0x1.f89b17bb882a8p+3", 9),
     (None, "-0x1.df88884627389p+3", 15)],
    [(None, "0x1.37e01b56dd796p-3", 15),
     (None, "0x1.37e01b56dd796p-3", 15),
     (None, "0x1.37e01b56dd796p-3", 15)],
    [(None, "-0x1.56268b13bbfe4p+1", 15),
     ((0, 3, 1, 0), "-0x1.85ff056728136p+1", 9),
     (None, "-0x1.56268b13bbfe4p+1", 15)],
    [(None, "0x1.21ee6acec6fbfp+3", 15),
     (None, "0x1.11ed4b1fcb72ap+3", 15),
     (None, "0x1.21ee6acec6fbfp+3", 15)],
    [(None, "-0x1.6db25a09fdadap+2", 15),
     (None, "-0x1.6db25a09fdadap+2", 15),
     (None, "-0x1.6db25a09fdadap+2", 15)],
    [(None, "-0x1.582acde6ead0ep+2", 15),
     (None, "-0x1.582acde6ead0ep+2", 15),
     (None, "-0x1.582acde6ead0ep+2", 15)],
    [(None, "-0x1.6d97109768df2p+3", 15),
     (None, "-0x1.72dd9cf97525ep+3", 15),
     (None, "-0x1.6d97109768df2p+3", 15)],
    [(None, "-0x1.550e6a6cf6995p+3", 15),
     (None, "-0x1.550e6a6cf6995p+3", 15),
     (None, "-0x1.550e6a6cf6995p+3", 15)],
    [(None, "0x1.ecf6b15866dcep+0", 15),
     (None, "0x1.ecf6b15866dcep+0", 15),
     (None, "0x1.ecf6b15866dcep+0", 15)],
    [((0, 1, 2, 0), "-0x1.97a227c731674p+1", 1),
     ((0, 1, 2, 0), "-0x1.97a227c731674p+1", 1),
     ((0, 1, 2, 0), "-0x1.97a227c731674p+1", 1)],
    [(None, "-0x1.2a0c4a0540af7p+3", 15),
     (None, "-0x1.2a0c4a0540af7p+3", 15),
     (None, "-0x1.2a0c4a0540af7p+3", 15)],
    [(None, "-0x1.2bbefa8ead686p-4", 15),
     (None, "-0x1.2bbefa8ead686p-4", 15),
     (None, "-0x1.2bbefa8ead686p-4", 15)],
    [((0, 1, 1, 1, 0), "-0x1.caa45199ab776p+2", 15),
     ((0, 2, 3, 2, 0), "-0x1.ee2e46d50e03ap+2", 8),
     ((0, 1, 1, 1, 0), "-0x1.caa45199ab776p+2", 15)],
    [(None, "-0x1.8e0c62bf3ca12p+0", 15),
     (None, "-0x1.8e0c62bf3ca12p+0", 15),
     (None, "-0x1.8e0c62bf3ca12p+0", 15)],
    [(None, "-0x1.01e0f5001b808p+2", 15),
     ((0, 2, 1, 0), "-0x1.362d3e7683376p+2", 6),
     (None, "-0x1.01e0f5001b808p+2", 15)],
    [(None, "-0x1.7f0ebf3516934p+0", 15),
     (None, "-0x1.7f0ebf3516934p+0", 15),
     (None, "-0x1.7f0ebf3516934p+0", 15)],
    [((0, 1, 1, 0), "-0x1.b1b5614a61cc8p-1", 1),
     ((0, 1, 1, 0), "-0x1.b1b5614a61cc8p-1", 1),
     ((0, 1, 1, 0), "-0x1.b1b5614a61cc8p-1", 1)],
    [(None, "-0x1.edde921d5284cp+1", 15),
     (None, "-0x1.edde921d5284cp+1", 15),
     (None, "-0x1.edde921d5284cp+1", 15)],
]


def test_lagrangian_stage_is_pinned_bit_for_bit():
    """The stage's paths, bounds and iteration counts do not move, not even
    in a bound's last bit, which summation order alone could change."""
    rng = np.random.default_rng(1616)
    for want in LAGRANGIAN_PINS:
        g = random_instance(rng, int(rng.integers(2, 7)), 4, int(rng.integers(2, 16)))
        incidence = peak_incidence(g)
        stages = [lagrangian_stage(g, incidence, lam) for lam in (math.inf, 0.5, 5.0)]
        assert [(s.nodes, s.bound.hex(), s.iterations) for s in stages] == want


#: lian1 and lian2 (lambda 2) answers on the first 8 conflicted random
#: instances of ``default_rng(2024)``, as the LP pipeline returned them before
#: the Lagrangian stage existed: nodes, objective, lp_bound, reused peaks,
#: epsilons, root_integral; then the search's nodes_explored and
#: columns_fixed, as the dual-priced search after a fractional root counts
#: them with each margin round solved warm on a program of its kept edges,
#: its first node the root's answer
LP_ANSWERS = [
    [((0, 1, 3, 4, 3, 0), -5.280578771732348, -6.2843406964628965, {}, {}, False, 27, 37),
     ((0, 2, 3, 4, 3, 0), -6.566205382135065, -7.105377041003454, {"p0": 2, "p3": 2},
      {"p0": 1.0, "p3": 1.0}, False, 28, 43)],
    [((0, 1, 1, 0, 0, 0), 21.588305602931204, 21.588305602931204, {}, {}, True, 1, 0),
     ((0, 1, 0, 1, 1, 0), 7.829709003793738, 7.829709003793738, {"p6": 3}, {"p6": 2.0},
      True, 1, 0)],
    [((0, 1, 0, 1, 1, 3, 2, 0), 1.6149760535547877, 1.6149760535547877, {}, {}, True, 1, 0),
     ((0, 1, 0, 1, 1, 2, 2, 0), 0.0930991550688276, 0.0930991550688276, {"p2": 2},
      {"p2": 1.0}, True, 1, 0)],
    [((0, 2, 2, 0), -5.076504234129074, -5.076504234129074, {}, {}, True, 1, 0),
     ((0, 2, 2, 0), -5.076504234129074, -5.076504234129074, {}, {}, True, 1, 0)],
    [((0, 4, 3, 3, 0), 2.097544798682195, -3.209024937274992, {}, {}, False, 48, 16),
     ((0, 3, 4, 4, 0), -7.333776325415068, -8.591276272631795, {"p0": 2, "p3": 2},
      {"p0": 1.0, "p3": 1.0}, False, 33, 37)],
    [((0, 2, 2, 0, 0), -0.5065125284559944, -2.195267041955036, {}, {}, False, 33, 22),
     ((0, 1, 4, 1, 0), -1.884021555454079, -2.195267041955036, {"p5": 2}, {"p5": 1.0},
      False, 27, 27)],
    [((0, 0, 1, 2, 0, 0, 1, 0), 16.985342013751577, 14.41559599662858, {}, {}, False, 39, 19),
     ((0, 1, 1, 2, 0, 3, 1, 0), 3.403980858023851, 3.403980858023851, {"p1": 2, "p5": 3},
      {"p1": 1.0, "p5": 2.0}, True, 1, 0)],
    [((0, 1, 1, 2, 0, 0, 0, 0), 23.629646403161317, 19.745705425680754, {}, {}, False, 27, 21),
     ((0, 2, 1, 2, 0, 0, 2, 0), 17.412845333513054, 17.412845333513054, {"p6": 2},
      {"p6": 1.0}, True, 1, 0)],
]


def test_without_lagrangian_iterations_the_lp_answers(monkeypatch):
    """With no stage iterations, lian1 and lian2 give the LP pipeline's
    answers field by field, and no DP runs."""
    monkeypatch.setattr(lpmod, "LAGRANGIAN_ITERATIONS", 0)
    monkeypatch.setattr(lpmod, "dp_shortest_path", None)
    answers = []
    for g, _ in itertools.islice(_conflicted_instances(2024), len(LP_ANSWERS)):
        pair = []
        for result in (solve_lian1(g, Tolerances()), solve_lian2(g, Tolerances(lam=2.0))):
            assert result.proven_optimal and not result.path_canonicalized
            assert result.proved_by == "lp" and result.lagrangian_iterations == 0
            assert result.contested_peaks == len(formulate(g, "lian1", Tolerances()).utilization)
            pair.append((
                result.path.nodes, result.objective, result.lp_bound, result.reused_peaks,
                result.epsilons, result.root_integral, result.nodes_explored,
                result.columns_fixed,
            ))
        answers.append(pair)
    for got, want in zip(answers, LP_ANSWERS):
        for (nodes, obj, bound, *rest), (w_nodes, w_obj, w_bound, *w_rest) in zip(got, want):
            assert nodes == w_nodes
            assert obj == pytest.approx(w_obj, rel=1e-9)
            assert bound == pytest.approx(w_bound, rel=1e-9)
            assert rest == w_rest


def test_ilp_never_runs_the_lagrangian_stage(monkeypatch, default_tol):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ilp ran the Lagrangian stage")

    monkeypatch.setattr(lpmod, "lagrangian_stage", refuse)
    rng = np.random.default_rng(5)
    for g in [conflict_fixture(), *(random_instance(rng, 3, 3, 1000) for _ in range(5))]:
        result = solve_ilp(g, default_tol)
        assert result.proved_by == "lp" and result.lagrangian_iterations == 0
        assert result.objective == pytest.approx(brute_constrained(g), abs=1e-6)


def test_no_contested_peak_is_proven_in_one_iteration(default_tol):
    """Without contested peaks the first DP path is optimal for every
    variant but ilp, and no LP is built."""
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 5:
        g = random_instance(rng, 4, 3, 1000)  # peaks rarely shared
        if peak_incidence(g)[0]:
            continue
        dp = dp_shortest_path(g)
        for result in (solve_lian1(g, default_tol), solve_lian2(g, default_tol)):
            assert result.proved_by == "lagrangian" and result.lagrangian_iterations == 1
            assert result.contested_peaks == 0 and result.root_integral is None
            assert result.nodes_explored == result.columns_fixed == 0
            assert result.lp_bound == result.objective == dp.total_cost
            assert result.path == canonical_path(g, dp.nodes)
        checked += 1
