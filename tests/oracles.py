"""Independent oracles used by the test suite.

The scalar references of the cost model (``moments``, ``closed_form_cost``
and ``typing_threshold``) merge observations one at a time with the
library's ``costmodel.Moments`` and price them with its ``marginal_cost``;
the batched ``costmodel.merged`` and ``costmodel.typing_thresholds`` must
equal them bit for bit. Everything else is implemented without reusing the
library's own machinery: quadrature instead of the closed form, explicit
enumeration instead of dynamic programming or branch and bound, a node's
peaks read from the graph's grouping table, the simulator's true path
priced edge by edge (``truth_cost``), which bounds every optimum from above,
a margin round's program written as ``formulate`` over the graph
restricted to the round's kept edges (``round_program``), and a program's
constraint matrices built by scipy from its column arrays as README's
external backend recipe builds them (``scipy_matrices``).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.integrate import quad

from nmrassign import grouping
from nmrassign.costmodel import Moments, marginal_cost
from nmrassign.domain import (
    NmrAssignError,
    NonPositiveSigmaError,
    Peak,
    Prior,
    PriorTable,
    ProteinSequence,
    Tolerances,
)
from nmrassign.experiments import candidate_roles, canonical_name
from nmrassign.graph import AssignmentGraph, EdgeLayer
from nmrassign.grouping import GroupingTable
from nmrassign.lp import LinearProgram, formulate
from nmrassign.shortest_path import NoPathError, PathSolution, path_solution
from nmrassign.simulate import GroundTruth

#: (value, sigma) pair
ObsPair = tuple[float, float]


def moments(observations: Iterable[ObsPair]) -> Moments:
    """Moments of (value, sigma) observations."""
    out = Moments(0.0, 0.0, 0.0, 0.0, 0.0)
    for x, sigma in observations:
        if not sigma > 0:
            raise NonPositiveSigmaError(f"observation sigma must be positive, got {sigma}")
        var = sigma * sigma
        out = out.merge(Moments(1.0, 1.0 / var, x, 0.0, math.log(var)))
    return out


def closed_form_cost(prior: Prior, observations: Sequence[ObsPair]) -> float:
    """Closed-form atom cost for a Gaussian prior and noisy observations:
    the prior's moments merged with the observations', priced by
    ``marginal_cost``. With no observations the marginal is the empty
    product, so the cost is 0."""
    return float(marginal_cost(moments([(prior.mean, prior.std)]).merge(moments(observations))))


def typing_threshold(
    prior: Prior, o_a: int, noises: Sequence[float], delta: float
) -> float:
    """Maximum plausible atom cost: the cost of an adversarial realization.

    The adversarial observations sit about ``delta`` prior standard
    deviations from the prior mean, alternating ``delta`` experimental
    standard deviations to either side.
    """
    if o_a < 0:
        raise ValueError("o_a must be non-negative")
    if o_a == 0:
        return 0.0
    if len(noises) != o_a:
        raise ValueError(f"expected {o_a} noise values, got {len(noises)}")
    observations = [
        (prior.mean + delta * prior.std + (-1) ** l * delta * sigma_l, sigma_l)
        for l, sigma_l in enumerate(noises)
    ]
    return closed_form_cost(prior, observations)


def quadrature_atom_cost(
    mu_a: float, sigma_a: float, observations: Sequence[tuple[float, float]]
) -> float:
    """Numerical integration of the marginal observation density."""

    def log_f(mu: float) -> float:
        lf = -0.5 * ((mu - mu_a) / sigma_a) ** 2 - math.log(
            sigma_a * math.sqrt(2 * math.pi)
        )
        for x, s in observations:
            lf += -0.5 * ((x - mu) / s) ** 2 - math.log(s * math.sqrt(2 * math.pi))
        return lf

    precision = 1 / sigma_a**2 + sum(1 / s**2 for _, s in observations)
    variance = 1 / precision
    center = (
        mu_a / sigma_a**2 + sum(x / s**2 for x, s in observations)
    ) * variance
    width = math.sqrt(variance)
    shift = log_f(center)
    z, _ = quad(
        lambda mu: math.exp(log_f(mu) - shift),
        center - 40 * width,
        center + 40 * width,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=300,
    )
    return -(math.log(z) + shift)


# ---------------------------------------------------------------------------
# handcrafted and random graphs


def edge_layer(edges: Mapping[tuple[int, int], float], n_src: int) -> EdgeLayer:
    """An EdgeLayer from a mapping (i, j) -> cost, given in any order, out of
    ``n_src`` source nodes."""
    keys = sorted(edges)
    counts = np.bincount(np.array([i for i, _ in keys], dtype=np.int64), minlength=n_src)
    return EdgeLayer(
        np.array([j for _, j in keys], dtype=np.int64),
        np.array([edges[key] for key in keys], dtype=float),
        np.cumsum(np.r_[0, counts]),
    )


def edge_map(layer: EdgeLayer) -> dict[tuple[int, int], float]:
    """The layer's edges as a mapping (i, j) -> cost, read from its src, dst
    and cost arrays."""
    return dict(zip(zip(layer.src.tolist(), layer.dst.tolist()), layer.cost.tolist()))


def edge_cost(layer: EdgeLayer, i: int, j: int) -> float:
    """Cost of edge (i, j), found by scanning the layer's src and dst
    arrays; fails unless the layer holds that edge exactly once."""
    [e] = np.flatnonzero((layer.src == i) & (layer.dst == j))
    return float(layer.cost[e])


def make_graph(
    inner_sizes: Sequence[int],
    edges: Sequence[Mapping[tuple[int, int], float]],
    usage: Sequence[Mapping[int, set]] | None = None,
    thresholds: Sequence[float] | None = None,
    sequence: str | None = None,
) -> AssignmentGraph:
    """Assemble an AssignmentGraph directly from layer sizes and cost maps.

    ``inner_sizes[k-1]`` counts the nodes of inner layer k including its
    dummy at index 0. A regular node consumes the peaks ``usage[k][i]``;
    one absent from ``usage`` consumes the pseudo-peak ``n{k}_{i}``, which
    no other node uses.
    """
    n = len(inner_sizes)
    seq = ProteinSequence(sequence or "A" * n)
    if usage is None:
        usage = [dict() for _ in range(n + 2)]
    # every regular node carries a grouping of its own, in layer order;
    # the start, each dummy (node 0) and the end carry none
    rows = []
    grouping_rows = [np.full(1, -1)]
    for k, size in enumerate(inner_sizes, start=1):
        grouping_rows.append(np.arange(len(rows) - 1, len(rows) + size - 1))
        grouping_rows[-1][0] = -1
        for i in range(1, size):
            rows.append((f"n{k}_{i}", usage[k].get(i, {f"n{k}_{i}"}), {}))
    grouping_rows.append(np.full(1, -1))
    return AssignmentGraph(
        seq,
        [edge_layer(e, len(grouping_rows[k])) for k, e in enumerate(edges)],
        list(thresholds) if thresholds is not None else [0.0] * (n + 1),
        GroupingTable.from_rows(rows),
        grouping_rows,
    )


def conflict_fixture() -> AssignmentGraph:
    """Two inner layers; the only regular node of each consumes peak p1."""
    edges = [
        {(0, 0): 0.0, (0, 1): 0.0},
        {(0, 0): 10.0, (0, 1): 10.0, (1, 0): 0.0, (1, 1): 0.0},
        {(0, 0): 10.0, (1, 0): 0.0},
    ]
    usage = [{}, {1: {"p1"}}, {1: {"p1"}}, {}]
    return make_graph([2, 2], edges, usage, thresholds=[0.0, 10.0, 10.0])


def triangle_fixture() -> AssignmentGraph:
    """Three inner layers whose regular nodes a, b and c each share a peak
    with both others: a and b share pab, b and c pbc, a and c pac. Entering
    a dummy costs 10 and entering a regular node 0. A path that reuses no
    peak holds one regular node at most, so lian1's optimum is 20, on three
    tied paths. The relaxation sends half the flow through a, b and c and
    half through the dummies, at 15, and no other node flow is optimal:
    the utilization rows cap the summed flow through a, b and c at 1.5,
    reached only at 0.5 each, and each unit of it saves 10. So every
    optimal vertex is fractional, whichever one a solver returns."""
    def enter(n_src: int) -> dict[tuple[int, int], float]:
        return {(i, j): 0.0 if j else 10.0 for i in range(n_src) for j in range(2)}

    edges = [enter(1), enter(2), enter(2), {(0, 0): 0.0, (1, 0): 0.0}]
    usage = [{}, {1: {"pab", "pac"}}, {1: {"pab", "pbc"}}, {1: {"pbc", "pac"}}, {}]
    return make_graph([2, 2, 2], edges, usage, thresholds=[0.0, 10.0, 10.0, 10.0])


def random_instance(rng, n: int, g_max: int, m2: int) -> AssignmentGraph:
    """Random layered graph with dummy wiring and random peak consumption."""
    inner_sizes = [int(rng.integers(1, g_max + 1)) + 1 for _ in range(n)]
    thresholds = [0.0] + [float(rng.uniform(5.0, 15.0)) for _ in range(n)]
    edges: list[dict[tuple[int, int], float]] = []
    edges.append({(0, j): 0.0 for j in range(inner_sizes[0])})
    for k in range(1, n + 1):
        out_size = inner_sizes[k] if k < n else 1
        layer_edges: dict[tuple[int, int], float] = {}
        for i in range(inner_sizes[k - 1]):
            for j in range(out_size):
                if i == 0:
                    layer_edges[(i, j)] = thresholds[k]
                elif j == 0 or rng.random() < 0.7:
                    layer_edges[(i, j)] = float(rng.uniform(-5.0, 5.0))
        edges.append(layer_edges)
    usage: list[dict[int, set]] = [dict() for _ in range(n + 2)]
    for k in range(1, n + 1):
        for i in range(1, inner_sizes[k - 1]):
            count = int(rng.integers(1, 4))
            peaks = rng.choice(m2, size=min(count, m2), replace=False)
            usage[k][i] = {f"p{int(p)}" for p in peaks}
    return make_graph(inner_sizes, edges, usage, thresholds)


# ---------------------------------------------------------------------------
# path enumeration


def iter_paths(g: AssignmentGraph) -> Iterator[tuple[int, ...]]:
    n = g.n

    def extend(k: int, node: int, trail: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if k == n + 1:
            yield trail
            return
        for src, j in sorted(edge_map(g.edges[k])):
            if src == node:
                yield from extend(k + 1, j, trail + (j,))

    yield from extend(0, 0, (0,))


def path_cost(g: AssignmentGraph, nodes: Sequence[int]) -> float:
    return sum(edge_cost(g.edges[k], nodes[k], nodes[k + 1]) for k in range(g.n + 1))


def truth_cost(g: AssignmentGraph, truth: GroundTruth) -> float:
    """Cost of the path that follows each residue's true spin system, or
    its layer's dummy where the residue has none; inf when the graph lacks
    one of its nodes (typing pruned it) or edges (the link or the threshold
    cut it). That path uses each spin system once, so every conflict-free
    optimum costs at most this."""
    nodes = [0]
    for k in range(1, g.n + 1):
        system = truth.residue_to_id.get(k)
        rows = g.grouping_rows[k].tolist()
        found = [
            i for i, row in enumerate(rows)
            if (g.groupings.ids[row] == system if row >= 0 else system is None)
        ]
        if not found:
            return math.inf
        nodes.append(found[0])
    nodes.append(0)
    return sum(
        edge_map(layer).get((nodes[k], nodes[k + 1]), math.inf) for k, layer in enumerate(g.edges)
    )


def masked_program(lp: LinearProgram, kept: np.ndarray) -> LinearProgram:
    """``lp`` with the upper bounds of the edge columns where ``kept`` (one
    flag per edge column) is False at 0, and no fold, so no HiGHS model, of
    its own yet: a margin round's program, folded at its first solve."""
    bounds = lp.bounds.copy()
    bounds[: lp.n_edges][~kept, 1] = 0.0
    return replace(lp, bounds=bounds, _fold=[None])


def restricted(g: AssignmentGraph, keep: np.ndarray) -> AssignmentGraph:
    """The graph with only the edges where ``keep`` (one flag per edge,
    layer after layer) is True. Its nodes stay as they are, so node
    indices mean the same in both, and each layer keeps its edges' order."""
    edges, start = [], 0
    for layer in g.edges:
        mask = keep[start : start + len(layer)]
        start += len(layer)
        indptr = np.zeros_like(layer.indptr)
        np.cumsum(np.bincount(layer.src[mask], minlength=len(indptr) - 1), out=indptr[1:])
        edges.append(EdgeLayer(layer.dst[mask], layer.cost[mask], indptr))
    return replace(g, edges=edges)


def round_program(g: AssignmentGraph, lp: LinearProgram, kept: np.ndarray, incidence) -> LinearProgram:
    """A margin round's program over its kept edges alone: ``formulate``
    over ``restricted(g, kept)`` (``kept`` one flag per edge column of
    ``lp``) with ``lp``'s variant, slack cost and utilization rows
    (``incidence``, ``lp``'s ``peak_incidence``). Its columns are ``lp``'s
    kept edge columns in order, then ``lp``'s slack columns; its rows are
    ``lp``'s."""
    slack = lp.costs[lp.n_edges :]
    tol = Tolerances(lam=float(slack[0])) if len(slack) else Tolerances()
    return formulate(restricted(g, kept), lp.variant, tol, incidence)


def scipy_matrices(lp: LinearProgram):
    """(A_eq, b_eq, A_ub, b_ub) of ``lp``, the matrices as scipy CSR
    matrices built from ``lp.columns`` as README's external backend recipe
    builds them: ``A_ub`` is the first ``len(lp.b_ub)`` rows (none for a
    flow program), ``A_eq`` the rest."""
    from scipy import sparse

    A = sparse.csc_matrix(lp.columns[::-1], shape=(lp.n_rows, lp.n_vars)).tocsr()
    A_ub, A_eq = A[: len(lp.b_ub)], A[len(lp.b_ub) :]
    return A_eq, lp.b_eq, A_ub, lp.b_ub


def node_peaks(g: AssignmentGraph, layer: int, index: int) -> frozenset[str]:
    """Peak ids a node consumes, read from the graph's grouping table: its
    grouping's members; none for the start, a dummy or the end."""
    row = int(g.grouping_rows[layer][index])
    return frozenset(g.groupings.member_ids(row) if row >= 0 else ())


def path_overuse(g: AssignmentGraph, nodes: Sequence[int]) -> int:
    counts: dict[str, int] = {}
    for k in range(1, g.n + 1):
        for pid in node_peaks(g, k, nodes[k]):
            counts[pid] = counts.get(pid, 0) + 1
    return sum(max(0, c - 1) for c in counts.values())


def fragments(g: AssignmentGraph, nodes: Sequence[int]) -> list[tuple[str, tuple[int, ...]]]:
    """(residue types of its window, its nodes) for each maximal run of
    regular nodes on a path, in path order."""
    out: list[tuple[str, tuple[int, ...]]] = []
    types, run = "", ()
    for k in range(1, g.n + 2):
        if k <= g.n and g.grouping_rows[k][nodes[k]] >= 0:
            types, run = types + g.sequence.residue_type(k), run + (nodes[k],)
        elif run:
            out.append((types, run))
            types, run = "", ()
    return out


def brute_shortest(g: AssignmentGraph) -> float:
    return min(path_cost(g, p) for p in iter_paths(g))


def brute_constrained(g: AssignmentGraph) -> float | None:
    feasible = [
        path_cost(g, p) for p in iter_paths(g) if path_overuse(g, p) == 0
    ]
    return min(feasible) if feasible else None


def brute_penalized(g: AssignmentGraph, lam: float) -> float:
    return min(path_cost(g, p) + lam * path_overuse(g, p) for p in iter_paths(g))


class InstanceTooLargeError(NmrAssignError):
    """Exhaustive enumeration would exceed the path budget."""


def exhaustive_constrained(g: AssignmentGraph, budget: int = 1_000_000) -> PathSolution:
    """Cheapest path that never consumes the same peak twice.

    Raises InstanceTooLargeError when the number of candidate paths exceeds
    ``budget``, and NoPathError when no conflict-free path exists. Ties are
    broken towards the lexicographically smallest node sequence.
    """
    paths = 1
    for rows in g.grouping_rows[1:-1]:
        paths *= len(rows)
        if paths > budget:
            raise InstanceTooLargeError(
                f"more than {budget} candidate paths; refusing exhaustive search"
            )

    n = g.n
    best_nodes: tuple[int, ...] | None = None
    best_cost = math.inf

    def extend(k: int, node: int, cost: float, used: frozenset[str], trail: tuple[int, ...]) -> None:
        nonlocal best_nodes, best_cost
        if k == n + 1:
            if cost < best_cost - 1e-12 or (
                math.isclose(cost, best_cost, rel_tol=0.0, abs_tol=1e-12)
                and (best_nodes is None or trail < best_nodes)
            ):
                best_nodes, best_cost = trail, cost
            return
        layer = g.edges[k]
        out = layer.out(node)
        for j, edge_cost in zip(layer.dst[out].tolist(), layer.cost[out].tolist()):
            peaks = node_peaks(g, k + 1, j) if k + 1 <= n else frozenset()
            if used & peaks:
                continue
            extend(k + 1, j, cost + edge_cost, used | peaks, trail + (j,))

    extend(0, 0, 0.0, frozenset(), (0,))
    if best_nodes is None:
        raise NoPathError("no conflict-free start-to-end path exists")
    return path_solution(g, best_nodes)


def check_path(g: AssignmentGraph, nodes: Sequence[int], allow_reuse: bool) -> None:
    """Independent feasibility check of a returned path."""
    assert len(nodes) == g.n + 2
    assert nodes[0] == 0 and nodes[-1] == 0
    for k in range(g.n + 1):
        assert (nodes[k], nodes[k + 1]) in edge_map(g.edges[k]), f"missing edge at layer {k}"
    if not allow_reuse:
        assert path_overuse(g, nodes) == 0, "path reuses a peak"


# ---------------------------------------------------------------------------
# grouping brute force


def _role_assignable(
    peaks: Sequence[Peak],
    pattern: Mapping[str, int],
    tol: Tolerances,
) -> bool:
    counts: dict[str, int] = {}
    for p in peaks:
        spectrum = canonical_name(p.spectrum_id)
        if spectrum not in pattern:
            return False
        counts[spectrum] = counts.get(spectrum, 0) + 1
        if counts[spectrum] > pattern[spectrum]:
            return False
    carbon_peaks = [p for p in peaks if p.coord("C") is not None]

    def assign(idx: int, used: set, values: dict) -> bool:
        if idx == len(carbon_peaks):
            return True
        p = carbon_peaks[idx]
        spectrum = canonical_name(p.spectrum_id)
        c = p.coord("C")
        for role in candidate_roles(spectrum, p.phase):
            if (spectrum, role) in used:
                continue
            if any(abs(c - v) > tol.delta3 for v in values.get(role, ())):
                continue
            used.add((spectrum, role))
            values.setdefault(role, []).append(c)
            if assign(idx + 1, used, values):
                used.remove((spectrum, role))
                values[role].pop()
                return True
            used.remove((spectrum, role))
            values[role].pop()
        return False

    return assign(0, set(), {})


def brute_force_groupings(
    peaks: Sequence[Peak], pattern: Mapping[str, int], tol: Tolerances
) -> set[frozenset[str]]:
    """Every non-empty subset satisfying all grouping invariants."""
    out: set[frozenset[str]] = set()
    for r in range(1, len(peaks) + 1):
        for subset in itertools.combinations(peaks, r):
            ok = True
            for a, b in itertools.combinations(subset, 2):
                for label, window in (("H", tol.delta1), ("N", tol.delta2)):
                    x, y = a.coord(label), b.coord(label)
                    if x is not None and y is not None and abs(x - y) > window:
                        ok = False
            if ok and _role_assignable(subset, pattern, tol):
                out.add(frozenset(p.peak_id for p in subset))
    return out


def any_scan_role_search(
    members: Sequence[Peak],
    pattern: Mapping[str, int],
    tol: Tolerances,
    skip_always: bool,
    visits: Iterator[int],
) -> list[tuple[frozenset[str], tuple[tuple[str, str | None], ...]]]:
    """``grouping._role_search`` as a stateless recursion: each branch copies
    its per-spectrum counts and its chosen carbons, and a role is refused by
    scanning every carbon chosen so far. Same results, in the same order,
    drawing one step from ``visits`` per visit, against the same
    ``grouping.EXPANSION_BUDGET``."""
    sites = [
        (p.peak_id, canonical_name(p.spectrum_id), p.coord("C"), candidate_roles(p.spectrum_id, p.phase))
        for p in members
    ]
    results = []

    def visit(t, chosen, counts, carbons):
        if next(visits) > grouping.EXPANSION_BUDGET:
            raise grouping.ComponentTooLargeError("grouping expansion budget exhausted")
        if t == len(sites):
            if chosen:
                results.append((frozenset(pid for pid, _ in chosen), chosen))
            return
        pid, spectrum, carbon, roles = sites[t]
        taken = counts.get(spectrum, 0)
        options: list[str | None] = []
        if taken < pattern[spectrum]:
            options = [None] if carbon is None else [
                role
                for role in roles
                if not any(
                    r == role and (s == spectrum or abs(carbon - v) > tol.delta3)
                    for s, r, v in carbons
                )
            ]
        if skip_always or not options:
            visit(t + 1, chosen, counts, carbons)
        for role in options:
            visit(
                t + 1,
                chosen + ((pid, role),),
                {**counts, spectrum: taken + 1},
                carbons if role is None else carbons + ((spectrum, role, carbon),),
            )

    visit(0, (), {}, ())
    return results


# ---------------------------------------------------------------------------
# per-clique grouping enumeration


def connected_components(neighbours: Sequence[frozenset[int]]) -> list[list[int]]:
    """Each component's vertex indices, ascending, in order of its first,
    by depth-first search over each vertex's neighbours."""
    seen: set[int] = set()
    components = []
    for start in range(len(neighbours)):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in neighbours[v] - seen:
                seen.add(w)
                stack.append(w)
        components.append(sorted(comp))
    return components


def per_clique_groupings(
    compat: grouping.CompatibilityGraph,
    expected_pattern: Mapping[str, int],
    top_k: int,
    priors: PriorTable,
    tol: Tolerances,
) -> GroupingTable:
    """``grouping.enumerate_groupings`` with ``top_k`` set, one clique at a
    time: every component's maximal cliques by Bron-Kerbosch (complete ones
    too, and the components by depth-first search), each clique's anchor
    orders by its own distance matrix, and the table assembled one grouping
    row at a time. It shares the role search
    (checked by ``any_scan_role_search``) and Bron-Kerbosch (checked by
    subset enumeration) with the library, and must give the same table,
    array for array."""
    pattern = {canonical_name(name): count for name, count in expected_pattern.items()}
    peaks = compat.peaks
    sites = [
        (i, canonical_name(p.spectrum_id), p.coord("C"), candidate_roles(p.spectrum_id, p.phase))
        for i, p in enumerate(peaks)
    ]
    amide = np.array([(p.coord("H"), p.coord("N")) for p in peaks], dtype=float).reshape(-1, 2)
    neighbours = [frozenset(np.flatnonzero(row).tolist()) for row in compat.adjacency]
    windows = np.array([tol.delta1, tol.delta2])
    assignments: dict = {}
    for comp in connected_components(neighbours):
        if len(comp) > grouping.COMPONENT_BUDGET:
            raise grouping.ComponentTooLargeError(f"component with {len(comp)} peaks")
        visits = itertools.count(1)
        for clique in grouping._maximal_cliques(comp, neighbours)[:top_k]:
            members = sorted(
                (sites[i] for i in clique if sites[i][1] in pattern), key=lambda s: (s[1], s[0])
            )
            # one search per anchor: the peaks without a carbon, or else all
            rows = amide[[s[0] for s in members]]
            anchors = [a for a, s in enumerate(members) if s[2] is None] or list(range(len(members)))
            distance = np.nansum(np.abs(rows - rows[anchors, None]) / windows, axis=2)
            role_maps: dict = {}
            for order in np.argsort(distance, axis=1, kind="stable").tolist():
                ordered = [members[i] for i in order]
                for member_set, role_map in grouping._role_search(ordered, pattern, tol, False, visits):
                    role_maps.setdefault(member_set, set()).add(role_map)
            maximal: list = []
            for s in sorted(role_maps, key=lambda s: (-len(s), sorted(s))):
                if not any(s < kept for kept in maximal):
                    maximal.append(s)
            for s in sorted(maximal, key=sorted):
                by_peak = sorted(role_maps[s], key=lambda rm: [(i, role or "") for i, role in rm])
                for role_map in by_peak:
                    assignments[s, role_map] = None

    # one row per assignment, by member list and then by role names
    keyed = []
    for member_set, role_map in assignments:
        members = sorted(member_set)
        carbons = sorted(item for item in role_map if item[1] is not None)
        roles = {role for _, role in carbons}
        if any(not math.isnan(amide[i, 0]) for i in members):
            roles.add("HN")
        if any(not math.isnan(amide[i, 1]) for i in members):
            roles.add("N")
        keyed.append((members, sorted(roles), carbons))
    keyed.sort(key=lambda item: item[:2])
    columns = list(grouping._COLUMNS)
    observed = []  # (row, name rank of the role, peak, column, value) per observation
    for r, (members, _, carbons) in enumerate(keyed):
        for i in members:
            for role, value in (("HN", amide[i, 0]), ("N", amide[i, 1])):
                if not math.isnan(value):
                    observed.append((r, role, i, columns.index(role), float(value)))
        for i, role in carbons:
            observed.append((r, role, i, columns.index(role), sites[i][2]))
    observed.sort(key=lambda o: o[:3])
    return GroupingTable(
        [f"g{idx:05d}" for idx in range(len(keyed))],
        [p.peak_id for p in peaks],
        np.cumsum([0, *(len(m) for m, _, _ in keyed)]),
        np.array([i for m, _, _ in keyed for i in m], dtype=np.int64),
        np.array([o[0] for o in observed], dtype=np.int64),
        np.array([o[3] for o in observed], dtype=np.int64),
        np.array([o[4] for o in observed], dtype=float),
        np.array([priors.noise_for(sites[o[2]][1], o[1]) for o in observed], dtype=float),
        np.array([o[2] for o in observed], dtype=np.int64),
    )
