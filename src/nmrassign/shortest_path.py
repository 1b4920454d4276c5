"""Shortest paths through the layered assignment graph.

``dp_shortest_path`` is the unconstrained dynamic program; it ignores peak
reuse and serves as the baseline solver and as a cross-check for the LP
relaxation. An optional per-node penalty turns it into the bound of the
Lagrangian stage in ``lp``, which prices each node at the multipliers of
the contested peaks it consumes. Both uses share one tie rule: the
lexicographically smallest path among the optima. ``dp_edge_bounds`` shares
its backward sweep and adds a forward one: it prices the cheapest penalized
path through every edge, which is how ``lp.round_and_resolve`` drops edges
after a fractional root.

``path_solution`` is the one pricer: it reads each edge's cost through
``EdgeLayer.index`` and returns None for a node sequence that is not a
path. ``solve_result`` builds every solver's answer from its path,
whichever stage proved it: ``canonical_path`` checks and prices the path
once and counts its reused peaks, and that one count fixes the objective
and, for the soft variant ``lian2``, each peak's slack (its extra uses).
``canonical_path`` is the one tie rule every answer goes through. A fragment
is a maximal run of regular nodes on a path. Its cost depends only on the
residue types of its window (the layers it spans): the edge into it
belongs to the start or to a dummy, whose cost does not depend on the
target, the edge out of it to a dummy or the end charges typing alone,
and layers of one residue type index the same groupings. Fragments of
windows with equal residue-type strings therefore swap at equal cost and
equal peak use. The rule gives each such group's sorted fragments to its
windows in position order, which yields the lexicographically smallest
path among those swaps. The lexicographically smallest optimum, as
``dp_shortest_path`` returns it, is a fixed point of the rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .domain import NmrAssignError
from .graph import AssignmentGraph


class NoPathError(NmrAssignError):
    """The graph admits no start-to-end path."""


@dataclass(frozen=True)
class PathSolution:
    """A start-to-end path: one node index per layer, plus its cost."""

    nodes: tuple[int, ...]
    total_cost: float
    edge_costs: tuple[float, ...]
    #: ``canonical_path`` replaced the solver's nodes by these
    canonicalized: bool = False
    #: peak id -> times the path consumes it, for peaks consumed twice or
    #: more, as ``canonical_path`` counted them; None where nobody counted
    reused_peaks: dict[str, int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.edge_costs) != len(self.nodes) - 1:
            raise NmrAssignError("edge_costs length must be len(nodes) - 1")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one constrained-assignment solve."""

    path: PathSolution
    objective: float
    lp_bound: float
    #: peak id -> times consumed along the path, for peaks consumed twice+
    reused_peaks: dict[str, int]
    #: peak id -> extra uses along the path, for reused peaks (soft variant
    #: only); the slack of the peak's utilization row
    epsilons: dict[str, float]
    proven_optimal: bool
    variant: str
    #: the root relaxation was integral, so no branch and bound ran; None
    #: when no root relaxation was solved
    root_integral: bool | None = None
    #: branch-and-bound nodes over every search round; an integral root
    #: counts as one node, an answer without an LP as none
    nodes_explored: int = 0
    #: edge columns the dual-priced bound dropped from the deciding search
    #: round (``lp.round_and_resolve``)
    columns_fixed: int = 0
    #: the stage whose bound proved the answer: "lagrangian" or "lp" ("dp"
    #: for the unconstrained shortest path); None when nothing proved it
    proved_by: str | None = None
    #: DP passes of the Lagrangian stage, and its multipliers (one per
    #: contested peak, which is one per utilization row)
    lagrangian_iterations: int = 0
    contested_peaks: int = 0
    #: search nodes whose LP came back neither optimal nor infeasible
    #: (``lp.BnbResult.unsolved``); left out of ``lp_report.json``
    unsolved_nodes: int = 0

    @property
    def path_canonicalized(self) -> bool:
        """The tie rule replaced the solver's path by another optimum."""
        return self.path.canonicalized


def path_solution(
    g: AssignmentGraph, nodes: Sequence[int], canonicalized: bool = False
) -> PathSolution | None:
    """A path of node indices, priced edge by edge in layer order; None when
    ``nodes`` is not a start-to-end path of ``g``."""
    if len(nodes) != len(g.edges) + 1:
        return None
    edge_costs = []
    for k, layer in enumerate(g.edges):
        e = layer.index(nodes[k], nodes[k + 1])
        if e is None:
            return None
        edge_costs.append(float(layer.cost[e]))
    return PathSolution(tuple(nodes), sum(edge_costs), tuple(edge_costs), canonicalized)


def canonical_path(g: AssignmentGraph, nodes: Sequence[int]) -> PathSolution:
    """The path, priced and with its reused peaks counted, with its
    fragments sorted within equal residue-type windows.

    The fragments (maximal runs of regular nodes) are grouped by the
    residue types of their windows; within a group, the sorted fragments
    go to the windows in position order. The candidate replaces ``nodes``
    only when it is a path, its cost is within 1e-9 relative of theirs,
    and it reuses the same peaks. Graphs from ``build_graph`` always pass;
    hand-made graphs whose costs ignore the residue types need not.
    Raises NoPathError when ``nodes`` is not a path.
    """
    given = path_solution(g, nodes)
    if given is None:
        raise NoPathError(f"{tuple(nodes)} is not a start-to-end path")
    nodes = given.nodes
    types = g.sequence.residues
    # residue-type string -> (window starts, fragments), in position order
    groups: dict[str, tuple[list[int], list[tuple[int, ...]]]] = {}
    k = 1
    while k <= g.n:
        end = k
        while end <= g.n and g.grouping_rows[end][nodes[end]] >= 0:
            end += 1
        if end > k:
            starts, fragments = groups.setdefault(types[k - 1 : end - 1], ([], []))
            starts.append(k)
            fragments.append(nodes[k:end])
        k = end + 1
    sorted_nodes = list(nodes)
    for starts, fragments in groups.values():
        for start, fragment in zip(starts, sorted(fragments)):
            sorted_nodes[start : start + len(fragment)] = fragment
    reused = g.path_reused_peaks(nodes)
    candidate = None
    if tuple(sorted_nodes) != nodes:
        candidate = path_solution(g, sorted_nodes, canonicalized=True)
    qualifies = (
        candidate is not None
        and math.isclose(candidate.total_cost, given.total_cost, rel_tol=1e-9, abs_tol=1e-12)
        and g.path_reused_peaks(candidate.nodes) == reused
    )
    return replace(candidate if qualifies else given, reused_peaks=reused)


def solve_result(
    g: AssignmentGraph, nodes: Sequence[int], variant: str, lam: float, **stats
) -> SolveResult:
    """The answer on ``canonical_path(g, nodes)``, priced as ``variant``
    prices it: ``lian2`` adds ``lam`` per extra use of a peak, and its
    ``epsilons`` are the extra uses. ``stats`` fill the remaining fields."""
    path = canonical_path(g, nodes)
    reused = path.reused_peaks
    soft = variant == "lian2"
    overuse = sum(c - 1 for c in reused.values())
    return SolveResult(
        path=path,
        objective=path.total_cost + (lam * overuse if soft else 0.0),
        reused_peaks=reused,
        epsilons={pid: c - 1.0 for pid, c in reused.items()} if soft else {},
        variant=variant,
        **stats,
    )


def _backward(
    g: AssignmentGraph, penalty: Sequence[np.ndarray] | None
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """The backward sweep of the DP: ``reach[k][i]``, the cheapest
    (penalized) path from node i of layer k to the end without node i's own
    penalty; ``value[k][i]``, with it; and ``tails[k][e]``, edge e's cost
    plus ``value`` at its target."""
    n = g.n
    reach = [np.full(len(rows), math.inf) for rows in g.grouping_rows]
    reach[n + 1][0] = 0.0
    value = list(reach)
    tails = [np.zeros(0)] * (n + 1)
    for k in range(n, -1, -1):
        layer = g.edges[k]
        tails[k] = layer.cost + value[k + 1][layer.dst]
        # out-edges are contiguous per source node; nodes without any stay inf
        starts = layer.indptr[:-1]
        has_out = starts < layer.indptr[1:]
        reach[k][has_out] = np.minimum.reduceat(tails[k], starts[has_out])
        if penalty is not None:
            value[k] = reach[k] + penalty[k]
    return reach, value, tails


def dp_shortest_path(
    g: AssignmentGraph, penalty: Sequence[np.ndarray] | None = None
) -> PathSolution:
    """Unconstrained shortest path by backward dynamic programming.

    ``penalty[k][i]``, when given, is added to the cost of every edge
    leaving node i of layer k while the path is chosen; the returned path
    is priced at the graph's own costs. The ``lp`` module's Lagrangian
    stage prices contested peaks this way. Ties are broken towards the
    lexicographically smallest node index sequence, chosen during the
    forward reconstruction, so the result is deterministic.
    """
    reach, value, tails = _backward(g, penalty)
    if value[0][0] == math.inf:
        raise NoPathError("no start-to-end path exists")

    nodes, edge_costs = [0], []
    for k, layer in enumerate(g.edges):
        i = nodes[-1]
        out = layer.out(i)
        # the minimum is one of these sums, so some edge always matches it
        e = out.start + np.flatnonzero(np.abs(tails[k][out] - reach[k][i]) <= 1e-9)[0]
        nodes.append(int(layer.dst[e]))
        edge_costs.append(float(layer.cost[e]))
    return PathSolution(tuple(nodes), sum(edge_costs), tuple(edge_costs))


def dp_edge_bounds(g: AssignmentGraph, penalty: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The cost of the cheapest penalized start-to-end path through each
    edge, layer by layer in ``g.edges`` order (inf where no path passes).

    ``penalty`` is priced as in ``dp_shortest_path``, whose backward sweep
    this shares; one forward sweep adds the cheapest penalized way into each
    edge's source. Each layer's minimum is the penalized optimum.
    """
    _, value, tails = _backward(g, penalty)
    # arrive[i]: the cheapest penalized path from the start into node i of
    # the current layer, with node i's own penalty
    arrive = np.array([penalty[0][0]])
    bounds = []
    for k, layer in enumerate(g.edges):
        into = arrive[layer.src]
        bounds.append(into + tails[k])
        arrive = np.full(len(g.grouping_rows[k + 1]), math.inf)
        np.minimum.at(arrive, layer.dst, into + layer.cost)
        arrive += penalty[k + 1]
    return bounds
