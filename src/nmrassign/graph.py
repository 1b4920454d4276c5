"""Layered assignment graph construction.

The graph has n+2 layers: a start layer, one layer per residue, and an end
layer. Each inner layer holds one dummy node (null assignment) plus one
regular node per peak grouping that is statistically consistent with the
residue's priors. Edges run only between consecutive layers.

Sequential walking: a regular node of layer k links to a regular node of
layer k+1 only when every intra-residue carbon value of the source is within
delta3 of every previous-residue value of the same carbon in the target. For
each of CA, CB and CO this is a range test over the two sides' values,
src_max - dst_min <= delta3 and dst_max - src_min <= delta3, so each layer
checks all its pairs at once; a side that does not observe the carbon
passes. Linked pairs above the residue's threshold are dropped too.

Cost attribution: the edge leaving layer k charges the atoms of residue k,
whose observations come from the source node's intra-residue roles plus the
target node's previous-residue roles. Edges leaving a dummy node charge the
residue's summed typing threshold instead. Edges out of the start node
charge nothing. Summing edge costs along any start-to-end path therefore
prices every residue exactly once.
"""
from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costmodel import atom_cost, typing_threshold
from .domain import (
    NmrAssignError,
    PriorTable,
    ProteinSequence,
    Tolerances,
    base_role,
    is_prev,
)
from .grouping import PeakGrouping

START, END, DUMMY, REGULAR = "start", "end", "dummy", "regular"

CARBON_ROLES = ("CA", "CB", "CO")

#: role -> (expected observation count, noise sigma), used for thresholds
ExpectedCounts = Mapping[str, tuple[int, float]]


@dataclass(frozen=True)
class AssignmentNode:
    layer: int
    index: int
    kind: str
    grouping: PeakGrouping | None = None

    @property
    def grouping_id(self) -> str | None:
        return self.grouping.grouping_id if self.grouping is not None else None


class EdgeLayer(Mapping):
    """The edges between layers k and k+1, as a mapping (i, j) -> cost.

    Stored as arrays ``src``, ``dst`` and ``cost`` sorted by (src, dst),
    plus ``indptr``: the out-edges of source node i are the positions
    ``out(i)``, and iteration yields the keys in that order.
    """

    def __init__(self, edges: Mapping[tuple[int, int], float], n_src: int) -> None:
        keys = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        self.src = keys[order, 0]
        self.dst = keys[order, 1]
        self.cost = np.fromiter(edges.values(), dtype=float, count=len(keys))[order]
        self.indptr = np.searchsorted(self.src, np.arange(n_src + 1))

    def out(self, i: int) -> slice:
        """Positions of source node i's out-edges, in increasing dst."""
        return slice(int(self.indptr[i]), int(self.indptr[i + 1]))

    def index(self, i: int, j: int) -> int | None:
        """Position of edge (i, j), or None when the layer lacks it."""
        if not 0 <= i < len(self.indptr) - 1:
            return None
        e = self.out(i)
        pos = e.start + int(np.searchsorted(self.dst[e], j))
        return pos if pos < e.stop and self.dst[pos] == j else None

    def __getitem__(self, key: tuple[int, int]) -> float:
        pos = self.index(*key)
        if pos is None:
            raise KeyError(key)
        return float(self.cost[pos])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.src.tolist(), self.dst.tolist())

    def __len__(self) -> int:
        return len(self.src)


@dataclass
class AssignmentGraph:
    sequence: ProteinSequence
    layers: list[list[AssignmentNode]]
    #: edges[k] holds the edges between layers k and k+1
    edges: list[EdgeLayer]
    #: summed typing threshold per residue (index 0 unused)
    thresholds: list[float]

    @property
    def n(self) -> int:
        return len(self.layers) - 2

    def node(self, layer: int, index: int) -> AssignmentNode:
        return self.layers[layer][index]

    def edge_cost(self, k: int, i: int, j: int) -> float:
        return self.edges[k][(i, j)]

    def usage(self, layer: int, index: int) -> frozenset[str]:
        """Peak ids a node consumes: its grouping's members; none otherwise."""
        grouping = self.layers[layer][index].grouping
        return grouping.member_peaks if grouping is not None else frozenset()

    def path_cost(self, nodes: Sequence[int]) -> float:
        """Recompute a path's cost by summing its edges in layer order."""
        if len(nodes) != self.n + 2:
            raise NmrAssignError("path length does not match layer count")
        total = 0.0
        for k in range(self.n + 1):
            key = (nodes[k], nodes[k + 1])
            if key not in self.edges[k]:
                raise NmrAssignError(f"path uses missing edge {key} at layer {k}")
            total += self.edges[k][key]
        return total

    def path_usage_counts(self, nodes: Sequence[int]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for k in range(1, self.n + 1):
            for pid in self.usage(k, nodes[k]):
                counts[pid] = counts.get(pid, 0) + 1
        return counts


def _observations(grouping: PeakGrouping, prev: bool) -> dict[str, list[tuple[float, float]]]:
    """Base-role observations from a grouping's intra or prev roles."""
    out: dict[str, list[tuple[float, float]]] = {}
    for role, obs in grouping.consensus.items():
        if is_prev(role) != prev:
            continue
        out.setdefault(base_role(role), []).extend((o.value, o.sigma) for o in obs)
    return out


def node_typing_cost(
    grouping: PeakGrouping, residue_type: str, priors: PriorTable, tol: Tolerances
) -> tuple[dict[str, float], float] | None:
    """(per-role costs, threshold) of a grouping against one residue's priors.

    Roles are the grouping's intra-residue base roles in sorted order; the
    grouping is typed as the residue when the costs sum to at most the
    threshold. Returns None when the grouping observes an atom the residue
    does not have, which makes the assignment impossible.
    """
    role_costs: dict[str, float] = {}
    threshold = 0.0
    for role, obs in sorted(_observations(grouping, prev=False).items()):
        prior = priors.prior(residue_type, role)
        if prior is None:
            return None
        role_costs[role] = atom_cost(prior, obs).cost
        threshold += typing_threshold(prior, len(obs), [sigma for _, sigma in obs], tol.delta)
    return role_costs, threshold


def _typed(
    groupings: Sequence[PeakGrouping],
    residue_type: str,
    priors: PriorTable,
    tol: Tolerances,
) -> list[tuple[PeakGrouping, dict[str, float]]]:
    """Groupings typed as the residue, each with its per-role costs."""
    kept = []
    for g in groupings:
        scored = node_typing_cost(g, residue_type, priors, tol)
        if scored is not None and sum(scored[0].values()) <= scored[1]:
            kept.append((g, scored[0]))
    return kept


def prune_by_typing(
    groupings: Sequence[PeakGrouping],
    residue_type: str,
    priors: PriorTable,
    tol: Tolerances,
) -> list[PeakGrouping]:
    """Groupings statistically consistent with the residue (ties retained)."""
    return [g for g, _ in _typed(groupings, residue_type, priors, tol)]


def residue_threshold(
    residue_type: str, priors: PriorTable, tol: Tolerances, expected: ExpectedCounts
) -> float:
    """Summed per-atom typing threshold for a null assignment."""
    total = 0.0
    for role in sorted(expected):
        prior = priors.prior(residue_type, role)
        if prior is None:
            continue
        count, sigma = expected[role]
        total += typing_threshold(prior, count, [sigma] * count, tol.delta)
    return total


def _carbon_ranges(
    observations: Sequence[Mapping[str, list[tuple[float, float]]]],
) -> tuple[np.ndarray, np.ndarray]:
    """(lowest, highest) value per node and carbon role, each of shape
    (nodes, roles); an unobserved role is (+inf, -inf)."""
    lo = np.full((len(observations), len(CARBON_ROLES)), np.inf)
    hi = -lo
    for a, obs in enumerate(observations):
        for r, role in enumerate(CARBON_ROLES):
            values = [x for x, _ in obs.get(role, ())]
            if values:
                lo[a, r], hi[a, r] = min(values), max(values)
    return lo, hi


def _residue_cost(
    src_intra: Mapping[str, list[tuple[float, float]]],
    dst_prev: Mapping[str, list[tuple[float, float]]],
    role_costs: Mapping[str, float],
    residue_type: str,
    priors: PriorTable,
) -> float | None:
    """Residue cost charged by a regular source: its intra roles, each pooled
    with the target's prev roles of the same atom (none for the dummy or the
    end). None when the target observes an atom the residue does not have."""
    cost = 0.0
    for role in sorted(set(src_intra) | set(dst_prev)):
        prior = priors.prior(residue_type, role)
        if prior is None:
            return None
        if role in dst_prev:
            cost += atom_cost(prior, src_intra.get(role, []) + dst_prev[role]).cost
        else:
            cost += role_costs[role]
    return cost


def build_graph(
    groupings: Sequence[PeakGrouping],
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    expected: ExpectedCounts,
) -> AssignmentGraph:
    n = len(seq)
    thresholds = [0.0] * (n + 1)
    for k in range(1, n + 1):
        thresholds[k] = residue_threshold(seq.residue_type(k), priors, tol, expected)

    # cache per-grouping observation maps and per-residue-type typing outcomes
    intra = {g.grouping_id: _observations(g, prev=False) for g in groupings}
    prev = {g.grouping_id: _observations(g, prev=True) for g in groupings}
    typed: dict[str, list[tuple[PeakGrouping, dict[str, float]]]] = {}

    layers: list[list[AssignmentNode]] = [[AssignmentNode(0, 0, START)]]
    for k in range(1, n + 1):
        residue_type = seq.residue_type(k)
        if residue_type not in typed:
            typed[residue_type] = _typed(groupings, residue_type, priors, tol)
        regular = [
            AssignmentNode(k, i, REGULAR, g) for i, (g, _) in enumerate(typed[residue_type], 1)
        ]
        layers.append([AssignmentNode(k, 0, DUMMY), *regular])
    layers.append([AssignmentNode(n + 1, 0, END)])

    # start edges charge nothing: residue costs begin at the edge leaving layer 1
    edges = [EdgeLayer({(0, node.index): 0.0 for node in layers[1]}, 1)]
    for k in range(1, n + 1):
        residue_type = seq.residue_type(k)
        role_costs = [costs for _, costs in typed[residue_type]]
        src_intra = [intra[node.grouping_id] for node in layers[k][1:]]
        dst_prev = [prev[node.grouping_id] for node in layers[k + 1][1:]]
        # a dummy source leaves the target's prev roles unexplained and prices
        # the residue at its threshold; a regular source reaching the dummy
        # (or the end) pays its typing costs alone
        layer_edges = {(0, j): thresholds[k] for j in range(len(layers[k + 1]))}
        for a, obs in enumerate(src_intra):
            layer_edges[(a + 1, 0)] = _residue_cost(obs, {}, role_costs[a], residue_type, priors)
        # sequential walking: every pair of shared-carbon values within delta3
        src_lo, src_hi = _carbon_ranges(src_intra)
        dst_lo, dst_hi = _carbon_ranges(dst_prev)
        linked = (
            (src_hi[:, None] - dst_lo <= tol.delta3) & (dst_hi - src_lo[:, None] <= tol.delta3)
        ).all(axis=2)
        for a, b in np.argwhere(linked).tolist():
            cost = _residue_cost(src_intra[a], dst_prev[b], role_costs[a], residue_type, priors)
            # above the threshold the pair is implausible; the dummy route is cheaper
            if cost is not None and cost <= thresholds[k]:
                layer_edges[(a + 1, b + 1)] = cost
        edges.append(EdgeLayer(layer_edges, len(layers[k])))

    return AssignmentGraph(seq, layers, edges, thresholds)


def graph_stats(g: AssignmentGraph) -> dict:
    layer_sizes = [len(layer) for layer in g.layers]
    edge_counts = [len(layer_edges) for layer_edges in g.edges]
    possible = [layer_sizes[k] * layer_sizes[k + 1] for k in range(len(g.edges))]
    return {
        "layer_sizes": layer_sizes,
        "edge_counts": edge_counts,
        "total_edges": sum(edge_counts),
        "densities": [e / p if p else 0.0 for e, p in zip(edge_counts, possible)],
        "density": sum(edge_counts) / sum(possible) if g.edges else 0.0,
    }


def export_graph(g: AssignmentGraph, path: str | Path) -> None:
    doc = {
        "sequence": g.sequence.residues,
        "thresholds": g.thresholds[1:],
        "nodes": [
            [
                {
                    "index": node.index,
                    "kind": node.kind,
                    "grouping": node.grouping_id,
                    "peaks": sorted(g.usage(node.layer, node.index)),
                }
                for node in layer
            ]
            for layer in g.layers
        ],
        "edges": [
            [k, i, j, cost]
            for k, layer in enumerate(g.edges)
            for i, j, cost in zip(layer.src.tolist(), layer.dst.tolist(), layer.cost.tolist())
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
