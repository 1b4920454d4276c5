"""Layered assignment graph construction.

The graph has n+2 layers: a start layer, one layer per residue, and an end
layer. Each inner layer holds one dummy node (null assignment) plus one
regular node per peak grouping that is statistically consistent with the
residue's priors. Edges run only between consecutive layers.

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
    #: peak ids consumed per (layer, node index); dummies consume nothing
    peak_usage: list[dict[int, frozenset[str]]]
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
        return self.peak_usage[layer].get(index, frozenset())

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


def _carbons_link(
    src_intra: Mapping[str, list[tuple[float, float]]],
    dst_prev: Mapping[str, list[tuple[float, float]]],
    tol: Tolerances,
) -> bool:
    """Sequential-walking check: shared carbons must agree within delta3."""
    for role in CARBON_ROLES:
        for x, _ in src_intra.get(role, ()):
            for y, _ in dst_prev.get(role, ()):
                if abs(x - y) > tol.delta3:
                    return False
    return True


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
    peak_usage: list[dict[int, frozenset[str]]] = [{}]
    typing: dict[tuple[int, str], dict[str, float]] = {}
    for k in range(1, n + 1):
        residue_type = seq.residue_type(k)
        if residue_type not in typed:
            typed[residue_type] = _typed(groupings, residue_type, priors, tol)
        nodes = [AssignmentNode(k, 0, DUMMY)]
        usage: dict[int, frozenset[str]] = {}
        for g, role_costs in typed[residue_type]:
            node = AssignmentNode(k, len(nodes), REGULAR, g)
            usage[node.index] = g.member_peaks
            typing[(k, g.grouping_id)] = role_costs
            nodes.append(node)
        layers.append(nodes)
        peak_usage.append(usage)
    layers.append([AssignmentNode(n + 1, 0, END)])
    peak_usage.append({})

    # start edges charge nothing: residue costs begin at the edge leaving layer 1
    edges = [EdgeLayer({(0, node.index): 0.0 for node in layers[1]}, 1)]
    for k in range(1, n + 1):
        residue_type = seq.residue_type(k)
        layer_edges: dict[tuple[int, int], float] = {}
        for src in layers[k]:
            for dst in layers[k + 1]:
                cost = _edge_cost(
                    k,
                    src,
                    dst,
                    residue_type,
                    priors,
                    tol,
                    thresholds[k],
                    intra,
                    prev,
                    typing,
                )
                if cost is None:
                    continue
                layer_edges[(src.index, dst.index)] = cost
        edges.append(EdgeLayer(layer_edges, len(layers[k])))

    return AssignmentGraph(seq, layers, edges, peak_usage, thresholds)


def _edge_cost(
    k: int,
    src: AssignmentNode,
    dst: AssignmentNode,
    residue_type: str,
    priors: PriorTable,
    tol: Tolerances,
    threshold: float,
    intra: Mapping[str, Mapping[str, list[tuple[float, float]]]],
    prev: Mapping[str, Mapping[str, list[tuple[float, float]]]],
    typing: Mapping[tuple[int, str], Mapping[str, float]],
) -> float | None:
    """Cost of the edge (src@k -> dst@k+1), charging residue k; None when
    the edge must not exist."""
    if src.kind == DUMMY:
        # null assignment: the target's previous-residue observations are
        # unexplained and the residue is priced at its threshold
        return threshold
    assert src.kind == REGULAR and src.grouping is not None
    src_intra = intra[src.grouping.grouping_id]
    dst_prev = prev[dst.grouping.grouping_id] if dst.kind == REGULAR else {}

    if dst_prev and not _carbons_link(src_intra, dst_prev, tol):
        return None

    cached = typing[(k, src.grouping.grouping_id)]
    cost = 0.0
    for role in sorted(set(src_intra) | set(dst_prev)):
        prior = priors.prior(residue_type, role)
        if prior is None:
            return None  # prev-role observation of an absent atom
        if role in dst_prev:
            obs = list(src_intra.get(role, ())) + list(dst_prev[role])
            cost += atom_cost(prior, obs).cost
        else:
            cost += cached[role]
    if dst.kind == REGULAR and cost > threshold:
        return None  # statistically implausible; the dummy route is cheaper
    return cost


def graph_stats(g: AssignmentGraph) -> dict:
    layer_sizes = [len(layer) for layer in g.layers]
    edge_counts = [len(layer_edges) for layer_edges in g.edges]
    densities = []
    for k, layer_edges in enumerate(g.edges):
        possible = layer_sizes[k] * layer_sizes[k + 1]
        densities.append(len(layer_edges) / possible if possible else 0.0)
    return {
        "layer_sizes": layer_sizes,
        "edge_counts": edge_counts,
        "total_edges": sum(edge_counts),
        "densities": densities,
        "density": (sum(edge_counts) / sum(layer_sizes[k] * layer_sizes[k + 1] for k in range(len(g.edges))))
        if g.edges
        else 0.0,
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
