"""Layered assignment graph construction.

The graph has n+2 layers: a start layer, one layer per residue, and an end
layer. Each inner layer holds one dummy node (null assignment) plus one
regular node per peak grouping that is statistically consistent with the
residue's priors. Edges run only between consecutive layers.

Each grouping is summarised once per base role, for its intra-residue and
its previous-residue observations: their ``costmodel.Moments`` and their
lowest and highest value. Typing, linking and pricing are array operations
over these summaries, one residue type or one layer at a time.

Sequential walking: a regular node of layer k links to a regular node of
layer k+1 only when every intra-residue value of the source is within
delta3 of every previous-residue value of the same atom in the target, that
is src_max - dst_min <= delta3 and dst_max - src_min <= delta3 per role; a
side that does not observe the atom passes. Linked pairs above the
residue's threshold are dropped too.

Cost attribution: the edge leaving layer k charges the atoms of residue k,
each priced from its prior merged with the source node's intra-residue and
the target node's previous-residue moments. Edges leaving a dummy node
charge the residue's summed typing threshold instead. Edges out of the
start node charge nothing. Summing edge costs along any start-to-end path
therefore prices every residue exactly once.
"""
from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike

from .costmodel import Moments, marginal_cost, moments, typing_threshold
from .domain import (
    BASE_ROLES,
    PriorTable,
    ProteinSequence,
    Tolerances,
    base_role,
    is_prev,
    write_json,
)
from .grouping import PeakGrouping

START, END, DUMMY, REGULAR = "start", "end", "dummy", "regular"

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

    def __init__(self, src: ArrayLike, dst: ArrayLike, cost: ArrayLike, n_src: int) -> None:
        """Edges src[e] -> dst[e] costing cost[e], in any order, out of
        ``n_src`` source nodes."""
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        order = np.lexsort((dst, src))
        self.src = src[order]
        self.dst = dst[order]
        self.cost = np.asarray(cost, dtype=float)[order]
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
    #: the groupings regular nodes carry, each once
    groupings: Sequence[PeakGrouping]
    #: grouping_rows[k][i]: node i of layer k carries
    #: ``groupings[grouping_rows[k][i]]``; -1 for start, dummy and end nodes
    grouping_rows: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.layers) - 2

    def node(self, layer: int, index: int) -> AssignmentNode:
        return self.layers[layer][index]

    def usage(self, layer: int, index: int) -> frozenset[str]:
        """Peak ids a node consumes: its grouping's members; none otherwise."""
        grouping = self.layers[layer][index].grouping
        return grouping.member_peaks if grouping is not None else frozenset()

    def path_reused_peaks(self, nodes: Sequence[int]) -> dict[str, int]:
        """Peak id -> times the path consumes it, for the peaks it consumes
        twice or more, in peak id order."""
        counts: dict[str, int] = {}
        for k in range(1, self.n + 1):
            for pid in self.usage(k, nodes[k]):
                counts[pid] = counts.get(pid, 0) + 1
        return {p: c for p, c in sorted(counts.items()) if c >= 2}


def _summaries(
    groupings: Sequence[PeakGrouping], prev: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each grouping's intra (or prev) observations per base role: their
    ``Moments`` fields stacked as (field, grouping, role in ``BASE_ROLES``),
    and their lowest and highest values, (+inf, -inf) when unobserved."""
    stats = np.zeros((len(Moments._fields), len(groupings), len(BASE_ROLES)))
    lo = np.full(stats.shape[1:], np.inf)
    hi = -lo
    for a, g in enumerate(groupings):
        for role, obs in g.consensus.items():
            if is_prev(role) == prev:
                r = BASE_ROLES.index(base_role(role))
                stats[:, a, r] = moments((o.value, o.sigma) for o in obs)
                lo[a, r] = min(o.value for o in obs)
                hi[a, r] = max(o.value for o in obs)
    return stats, lo, hi


def _noise(grouping: PeakGrouping) -> tuple[tuple[str, tuple[float, ...]], ...]:
    """The sigmas of a grouping's intra-residue observations, per role."""
    return tuple(sorted(
        (role, tuple(o.sigma for o in obs))
        for role, obs in grouping.consensus.items()
        if not is_prev(role)
    ))


def _threshold(
    residue_type: str, priors: PriorTable, tol: Tolerances, noise: Mapping[str, Sequence[float]]
) -> float:
    """Summed typing threshold of observations with these sigmas per role;
    atoms the residue lacks add nothing."""
    total = 0.0
    for role in sorted(noise):
        prior = priors.prior(residue_type, role)
        if prior is not None:
            total += typing_threshold(prior, len(noise[role]), noise[role], tol.delta)
    return total


def residue_threshold(
    residue_type: str, priors: PriorTable, tol: Tolerances, expected: ExpectedCounts
) -> float:
    """Summed per-atom typing threshold for a null assignment."""
    noise = {role: [sigma] * count for role, (count, sigma) in expected.items()}
    return _threshold(residue_type, priors, tol, noise)


def _residue_costs(residue_type: str, priors: PriorTable, *parts: Moments) -> np.ndarray:
    """Summed atom costs of the residue for rows of per-role moments (last
    axis in ``BASE_ROLES`` order), each atom pooling the parts' observations
    of it; +inf where a part observes an atom the residue lacks."""
    table = [priors.prior(residue_type, role) for role in BASE_ROLES]
    lacks = np.array([prior is None for prior in table])
    # an absent atom gets a stand-in prior; its cost is replaced below
    post = Moments(*np.array([
        moments([(0.0, 1.0) if prior is None else (prior.mean, prior.std)]) for prior in table
    ]).T)
    for part in parts:
        post = post.merge(part)
    return np.where(lacks & (post.count > 1), np.inf, marginal_cost(post)).sum(axis=-1)


def _typed(
    intra: np.ndarray, noise: Sequence, residue_type: str, priors: PriorTable, tol: Tolerances
) -> np.ndarray:
    """Indices of the groupings typed as the residue: their summed atom costs
    are at most the summed typing threshold of their noise (ties retained)."""
    limit = {sig: _threshold(residue_type, priors, tol, dict(sig)) for sig in set(noise)}
    costs = _residue_costs(residue_type, priors, Moments(*intra))
    return np.flatnonzero(costs <= np.array([limit[sig] for sig in noise]))


def prune_by_typing(
    groupings: Sequence[PeakGrouping],
    residue_type: str,
    priors: PriorTable,
    tol: Tolerances,
) -> list[PeakGrouping]:
    """Groupings statistically consistent with the residue (ties retained)."""
    intra = _summaries(groupings, prev=False)[0]
    kept = _typed(intra, [_noise(g) for g in groupings], residue_type, priors, tol)
    return [groupings[a] for a in kept]


def build_graph(
    groupings: Sequence[PeakGrouping],
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    expected: ExpectedCounts,
) -> AssignmentGraph:
    n = len(seq)
    thresholds = [0.0] + [residue_threshold(rt, priors, tol, expected) for rt in seq.residues]
    intra, intra_lo, intra_hi = _summaries(groupings, prev=False)
    prev, prev_lo, prev_hi = _summaries(groupings, prev=True)
    noise = [_noise(g) for g in groupings]
    typed = {rt: _typed(intra, noise, rt, priors, tol) for rt in set(seq.residues)}

    # the grouping rows of each inner layer's regular nodes, then none for the end
    rows = [typed[rt] for rt in seq.residues] + [np.zeros(0, dtype=np.int64)]
    layers: list[list[AssignmentNode]] = [[AssignmentNode(0, 0, START)]]
    for k, layer_rows in enumerate(rows[:-1], 1):
        regular = [AssignmentNode(k, i, REGULAR, groupings[a]) for i, a in enumerate(layer_rows, 1)]
        layers.append([AssignmentNode(k, 0, DUMMY), *regular])
    layers.append([AssignmentNode(n + 1, 0, END)])
    none = np.full(1, -1)
    grouping_rows = [none, *(np.concatenate([none, r]) for r in rows[:-1]), none]

    # start edges charge nothing: residue costs begin at the edge leaving layer 1
    first = np.arange(len(layers[1]))
    edges = [EdgeLayer(np.zeros_like(first), first, np.zeros(len(first)), 1)]
    for k in range(1, n + 1):
        residue_type = seq.residue_type(k)
        src, dst = rows[k - 1], rows[k]
        # sequential walking: every pair of same-atom values within delta3
        linked = (
            (intra_hi[src][:, None] - prev_lo[dst] <= tol.delta3)
            & (prev_hi[dst] - intra_lo[src][:, None] <= tol.delta3)
        ).all(axis=2)
        a, b = np.nonzero(linked)
        cost = _residue_costs(
            residue_type, priors, Moments(*intra[:, src[a]]), Moments(*prev[:, dst[b]])
        )
        # above the threshold the pair is implausible; the dummy route is cheaper
        keep = cost <= thresholds[k]
        # a dummy source leaves the target's prev roles unexplained and prices
        # the residue at its threshold; a regular source reaching the dummy
        # (or the end) pays its typing costs alone
        targets = np.arange(len(layers[k + 1]))
        sources = np.arange(1, len(src) + 1)
        edges.append(EdgeLayer(
            np.concatenate([np.zeros_like(targets), sources, a[keep] + 1]),
            np.concatenate([targets, np.zeros_like(sources), b[keep] + 1]),
            np.concatenate([
                np.full(len(targets), thresholds[k]),
                _residue_costs(residue_type, priors, Moments(*intra[:, src])),
                cost[keep],
            ]),
            len(layers[k]),
        ))

    return AssignmentGraph(seq, layers, edges, thresholds, list(groupings), grouping_rows)


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
    write_json(doc, path)
