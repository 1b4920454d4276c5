"""Layered assignment graph construction.

The graph has n+2 layers: a start layer, one layer per residue, and an end
layer. Each inner layer holds one dummy node (null assignment) plus one
regular node per peak grouping that is statistically consistent with the
residue's priors. Edges run only between consecutive layers.

Nodes are stored once, as ``grouping_rows``: the grouping each node of a
layer carries, -1 for start, dummy and end. A node consumes its grouping's
members in the table, and the peaks a path consumes are one gather
(``consumed``) over the table's ``indptr`` and ``members`` at its nodes'
rows. ``AssignmentNode`` is a view of one node (its position, kind and
grouping id), built on demand by the graph's ``node`` and ``layers``; the
program reads none of them, the benchmark's trace hook does.

The groupings arrive as one ``grouping.GroupingTable``: flat arrays of
every observation's grouping row, role column, value and sigma. The build
reads those arrays alone, and so do ``export_graph`` and
``lp.peak_incidence``.

The build keeps the structure; every number comes from ``costmodel``.
Each grouping is summarised once per base role, for its intra-residue and
its previous-residue observations, in one pass over the table's arrays:
their ``costmodel.Moments`` and their lowest and highest value. Everything
that depends only on the groupings or on the residue type is computed once
per build: the grouping × grouping walk matrix, every atom typing threshold
in one batch, per residue type its priors merged with every grouping's
intra moments, the resulting typing costs, and the linked pairs priced
from its groupings to those of all the residues that follow it (a pair
merges only the roles some grouping observes in the previous residue; its
other atoms cost what the source's typing gave them). Each layer then
keeps the pairs it links, through a grouping -> node array, and is laid
out directly in (source, target) order: the dummy's row, then per regular
source its edge to the dummy (or the end) and its linked targets, which
the pricing yields sorted already. An ``EdgeLayer`` is those arrays and
nothing else: per source node a contiguous run of targets, read through
``out(i)``, ``index(i, j)`` and the ``src``, ``dst`` and ``cost`` arrays.

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

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .costmodel import Moments, marginal_cost, merged, typing_thresholds
from .domain import BASE_ROLES, NmrAssignError, PriorTable, ProteinSequence, Tolerances, write_json
from .grouping import _COLUMNS, GroupingTable

START, END, DUMMY, REGULAR = "start", "end", "dummy", "regular"

#: role -> (expected observation count, noise sigma), used for thresholds
ExpectedCounts = Mapping[str, tuple[int, float]]


# the views below serve benchmark/run.py's trace hook, which reads g.layers
@dataclass(frozen=True)
class AssignmentNode:
    layer: int
    index: int
    kind: str
    grouping_id: str | None = None


class EdgeLayer:
    """The edges between layers k and k+1, as CSR arrays: the out-edges of
    source node i are the positions ``out(i)``, in increasing ``dst``. Edge
    e runs from node ``src[e]`` to node ``dst[e]`` and costs ``cost[e]``;
    ``index(i, j)`` finds the position of edge (i, j)."""

    def __init__(self, dst: np.ndarray, cost: np.ndarray, indptr: np.ndarray) -> None:
        """The layer whose source node i has the out-edges to ``dst`` at the
        positions ``indptr[i]`` up to ``indptr[i + 1]``, costing ``cost``
        there; each source's targets ascending."""
        self.dst, self.cost, self.indptr = dst, cost, indptr
        self.src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))

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

    def __len__(self) -> int:
        return len(self.dst)


def _kind(layer: int, row: int, n: int) -> str:
    """The kind of a node of ``layer`` carrying grouping row ``row`` (-1 for
    none) in a graph of n residues."""
    return REGULAR if row >= 0 else START if layer == 0 else END if layer > n else DUMMY


def consumed(indptr, indices, rows) -> tuple[np.ndarray, np.ndarray]:
    """The entries of CSR rows ``rows``, row after row: ``indices[indptr[r]:
    indptr[r + 1]]`` for each r, and the position in ``rows`` of the row
    holding each. Over ``GroupingTable.indptr`` and ``members`` these are
    the peaks the groupings consume."""
    counts = np.diff(indptr)[rows]
    at = np.repeat(np.arange(len(counts)), counts)
    first = (indptr[:-1][rows] - np.cumsum(counts) + counts)[at]
    return indices[first + np.arange(len(at))], at


@dataclass
class AssignmentGraph:
    """The layered graph. Its nodes are stored once, as ``grouping_rows``;
    ``node()`` and ``layers`` are ``AssignmentNode`` views built from them."""

    sequence: ProteinSequence
    #: edges[k] holds the edges between layers k and k+1
    edges: list[EdgeLayer]
    #: summed typing threshold per residue (index 0 unused)
    thresholds: list[float]
    #: the groupings regular nodes carry, each once
    groupings: GroupingTable
    #: grouping_rows[k][i]: node i of layer k carries row
    #: ``grouping_rows[k][i]`` of ``groupings``; -1 for start, dummy and end nodes
    grouping_rows: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.grouping_rows) - 2

    def node(self, layer: int, index: int) -> AssignmentNode:
        """A view of node ``index`` of ``layer``, built from its grouping row."""
        row = int(self.grouping_rows[layer][index])
        grouping_id = self.groupings.ids[row] if row >= 0 else None
        return AssignmentNode(layer, index, _kind(layer, row, self.n), grouping_id)

    @cached_property
    def layers(self) -> list[list[AssignmentNode]]:
        """Views of every node, layer by layer, built on first use and kept
        for readers that index it repeatedly."""
        rows = self.grouping_rows
        return [[self.node(k, i) for i in range(len(rows[k]))] for k in range(len(rows))]

    def path_reused_peaks(self, nodes: Sequence[int]) -> dict[str, int]:
        """Peak id -> times the path consumes it, for the peaks it consumes
        twice or more, in peak id order."""
        table = self.groupings
        rows = np.array([self.grouping_rows[k][i] for k, i in enumerate(nodes)])
        peaks = consumed(table.indptr, table.members, rows[rows >= 0])[0]
        uses = np.bincount(peaks, minlength=len(table.sources))
        return {table.sources[p]: int(uses[p]) for p in np.flatnonzero(uses >= 2).tolist()}


def _summaries(table: GroupingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each grouping's observations per role column (``_COLUMNS``): their
    ``Moments`` fields stacked as (field, grouping, column), merged in
    consensus order, and their lowest and highest values, (+inf, -inf) when
    unobserved."""
    shape = (len(table), len(_COLUMNS))
    cells = table.row * shape[1] + table.column
    stats = merged(shape[0] * shape[1], cells, table.value, table.sigma)
    lo, hi = np.full(shape, np.inf), np.full(shape, -np.inf)
    np.minimum.at(lo.ravel(), cells, table.value)
    np.maximum.at(hi.ravel(), cells, table.value)
    return stats.reshape(len(Moments._fields), *shape), lo, hi


def _noise(table: GroupingTable) -> list[tuple[tuple[str, tuple[float, ...]], ...]]:
    """Per grouping, the sigmas of its intra-residue observations per role,
    in role name order; built once per distinct (columns, sigmas) of a row."""
    intra = table.column < len(BASE_ROLES)
    column, sigma = table.column[intra], table.sigma[intra]
    bounds = np.searchsorted(table.row[intra], np.arange(len(table) + 1)).tolist()
    roles, built = list(_COLUMNS), {}
    noise = []
    for a, b in zip(bounds, bounds[1:]):
        key = column[a:b].tobytes(), sigma[a:b].tobytes()
        if key not in built:
            runs: dict[int, list[float]] = {}
            for c, x in zip(column[a:b].tolist(), sigma[a:b].tolist()):
                runs.setdefault(c, []).append(x)
            built[key] = tuple((roles[c], tuple(x)) for c, x in runs.items())
        noise.append(built[key])
    return noise


#: a residue type's prior per base role: which atoms it lacks, and each
#: atom's prior as ``Moments`` of one observation (a stand-in where lacking),
#: possibly already merged with rows of observations
ResiduePrior = tuple[np.ndarray, Moments]


def _residue_priors(types: Sequence[str], priors: PriorTable) -> dict[str, ResiduePrior]:
    """Each residue type's prior, not yet merged with any observation; the
    atoms of every type in one batch."""
    table = [priors.prior(rt, role) for rt in types for role in BASE_ROLES]
    lacks = np.array([prior is None for prior in table]).reshape(len(types), len(BASE_ROLES))
    # an absent atom gets a stand-in prior; its cost is replaced in _atom_costs
    means, stds = np.array([(0.0, 1.0) if p is None else (p.mean, p.std) for p in table]).T
    stats = merged(len(table), np.arange(len(table)), means, stds).reshape(-1, *lacks.shape)
    return {rt: (lacks[t], Moments(*stats[:, t])) for t, rt in enumerate(types)}


def _atom_costs(prior: ResiduePrior, *parts: Moments) -> np.ndarray:
    """Each atom's cost of the residue for rows of per-role moments (last
    axis in the roles' order), pooling the parts' observations of it; +inf
    where a part observes an atom the residue lacks."""
    lacks, post = prior
    for part in parts:
        post = post.merge(part)
    return np.where(lacks & (post.count > 1), np.inf, marginal_cost(post))


def _rows(m: Moments, rows: np.ndarray, roles: np.ndarray) -> Moments:
    """The given rows and roles of per-grouping moments, gathered by one
    ``np.take`` of the stacked fields: far cheaper than one fancy index per
    field."""
    return Moments(*np.take(np.asarray(m)[..., roles], rows, axis=1))


def _walks(lo: np.ndarray, hi: np.ndarray, delta3: float) -> np.ndarray:
    """(grouping × grouping) booleans: sequential walking lets grouping b
    follow grouping a. Built one base role at a time, so it never holds more
    than one (grouping × grouping) array of differences."""
    r = len(BASE_ROLES)
    walks = np.ones((len(lo), len(lo)), dtype=bool)
    for role in range(r):
        walks &= hi[:, role, None] - lo[:, r + role] <= delta3
        walks &= hi[:, r + role] - lo[:, role, None] <= delta3
    return walks


def build_graph(
    table: GroupingTable,
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    expected: ExpectedCounts,
) -> AssignmentGraph:
    """The layered graph of the table's groupings for the sequence."""
    types = sorted(set(seq.residues))
    stats, lo, hi = _summaries(table)
    intra, prev = (Moments(*np.ascontiguousarray(part)) for part in np.split(stats, 2, axis=-1))
    walks = _walks(lo, hi, tol.delta3)
    # every atom typing threshold the build reads, in one batch: those of the
    # null assignment (noise 0) and of each distinct noise of the groupings
    null = tuple(sorted((role, (sigma,) * count) for role, (count, sigma) in expected.items()))
    index = {null: 0}
    which = np.array([index.setdefault(n, len(index)) for n in _noise(table)], dtype=np.int64)
    atoms = {atom for noise in index for atom in noise}
    with np.errstate(over="ignore", invalid="ignore"):  # a huge delta, rejected below
        memo = typing_thresholds(((rt, *atom) for rt in types for atom in atoms), priors, tol.delta)
    # each noise's summed typing threshold, in role order (atoms the residue
    # lacks add 0), started at 0.0 so that even an empty one is a float
    limits = {rt: [sum((memo[rt, role, sigmas] for role, sigmas in noise), 0.0) for noise in index]
              for rt in types}
    if bad := [k for k, rt in enumerate(seq.residues, 1) if not np.isfinite(limits[rt]).all()]:
        raise NmrAssignError(f"residue {bad[0]} has a non-finite typing threshold; lower --delta")
    thresholds = [0.0] + [limits[rt][0] for rt in seq.residues]
    # each residue type's prior merged with every grouping's intra moments;
    # priced alone, that is the grouping's typing cost, which is also what a
    # regular node pays to reach the dummy or the end
    posts: dict[str, ResiduePrior] = {
        rt: (lacks, prior.merge(intra)) for rt, (lacks, prior) in _residue_priors(types, priors).items()
    }
    per_atom = {rt: _atom_costs(post) for rt, post in posts.items()}
    typing = {rt: costs.sum(axis=-1) for rt, costs in per_atom.items()}
    # a grouping is typed as the residue type when its typing cost is at most
    # the summed typing threshold of its noise (ties retained)
    is_typed = {rt: typing[rt] <= np.array(limits[rt])[which] for rt in types}
    typed = {rt: np.flatnonzero(mask) for rt, mask in is_typed.items()}

    # the grouping rows of each inner layer's regular nodes, then none for the end
    rows = [typed[rt] for rt in seq.residues] + [np.zeros(0, dtype=np.int64)]
    none = np.full(1, -1)
    grouping_rows = [none, *(np.concatenate([none, r]) for r in rows[:-1]), none]

    # the layers of one residue type share their sources and their costs, so
    # each type's typed groupings are priced once, against every grouping
    # typed for a residue that follows the type; each layer then keeps the
    # pairs that reach its own targets
    follows: dict[str, set[str]] = {rt: set() for rt in types}
    for here, after in zip(seq.residues, seq.residues[1:]):
        follows[here].add(after)
    # the roles some grouping observes in the previous residue: merging no
    # observations leaves the moments, and so the atom cost, of every other
    # role as the source's typing left it
    pooled = np.flatnonzero((prev.count > 0).any(axis=0))
    linked = {}
    for rt in types:
        src = typed[rt]
        # the rows typed for any follower, sorted and distinct as a mask makes
        # them: the first plain np.unique would import numpy.ma
        reached = np.zeros(len(table), dtype=bool)
        for t in follows[rt]:
            reached |= is_typed[t]
        dst = np.flatnonzero(reached)
        a, b = np.nonzero(walks[src][:, dst])  # two gathers: far cheaper than np.ix_
        lacks, post = posts[rt]
        cost = np.take(per_atom[rt], src[a], axis=0)
        cost[:, pooled] = _atom_costs(
            (lacks[pooled], _rows(post, src[a], pooled)), _rows(prev, dst[b], pooled)
        )
        cost = cost.sum(axis=-1)
        # above the threshold the pair is implausible; the dummy route is cheaper
        keep = cost <= limits[rt][0]
        linked[rt] = a[keep], dst[b[keep]], cost[keep]

    # start edges charge nothing: residue costs begin at the edge leaving layer 1
    first = len(grouping_rows[1])
    edges = [EdgeLayer(np.arange(first), np.zeros(first), np.array([0, first]))]
    node = np.zeros(len(table), dtype=np.int64)  # a grouping's node in the next layer, or 0
    for k in range(1, len(seq) + 1):
        residue_type = seq.residue_type(k)
        src = rows[k - 1]
        a, target, cost = linked[residue_type]
        # the pairs reaching a grouping typed for layer k+1, and its node there
        node[rows[k]] = np.arange(1, len(rows[k]) + 1)
        b = node[target]
        keep = b > 0
        a, b, cost = a[keep], b[keep], cost[keep]
        node[rows[k]] = 0
        # in (source, target) order: the dummy source reaches every target,
        # leaving the target's prev roles unexplained and pricing the residue
        # at its threshold; each regular source then reaches the dummy (or the
        # end), paying its typing costs alone, and then its linked targets
        targets = len(grouping_rows[k + 1])
        indptr = np.r_[0, targets, targets + np.cumsum(1 + np.bincount(a, minlength=len(src)))]
        total = int(indptr[-1])
        out = np.ones(total, dtype=bool)  # the positions of the linked pairs
        out[:targets] = False
        out[indptr[1:-1]] = False
        dst, costs = np.zeros(total, dtype=np.int64), np.empty(total)
        dst[:targets] = np.arange(targets)
        dst[out] = b
        costs[:targets] = thresholds[k]
        costs[indptr[1:-1]] = typing[residue_type][src]
        costs[out] = cost
        edges.append(EdgeLayer(dst, costs, indptr))

    return AssignmentGraph(seq, edges, thresholds, table, grouping_rows)


def graph_stats(g: AssignmentGraph) -> dict:
    layer_sizes = [len(rows) for rows in g.grouping_rows]
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
    table = g.groupings
    doc = {
        "sequence": g.sequence.residues,
        "thresholds": g.thresholds[1:],
        "nodes": [
            [
                {
                    "index": i,
                    "kind": _kind(k, row, g.n),
                    "grouping": table.ids[row] if row >= 0 else None,
                    "peaks": table.member_ids(row) if row >= 0 else [],
                }
                for i, row in enumerate(rows.tolist())
            ]
            for k, rows in enumerate(g.grouping_rows)
        ],
        "edges": [
            [k, i, j, cost]
            for k, layer in enumerate(g.edges)
            for i, j, cost in zip(layer.src.tolist(), layer.dst.tolist(), layer.cost.tolist())
        ],
    }
    write_json(doc, path)
