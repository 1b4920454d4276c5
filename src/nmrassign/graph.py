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
grouping id), built on demand by the graph's ``layers``; the program reads
neither, they stay for ``benchmark/run.py``'s trace hook, ``graph_counts``.

The groupings arrive as one ``grouping.GroupingTable``: flat arrays of
every observation's grouping row, role column, value and sigma. The build
reads those arrays alone, and so do ``export_graph`` and
``lp.peak_incidence``.

The build keeps the structure; every number comes from ``costmodel``.
Each grouping is summarised once per base role, for its intra-residue and
its previous-residue observations, in one pass over the table's arrays:
their ``costmodel.Moments`` and their lowest and highest value. Everything
that depends only on the groupings or on the residue type is computed once
per build, as arrays over (residue type × ...): the grouping × grouping
walk matrix and its walkable pairs, every atom typing threshold of every
type in one ``typing_thresholds`` batch and their sums per noise, every
type's priors merged with every grouping's intra moments and the
resulting typing costs. Then each type prices, in one array pass, the
walkable pairs from its typed groupings to those typed for a residue that
follows it, gathering the pairs' moments from one stacked array (a pair
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
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .costmodel import Moments, marginal_cost, merged, typing_thresholds
from .domain import BASE_ROLES, NmrAssignError, PriorTable, ProteinSequence, Tolerances, write_json
from .grouping import _COLUMNS, GroupingTable

START, END, DUMMY, REGULAR = "start", "end", "dummy", "regular"

#: role -> (expected observation count, noise sigma), used for thresholds
ExpectedCounts = Mapping[str, tuple[int, float]]


# kept for benchmark/run.py's trace hook, which reads g.layers
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
    ``layers`` holds ``AssignmentNode`` views built from them."""

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

    @cached_property
    def layers(self) -> list[list[AssignmentNode]]:
        """Views of every node, layer by layer, built on first use and kept
        for readers that index it repeatedly."""
        ids = self.groupings.ids
        return [
            [AssignmentNode(k, i, _kind(k, r, self.n), ids[r] if r >= 0 else None)
             for i, r in enumerate(rows.tolist())]
            for k, rows in enumerate(self.grouping_rows)
        ]

    def path_reused_peaks(self, nodes: Sequence[int]) -> dict[str, int]:
        """Peak id -> times the path consumes it, for the peaks it consumes
        twice or more, in peak id order."""
        table = self.groupings
        rows = np.array([self.grouping_rows[k][i] for k, i in enumerate(nodes)])
        peaks = consumed(table.indptr, table.members, rows[rows >= 0])[0]
        uses = np.bincount(peaks, minlength=len(table.sources))
        return {table.sources[p]: int(uses[p]) for p in np.flatnonzero(uses >= 2).tolist()}

    def restricted(self, keep: np.ndarray) -> AssignmentGraph:
        """The graph with only the edges where ``keep`` (one flag per edge,
        layer after layer) is True. Its nodes stay as they are, so node
        indices mean the same in both, and each layer keeps its edges' order."""
        edges, start = [], 0
        for layer in self.edges:
            mask = keep[start : start + len(layer)]
            start += len(layer)
            indptr = np.zeros_like(layer.indptr)
            np.cumsum(np.bincount(layer.src[mask], minlength=len(indptr) - 1), out=indptr[1:])
            edges.append(EdgeLayer(layer.dst[mask], layer.cost[mask], indptr))
        return replace(self, edges=edges)


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


#: residue types' priors per base role, as (type × role) arrays, or one
#: type's as (role,) arrays: which atoms each lacks, and each atom's prior as
#: ``Moments`` of one observation (a stand-in where lacking), possibly
#: already merged with rows of observations
ResiduePrior = tuple[np.ndarray, Moments]


def _prior_table(types: Sequence[str], priors: PriorTable) -> tuple[np.ndarray, np.ndarray]:
    """Each residue type's prior mean and standard deviation per base role,
    as (type × role) arrays, NaN where the type lacks the atom."""
    table = [priors.prior(rt, role) for rt in types for role in BASE_ROLES]
    fields = np.array([(np.nan, np.nan) if p is None else (p.mean, p.std) for p in table], dtype=float)
    return fields[:, 0].reshape(-1, len(BASE_ROLES)), fields[:, 1].reshape(-1, len(BASE_ROLES))


def _residue_priors(means: np.ndarray, stds: np.ndarray) -> ResiduePrior:
    """The priors of ``_prior_table``, not yet merged with any observation,
    in one batch."""
    lacks = np.isnan(means)
    # an absent atom gets a stand-in prior; its cost is replaced in _atom_costs
    means, stds = np.where(lacks, 0.0, means), np.where(lacks, 1.0, stds)
    stats = merged(lacks.size, np.arange(lacks.size), means.ravel(), stds.ravel())
    return lacks, Moments(*stats.reshape(-1, *lacks.shape))


def _atom_costs(prior: ResiduePrior, *parts: Moments) -> np.ndarray:
    """Each atom's cost of the residue for rows of per-role moments (last
    axis in the roles' order), pooling the parts' observations of it; +inf
    where a part observes an atom the residue lacks."""
    lacks, post = prior
    for part in parts:
        post = post.merge(part)
    return np.where(lacks & (post.count > 1), np.inf, marginal_cost(post))


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


def _limits(
    noises: Sequence[tuple[tuple[str, tuple[float, ...]], ...]],
    means: np.ndarray,
    stds: np.ndarray,
    delta: float,
) -> np.ndarray:
    """(type × noise) summed typing thresholds: per residue type (the rows of
    ``_prior_table``'s ``means`` and ``stds``) and per noise, the sum of its
    atoms' typing thresholds in the noise's role order, started at 0.0 (atoms
    the residue lacks add 0). Every (type, atom) threshold is priced in one
    ``typing_thresholds`` batch, and the sums taken one atom slot at a time
    for every type and noise at once."""
    distinct = dict.fromkeys(atom for noise in noises for atom in noise)
    atoms = {atom: a for a, atom in enumerate(distinct)}
    role = np.array([BASE_ROLES.index(r) for r, _ in atoms], dtype=np.int64)
    counts = np.array([len(sigmas) for _, sigmas in atoms], dtype=np.int64)
    sigmas = np.array([x for _, noise in atoms for x in noise], dtype=float)
    # one cell per (type, atom), type-major
    types = len(means)
    cells = np.repeat(np.arange(types * len(atoms)), np.tile(counts, types))
    thresholds = typing_thresholds(
        means[:, role].ravel(), stds[:, role].ravel(), cells, np.tile(sigmas, types), delta
    ).reshape(types, len(atoms))
    # each noise's atoms, padded with a column of zeros
    thresholds = np.hstack([thresholds, np.zeros((types, 1))])
    slots = np.full((len(noises), max(map(len, noises), default=0)), len(atoms))
    for k, noise in enumerate(noises):
        slots[k, :len(noise)] = [atoms[atom] for atom in noise]
    limits = np.zeros((types, len(noises)))
    for column in slots.T:
        limits = limits + thresholds[:, column]
    return limits


def build_graph(
    table: GroupingTable,
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    expected: ExpectedCounts,
) -> AssignmentGraph:
    """The layered graph of the table's groupings for the sequence."""
    types = sorted(set(seq.residues))
    code = {rt: t for t, rt in enumerate(types)}
    residues = np.array([code[rt] for rt in seq.residues], dtype=np.int64)
    stats, lo, hi = _summaries(table)
    intra, prev = (Moments(*np.ascontiguousarray(part)) for part in np.split(stats, 2, axis=-1))
    walks = _walks(lo, hi, tol.delta3)
    # every summed typing threshold the build reads, in one batch: those of
    # the null assignment (noise 0) and of each distinct noise of the
    # groupings, per residue type
    null = tuple(sorted((role, (sigma,) * count) for role, (count, sigma) in expected.items()))
    index = {null: 0}
    which = np.array([index.setdefault(n, len(index)) for n in _noise(table)], dtype=np.int64)
    means, stds = _prior_table(types, priors)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny noise sigma, rejected below
        limits = _limits(list(index), means, stds, tol.delta)
    if (bad := np.flatnonzero(~np.isfinite(limits[residues]).all(axis=1))).size:
        raise NmrAssignError(
            f"residue {bad[0] + 1} has a non-finite typing threshold; widen the priors' sigmas "
            "or lower --delta"
        )
    thresholds = [0.0] + limits[residues, 0].tolist()
    # each residue type's prior merged with every grouping's intra moments,
    # as (type × grouping × role) arrays; priced alone, that is the
    # grouping's typing cost, which is also what a regular node pays to reach
    # the dummy or the end
    lacks, prior = _residue_priors(means, stds)
    post = Moments(*np.asarray(prior)[:, :, None]).merge(Moments(*np.asarray(intra)[:, None]))
    per_atom = _atom_costs((lacks[:, None], post))
    typing = per_atom.sum(axis=-1)
    # a grouping is typed as the residue type when its typing cost is at most
    # the summed typing threshold of its noise (ties retained)
    is_typed = typing <= limits[:, which]
    typed = [np.flatnonzero(mask) for mask in is_typed]

    # the grouping rows of each inner layer's regular nodes, then none for the end
    rows = [typed[t] for t in residues.tolist()] + [np.zeros(0, dtype=np.int64)]
    none = np.full(1, -1)
    grouping_rows = [none, *(np.concatenate([none, r]) for r in rows[:-1]), none]

    # the layers of one residue type share their sources and their costs, so
    # each type's typed groupings are priced once, against every grouping
    # typed for a residue that follows the type; each layer then keeps the
    # pairs that reach its own targets
    follows = np.zeros((len(types), len(types)), dtype=bool)
    follows[residues[:-1], residues[1:]] = True
    reached = follows @ is_typed  # per type, the groupings typed for a follower
    # the walkable pairs, row-major, taken once (np.nonzero of a 2-D array is
    # far slower); each type keeps those from its typed groupings to the
    # ones it reaches, in (source, target) order
    walker, follower = np.divmod(np.flatnonzero(walks), len(table))
    # the roles some grouping observes in the previous residue: merging no
    # observations leaves the moments, and so the atom cost, of every other
    # role as the source's typing left it; their moments are gathered per
    # pair from one stacked array each
    pooled = np.flatnonzero((prev.count > 0).any(axis=0))
    post_pooled = np.stack([field[..., pooled] for field in post])
    prev_pooled = np.stack([field[..., pooled] for field in prev])
    linked = {}
    for t in range(len(types)):
        pair = np.flatnonzero(is_typed[t, walker] & reached[t, follower])
        a, b = walker[pair], follower[pair]
        cost = np.take(per_atom[t], a, axis=0)
        cost[:, pooled] = _atom_costs(
            (lacks[t, pooled], Moments(*np.take(post_pooled[:, t], a, axis=1))),
            Moments(*np.take(prev_pooled, b, axis=1)),
        )
        cost = cost.sum(axis=-1)
        # above the threshold the pair is implausible; the dummy route is cheaper
        keep = cost <= limits[t, 0]
        # a source's position among the type's typed groupings
        linked[t] = np.cumsum(is_typed[t])[a[keep]] - 1, b[keep], cost[keep]

    # start edges charge nothing: residue costs begin at the edge leaving layer 1
    first = len(grouping_rows[1])
    edges = [EdgeLayer(np.arange(first), np.zeros(first), np.array([0, first]))]
    node = np.zeros(len(table), dtype=np.int64)  # a grouping's node in the next layer, or 0
    for k, t in enumerate(residues.tolist(), 1):
        src = rows[k - 1]
        a, target, cost = linked[t]
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
        degree = 1 + np.bincount(a, minlength=len(src))
        indptr = np.concatenate([[0, targets], targets + np.cumsum(degree)])
        total = int(indptr[-1])
        out = np.ones(total, dtype=bool)  # the positions of the linked pairs
        out[:targets] = False
        out[indptr[1:-1]] = False
        dst, costs = np.zeros(total, dtype=np.int64), np.empty(total)
        dst[:targets] = np.arange(targets)
        dst[out] = b
        costs[:targets] = thresholds[k]
        costs[indptr[1:-1]] = typing[t, src]
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
