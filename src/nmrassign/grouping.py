"""Enumeration of internally consistent peak groupings.

All of it works on integer indices into one peak table, sorted by peak id,
so index order is id order. The compatibility graph is that table, its
amide (H, N) array and its (n × n) amide matrix: two peaks are linked when
their amide coordinates agree within tolerance, by one comparison per
dimension. The comparisons are banded: with the peaks sorted by H, each
peak is compared only with those whose H lies within δ1 of its own (a peak
without H with every peak).

Maximal cliques of the graph are then expanded into groupings by a role
search over rows of a site table (each peak's canonical spectrum, carbon
and candidate roles, built in one pass per enumeration): it gives each
carbon-carrying peak an atom role so that same-role values agree within
the carbon window and the grouping's per-spectrum composition does not
exceed the expected pattern. A complete component is its own one maximal
clique; only the others go through Bron–Kerbosch. Each search starts from
an anchor peak and visits the clique in amide-distance order from it: one
array pass orders every component's sites from every anchor, and a
clique's order is its anchor's, restricted to the clique. Budgets on
component size and on search steps per component stop runs whose
tolerances are too loose. The role assignments found become the table in
array passes: rows ordered by one sort over their padded member and role
lists, observations by one integer key, and noise looked up per
(spectrum code, role) that occurs.

Spin-system input bypasses all of this: each system becomes one degenerate
grouping with a single observation per present role.

Either way the result is one ``GroupingTable``: the groupings' ids, member
peaks and observations as flat arrays, which the graph build reads
directly. It is the only form a grouping takes: a row is read through
``ids[r]``, ``member_ids(r)`` and ``consensus(r)``, and
``GroupingTable.from_rows`` builds a table from Python rows.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .domain import (
    BASE_ROLES,
    PREV_SUFFIX,
    NmrAssignError,
    Peak,
    PriorTable,
    SpinSystem,
    Tolerances,
)
from .experiments import EXPERIMENTS, SPIN_NOISE, candidate_roles, canonical_name

#: most peaks one connected component of the compatibility graph may hold
COMPONENT_BUDGET = 64
#: most role-search steps one component may take
EXPANSION_BUDGET = 500_000

#: role column of each role: the base roles in ``BASE_ROLES`` order, then
#: their previous-residue counterparts in the same order
_COLUMNS = {
    role + suffix: i + len(BASE_ROLES) * bool(suffix)
    for suffix in ("", PREV_SUFFIX)
    for i, role in enumerate(BASE_ROLES)
}

#: (peak index, canonical spectrum, carbon or None, candidate roles): one
#: peak's row of the site table, indexed like the compatibility graph's peaks
_Site = tuple[int, str, float | None, tuple[str, ...]]
#: ((peak index, role), ...) for the peaks of one grouping; None is the role
#: of a peak without a carbon
_RoleMap = tuple[tuple[int, str | None], ...]


class ComponentTooLargeError(NmrAssignError):
    """A connected component exceeded the peak or search-step budget;
    tolerances are probably too loose for this dataset."""


#: (grouping id, member ids, {role: [(value, sigma, source id), ...]}): one
#: grouping as ``GroupingTable.from_rows`` reads it; each observation's
#: source is one of the grouping's members
GroupingRow = tuple[str, Iterable[str], Mapping[str, Sequence[tuple[float, float, str]]]]


class GroupingTable:
    """The groupings of one run as flat arrays, one row per grouping.

    ``sources`` are the peak (or spin-system) ids the groupings draw on,
    ascending and distinct; the other fields refer to them by position. Row
    r is grouping ``ids[r]`` and consumes the sources
    ``members[indptr[r]:indptr[r + 1]]``, ascending. Observation e belongs
    to row ``row[e]`` and role column ``column[e]`` (``_COLUMNS``): value
    ``value[e]``, noise ``sigma[e]``, measured on source ``source[e]``.
    The observations are in consensus order: by row, each row's by role
    name, and each role's in the order they merge.

    A row is read through ``ids[r]``, ``member_ids(r)`` and ``consensus(r)``.
    """

    def __init__(
        self,
        ids: Sequence[str],
        sources: Sequence[str],
        indptr: np.ndarray,
        members: np.ndarray,
        row: np.ndarray,
        column: np.ndarray,
        value: np.ndarray,
        sigma: np.ndarray,
        source: np.ndarray,
    ) -> None:
        self.ids, self.sources, self.indptr, self.members = ids, sources, indptr, members
        self.row, self.column, self.value = row, column, value
        self.sigma, self.source = sigma, source

    @classmethod
    def from_rows(cls, rows: Sequence[GroupingRow]) -> GroupingTable:
        """The table of these groupings, in their order; each role's
        observations merge in the order given."""
        sources = sorted({pid for _, members, _ in rows for pid in members})
        at = {pid: k for k, pid in enumerate(sources)}
        members = [sorted(at[pid] for pid in m) for _, m, _ in rows]
        observed = [
            (r, _COLUMNS[role], value, sigma, at[pid])
            for r, (_, _, consensus) in enumerate(rows)
            for role, obs in sorted(consensus.items())
            for value, sigma, pid in obs
        ]
        fields = list(zip(*observed)) or [()] * 5
        dtypes = (np.int64, np.int64, float, float, np.int64)
        return cls(
            [gid for gid, _, _ in rows],
            sources,
            np.cumsum([0, *(len(m) for m in members)]),
            np.array([k for m in members for k in m], dtype=np.int64),
            *(np.array(x, dtype=t) for x, t in zip(fields, dtypes)),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def member_ids(self, r: int) -> list[str]:
        """The ids of the sources row r consumes, ascending."""
        return [self.sources[p] for p in self.members[self.indptr[r]:self.indptr[r + 1]].tolist()]

    def consensus(self, r: int) -> dict[str, tuple[list[float], list[float], list[str]]]:
        """Row r's observations per role, in consensus order, as (values,
        sigmas, source ids) with Python floats and str ids."""
        at = slice(*np.searchsorted(self.row, [r, r + 1]).tolist())
        columns, values, sigmas, sources = (
            x[at].tolist() for x in (self.column, self.value, self.sigma, self.source)
        )
        ids = [self.sources[p] for p in sources]
        # each role's observations are contiguous
        starts = [k for k in range(len(columns)) if k == 0 or columns[k] != columns[k - 1]]
        roles = list(_COLUMNS)
        return {
            roles[columns[a]]: (values[a:b], sigmas[a:b], ids[a:b])
            for a, b in zip(starts, [*starts[1:], len(columns)])
        }


@dataclass(frozen=True, eq=False)
class CompatibilityGraph:
    """The peaks, sorted by id, their (H, N) coordinates as an (n × 2)
    array, NaN where missing, and their (n × n) amide matrix: entry (i, j)
    is True when peaks i and j agree in their amide coordinates."""

    peaks: tuple[Peak, ...]
    amide: np.ndarray
    adjacency: np.ndarray


def _amide_array(peaks: Sequence[Peak]) -> np.ndarray:
    """The peaks' (H, N) coordinates as an (n × 2) array, NaN where missing."""
    return np.array([(p.coord("H"), p.coord("N")) for p in peaks], dtype=float).reshape(-1, 2)


def _amide_matrix(amide: np.ndarray, tol: Tolerances) -> np.ndarray:
    """(n × n) booleans over the rows of ``amide``, the peaks' (H, N)
    coordinates: peaks i and j agree in H within δ1 and in N within δ2. A
    missing coordinate never counts as too far apart. The diagonal is
    False.

    Only candidate pairs are compared: with the peaks sorted by H, those
    whose H lies within δ1 of each other, a band widened by a relative 1e-9
    so that it holds every pair the exact test keeps; and every pair with a
    peak that lacks H."""
    n = len(amide)
    h = amide[:, 0]
    missing = np.isnan(h)
    order = np.flatnonzero(~missing)
    order = order[np.argsort(h[order], kind="stable")]
    x = h[order]
    reach = tol.delta1 + 1e-9 * (np.abs(x) + tol.delta1)
    lo = np.searchsorted(x, x - reach, "left")
    counts = np.searchsorted(x, x + reach, "right") - lo
    # the band's pairs (a, b) of sorted positions, b from lo[a] on
    a = np.repeat(np.arange(len(x)), counts)
    b = np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    lacking, every = np.flatnonzero(missing), np.arange(n)
    i = np.concatenate([order[a], np.repeat(lacking, n), np.tile(every, len(lacking))])
    j = np.concatenate([order[b], np.tile(every, len(lacking)), np.repeat(lacking, n)])
    keep = i != j
    for column, window in ((0, tol.delta1), (1, tol.delta2)):
        coords = amide[:, column]
        keep &= ~(np.abs(coords[i] - coords[j]) > window)
    close = np.zeros((n, n), dtype=bool)
    close[i[keep], j[keep]] = True
    return close


def build_compatibility_graph(peaks: Sequence[Peak], tol: Tolerances) -> CompatibilityGraph:
    """Link every pair of peaks whose shared amide coordinates match.

    Carbon consistency is not decidable pairwise (role labels are assigned
    per grouping), so it is enforced during expansion instead.
    """
    ordered = tuple(sorted(peaks, key=lambda p: p.peak_id))
    amide = _amide_array(ordered)
    return CompatibilityGraph(ordered, amide, _amide_matrix(amide, tol))


def _connected_components(first: np.ndarray, second: np.ndarray, n: int) -> list[list[int]]:
    """Each component's peak indices, ascending, in order of its first, of
    the n peaks linked by the pairs (``first[e]``, ``second[e]``), listed in
    both directions. Each pass lowers every peak's label to its lowest
    neighbour's and then to its label's label, until no label moves; the
    peaks of a component then share its first peak's index."""
    if n == 0:
        return []
    labels = np.arange(n)
    while True:
        low = labels.copy()
        np.minimum.at(low, first, labels[second])
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    order = np.argsort(labels, kind="stable")
    return [part.tolist() for part in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)]


def _maximal_cliques(
    vertices: Sequence[int], adj: Sequence[frozenset[int]] | Mapping[int, frozenset[int]]
) -> list[list[int]]:
    """Bron-Kerbosch with pivoting over the component ``vertices`` (each
    vertex's neighbours among them), deterministic order. The sets are bit
    masks over the vertices' positions, ascending like the vertices."""
    local = list(vertices)
    at = {v: k for k, v in enumerate(local)}
    masks = [sum(1 << at[w] for w in adj[v]) for v in local]
    cliques: list[list[int]] = []

    def visit(r: list[int], p: int, x: int) -> None:
        if not p and not x:
            cliques.append(sorted(r))
            return
        # the lowest of the vertices with the most neighbours in p
        rest, most, pivot = p | x, -1, 0
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (count := (p & masks[u]).bit_count()) > most:
                most, pivot = count, u
        # then each vertex of p outside the pivot's neighbours, ascending
        rest = p & ~masks[pivot]
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            visit(r + [local[v]], p & masks[v], x & masks[v])
            p ^= bit
            x |= bit

    visit([], (1 << len(local)) - 1, 0)
    return sorted(cliques, key=lambda c: (-len(c), c))


def _site_table(peaks: Sequence[Peak]) -> list[_Site]:
    """(index, canonical spectrum, carbon or None, candidate roles) per peak;
    a spectrum's name and roles are looked up once per (spectrum, phase)."""
    kinds = {
        key: (canonical_name(key[0]), candidate_roles(*key))
        for key in dict.fromkeys((p.spectrum_id, p.phase) for p in peaks)
    }
    sites = []
    for i, p in enumerate(peaks):
        spectrum, roles = kinds[p.spectrum_id, p.phase]
        sites.append((i, spectrum, p.coord("C"), roles))
    return sites


def _anchor_orders(
    groups: Sequence[Sequence[_Site]],
    anchors: Sequence[Sequence[int]],
    amide: np.ndarray,
    tol: Tolerances,
) -> list[dict[int, list[int]]]:
    """Per group of sites, for each of its ``anchors`` (positions in the
    group), the group's positions ordered by window-normalized amide
    distance to the anchor, ties in the group's order. One array pass: a
    row of distances per anchor, padded with +inf past its group's end,
    each row sorted stably."""
    sizes = np.array([len(group) for group in groups], dtype=np.int64)
    counts = np.array([len(at) for at in anchors], dtype=np.int64)
    peak = np.array([site[0] for group in groups for site in group], dtype=np.int64)
    # per anchor, its group's size, its group's first site, and its own site
    span, home = np.repeat(sizes, counts), np.repeat(np.cumsum(sizes) - sizes, counts)
    pivot = peak[home + np.array([k for at in anchors for k in at], dtype=np.int64)]
    width = int(sizes.max(initial=0))
    a, b = np.nonzero(np.arange(width) < span[:, None])
    x = np.abs(amide[peak[home[a] + b]] - amide[pivot[a]]) / np.array([tol.delta1, tol.delta2])
    x[np.isnan(x)] = 0.0  # a coordinate missing on either side adds nothing
    distance = np.full((len(span), width), np.inf)
    distance[a, b] = x[:, 0] + x[:, 1]
    ranked = np.argsort(distance, axis=1, kind="stable").tolist()
    orders = iter([row[:n] for row, n in zip(ranked, span.tolist())])
    return [{k: next(orders) for k in at} for at in anchors]


def _role_search(
    sites: Sequence[_Site],
    pattern: Mapping[str, int],
    tol: Tolerances,
    skip_always: bool,
    visits: Iterator[int],
) -> list[tuple[frozenset[int], _RoleMap]]:
    """Role assignments of (subsets of) the peaks of ``sites``, in search
    order, as (member set, ((peak index, role), ...)) pairs.

    A carbon-carrying peak takes a role its spectrum offers, has not used
    yet, and whose carbons taken so far lie within δ3 of its own; a peak
    without a carbon takes the role None; no spectrum gets more peaks than
    ``pattern`` allows. With ``skip_always`` every subset is searched;
    otherwise a peak is left out only when it has no role left on its
    branch, so every result is locally maximal. Each step draws from
    ``visits``, the step counter of the peaks' component.
    """
    size, budget, delta3 = len(sites), EXPANSION_BUDGET, tol.delta3
    results = []
    # the branch's state, changed on the way down and restored on the way
    # back: its (peak, role) choices, its peaks per spectrum, and per role
    # the spectra that took it and their lowest and highest carbon
    chosen: list[tuple[int, str | None]] = []
    counts = dict.fromkeys(pattern, 0)
    roles_used = {role for *_, roles in sites for role in roles}
    taken: dict[str, set[str]] = {role: set() for role in roles_used}
    lo, hi = dict.fromkeys(roles_used, math.inf), dict.fromkeys(roles_used, -math.inf)

    def visit(t: int) -> None:
        # each pass is one step; a peak without options is left out, and
        # the search goes on with the next peak in the same call
        while True:
            if next(visits) > budget:
                raise ComponentTooLargeError("grouping expansion budget exhausted; tolerances too loose")
            if t == size:
                if chosen:
                    results.append((frozenset(i for i, _ in chosen), tuple(chosen)))
                return
            i, spectrum, carbon, roles = sites[t]
            if counts[spectrum] < pattern[spectrum]:
                # float subtraction is monotone, so the extremes decide
                # whether any carbon taken lies beyond delta3
                options = [None] if carbon is None else [
                    role
                    for role in roles
                    if not (spectrum in taken[role] or carbon - lo[role] > delta3
                            or hi[role] - carbon > delta3)
                ]
                if options:
                    break
            t += 1
        if skip_always:
            visit(t + 1)
        counts[spectrum] += 1
        for role in options:
            chosen.append((i, role))
            if role is None:
                visit(t + 1)
            else:
                low, high = lo[role], hi[role]
                taken[role].add(spectrum)
                lo[role], hi[role] = min(low, carbon), max(high, carbon)
                visit(t + 1)
                taken[role].remove(spectrum)
                lo[role], hi[role] = low, high
            chosen.pop()
        counts[spectrum] -= 1

    visit(0)
    return results


def _expand_clique(
    clique: Sequence[int],
    members: Sequence[_Site],
    orders: Mapping[int, Sequence[int]] | None,
    pattern: Mapping[str, int],
    tol: Tolerances,
    visits: Iterator[int],
) -> list[tuple[frozenset[int], _RoleMap]]:
    """Enumerate role assignments for (subsets of) a clique of peak indices.

    ``members`` are the sites of the clique's component whose spectrum the
    pattern holds, by spectrum and then index; ``orders`` holds the anchor
    orders (``_anchor_orders``) of those the clique may anchor on. Returns
    (member set, ((peak index, role), ...)) pairs. In exhaustive mode
    (``orders`` None) every valid subset is returned once (first feasible
    role map); otherwise only assignments whose member set is maximal are
    kept.
    """
    inside = set(clique)
    at = [k for k, site in enumerate(members) if site[0] in inside]

    if orders is None:
        by_members: dict[frozenset[int], _RoleMap] = {}
        for member_set, role_map in _role_search([members[k] for k in at], pattern, tol, True, visits):
            by_members.setdefault(member_set, role_map)
        return sorted(by_members.items(), key=lambda item: sorted(item[0]))

    # One search per amide anchor. Ordering the clique by window-normalized
    # amide distance to the anchor (ties in the clique's order) lets that
    # residue's peaks claim the per-spectrum slots before any merged
    # neighbor's peaks. That order is the anchor's order of its component,
    # restricted to the clique.
    anchors = [k for k in at if members[k][2] is None] or at
    positions = set(at)
    role_maps: dict[frozenset[int], set[_RoleMap]] = {}
    for a in anchors:
        ordered = [members[k] for k in orders[a] if k in positions]
        for member_set, role_map in _role_search(ordered, pattern, tol, False, visits):
            role_maps.setdefault(member_set, set()).add(role_map)

    maximal: list[frozenset[int]] = []
    for s in sorted(role_maps, key=lambda s: (-len(s), sorted(s))):
        if not any(s < kept for kept in maximal):
            maximal.append(s)
    return [
        (s, role_map)
        for s in sorted(maximal, key=sorted)
        for role_map in sorted(role_maps[s], key=lambda rm: [(i, role or "") for i, role in rm])
    ]


def enumerate_groupings(
    graph: CompatibilityGraph,
    expected_pattern: Mapping[str, int],
    top_k: int | None,
    priors: PriorTable,
    tol: Tolerances,
) -> GroupingTable:
    """Expand maximal cliques of the graph's peaks into groupings.

    With ``top_k`` set, only the top_k largest maximal cliques per connected
    component are expanded (size descending, ties by lexicographic member
    list) and only maximal groupings are emitted. With ``top_k=None`` every
    clique is expanded into every valid subset, which reproduces brute-force
    enumeration at small scale.
    """
    pattern = {canonical_name(name): count for name, count in expected_pattern.items()}
    peaks, sites = graph.peaks, _site_table(graph.peaks)
    # the linked pairs, row-major: np.nonzero of a 2-D array is far slower
    first, second = np.divmod(np.flatnonzero(graph.adjacency), len(peaks))
    components = _connected_components(first, second, len(peaks))
    for comp in components:
        if len(comp) > COMPONENT_BUDGET:
            raise ComponentTooLargeError(
                f"component with {len(comp)} peaks exceeds budget {COMPONENT_BUDGET}"
            )
    # a complete component is its own one maximal clique; the others'
    # cliques come from Bron-Kerbosch over each peak's neighbours
    degree = np.bincount(first, minlength=len(peaks)).tolist()
    complete = [all(degree[v] == len(comp) - 1 for v in comp) for comp in components]
    bounds, second = np.cumsum([0, *degree]).tolist(), second.tolist()
    # each component's sites of the pattern's spectra, by spectrum and then
    # index, and with top_k their orders from each site a clique may anchor
    # on: in a complete component its sites without a carbon, if any
    members = [
        sorted((sites[i] for i in comp if sites[i][1] in pattern), key=lambda s: (s[1], s[0]))
        for comp in components
    ]
    orders: list[dict[int, list[int]] | None] = [None] * len(components)
    if top_k is not None:
        anchors = []
        for whole, group in zip(complete, members):
            bare = [k for k, site in enumerate(group) if site[2] is None]
            anchors.append(bare if whole and bare else list(range(len(group))))
        orders = _anchor_orders(members, anchors, graph.amide, tol)

    # an insertion-ordered set: cliques overlap, so the same assignment can
    # be found twice
    assignments: dict[tuple[frozenset[int], _RoleMap], None] = {}
    for comp, whole, group, orders_of in zip(components, complete, members, orders):
        if whole:
            cliques = [comp]
        else:
            neighbours = {v: frozenset(second[bounds[v]:bounds[v + 1]]) for v in comp}
            cliques = _maximal_cliques(comp, neighbours)[:top_k]
        visits = itertools.count(1)  # role-search steps of this component
        for clique in cliques:
            for item in _expand_clique(clique, group, orders_of, pattern, tol, visits):
                assignments[item] = None
    return _peak_table(peaks, sites, graph.amide, assignments, priors)


def _peak_table(
    peaks: Sequence[Peak],
    sites: Sequence[_Site],
    amide: np.ndarray,
    assignments: Collection[tuple[frozenset[int], _RoleMap]],
    priors: PriorTable,
) -> GroupingTable:
    """The groupings of these role assignments, ordered by member list and
    then by observed role names (ties in the assignments' order). Each has
    every member's amide pair under HN and N, and each carbon under the
    role it was given; a missing coordinate is not observed."""
    size, roles = len(assignments), list(_COLUMNS)
    present = ~np.isnan(amide)
    # every role map's (row, peak, role column), -1 for a peak without a
    # carbon, with each row's peaks ascending
    maps = [role_map for _, role_map in assignments]
    lengths = np.array([len(role_map) for role_map in maps], dtype=np.int64)
    owner = np.repeat(np.arange(size), lengths)
    chosen = list(itertools.chain.from_iterable(maps))
    at = np.fromiter(map(itemgetter(0), chosen), np.int64, len(chosen))
    column_of = {**_COLUMNS, None: -1}
    named = map(itemgetter(1), chosen)
    column = np.fromiter(map(column_of.__getitem__, named), np.int64, len(chosen))
    # one int key per (row, peak) pair: an argsort by it is far cheaper than
    # np.lexsort
    order = np.argsort(owner * len(peaks) + at)
    owner, at, column = owner[order], at[order], column[order]
    # the roles each row observes: its carbons', and HN and N where a member
    # has the coordinate
    seen = np.zeros((size, len(roles)), dtype=bool)
    carbon = column >= 0
    seen[owner[carbon], column[carbon]] = True
    seen[owner[present[at, 0]], _COLUMNS["HN"]] = True
    seen[owner[present[at, 1]], _COLUMNS["N"]] = True
    # the rows by member list and then by role names, each list ascending
    # and padded with -1 so that a prefix sorts first; ties stay in order
    width = int(lengths.max(initial=0))
    keys = np.full((size, width + len(roles)), -1, dtype=np.int64)
    keys[owner, np.arange(len(at)) - np.repeat(np.cumsum(lengths) - lengths, lengths)] = at
    names = np.argsort(roles)  # the role columns in name order
    ranked = np.sort(np.where(seen[:, names], np.arange(len(roles)), len(roles)), axis=1)
    keys[:, width:] = np.where(ranked < len(roles), ranked, -1)
    rank = np.lexsort(keys.T[::-1])
    new = np.empty(size, dtype=np.int64)
    new[rank] = np.arange(size)
    order = np.argsort(new[owner] * len(peaks) + at)
    owner, at, column, lengths = new[owner][order], at[order], column[order], lengths[rank]

    # every member's amide pair, then each carbon under its role
    h, n = np.flatnonzero(present[at, 0]), np.flatnonzero(present[at, 1])
    c = np.flatnonzero(column >= 0)
    row = np.concatenate([owner[h], owner[n], owner[c]])
    source = np.concatenate([at[h], at[n], at[c]])
    column = np.concatenate([np.full(len(h), _COLUMNS["HN"]), np.full(len(n), _COLUMNS["N"]), column[c]])
    carbons = np.array(list(map(itemgetter(2), sites)), dtype=float)  # None reads as NaN
    value = np.concatenate([amide[at[h], 0], amide[at[n], 1], carbons[at[c]]])
    # consensus order: by row, then role name, then peak
    order = np.argsort((row * len(roles) + np.argsort(names)[column]) * len(peaks) + source)
    row, source, column, value = row[order], source[order], column[order], value[order]
    # each sigma looked up once per spectrum and role that occur, in a table
    # indexed by spectrum code and role column
    spectra = list(EXPERIMENTS)
    code_of = {name: k for k, name in enumerate(spectra)}
    spectrum = np.fromiter(map(code_of.__getitem__, map(itemgetter(1), sites)), np.int64, len(sites))
    pair = spectrum[source] * len(roles) + column
    noise = np.zeros(len(spectra) * len(roles))
    for q in np.flatnonzero(np.bincount(pair, minlength=len(noise))).tolist():
        noise[q] = priors.noise_for(spectra[q // len(roles)], roles[q % len(roles)])
    sigma = noise[pair]
    return GroupingTable(
        [f"g{idx:05d}" for idx in range(size)],
        [p.peak_id for p in peaks],
        np.concatenate([[0], np.cumsum(lengths)]),
        at,
        row, column, value, sigma, source,
    )


def spins_to_groupings(spins: Sequence[SpinSystem], priors: PriorTable) -> GroupingTable:
    """One degenerate grouping per spin system, one observation per role."""
    return GroupingTable.from_rows([
        (spin.system_id, [spin.system_id], {
            role: [(value, priors.noise_for(SPIN_NOISE, role), spin.system_id)]
            for role, value in sorted(spin.shifts.items())
        })
        for spin in spins
    ])
