"""Enumeration of internally consistent peak groupings.

All of it works on integer indices into one peak table, sorted by peak id,
so index order is id order. The compatibility graph is that table plus its
(n × n) amide matrix: two peaks are linked when their amide (H, N)
coordinates agree within tolerance, by one comparison per dimension.
Maximal cliques of the graph are then expanded into groupings by a role
search over rows of a site table (each peak's canonical spectrum, carbon
and candidate roles, built once per enumeration): it gives each
carbon-carrying peak an atom role so that same-role values agree within the
carbon window and the grouping's per-spectrum composition does not exceed
the expected pattern. Budgets on component size and on search steps per
component stop runs whose tolerances are too loose.

Spin-system input bypasses all of this: each system becomes one degenerate
grouping with a single observation per present role.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    NmrAssignError,
    Observation,
    Peak,
    PriorTable,
    SpinSystem,
    Tolerances,
)
from .experiments import SPIN_NOISE, candidate_roles, canonical_name

#: most peaks one connected component of the compatibility graph may hold
COMPONENT_BUDGET = 64
#: most role-search steps one component may take
EXPANSION_BUDGET = 500_000

#: (peak index, canonical spectrum, carbon or None, candidate roles): one
#: peak's row of the site table, indexed like the compatibility graph's peaks
_Site = tuple[int, str, float | None, tuple[str, ...]]
#: ((peak index, role), ...) for the peaks of one grouping; None is the role
#: of a peak without a carbon
_RoleMap = tuple[tuple[int, str | None], ...]


class ComponentTooLargeError(NmrAssignError):
    """A connected component exceeded the peak or search-step budget;
    tolerances are probably too loose for this dataset."""


@dataclass(frozen=True)
class PeakGrouping:
    """A set of mutually consistent peaks, candidate evidence for one residue."""

    grouping_id: str
    member_peaks: frozenset[str]
    #: compared, but left out of the hash: a dict does not hash
    consensus: Mapping[str, tuple[Observation, ...]] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "consensus", dict(self.consensus))

    def observations(self, role: str) -> tuple[Observation, ...]:
        return self.consensus.get(role, ())


@dataclass(frozen=True, eq=False)
class CompatibilityGraph:
    """The peaks, sorted by id, and their (n × n) amide matrix: entry (i, j)
    is True when peaks i and j agree in their amide coordinates."""

    peaks: tuple[Peak, ...]
    adjacency: np.ndarray


def _amide_array(peaks: Sequence[Peak]) -> np.ndarray:
    """The peaks' (H, N) coordinates as an (n × 2) array, NaN where missing."""
    return np.array([(p.coord("H"), p.coord("N")) for p in peaks], dtype=float).reshape(-1, 2)


def _amide_matrix(peaks: Sequence[Peak], tol: Tolerances) -> np.ndarray:
    """(n × n) booleans: peaks i and j agree in H within δ1 and in N within
    δ2. A missing coordinate never counts as too far apart. The diagonal is
    False."""
    amide = _amide_array(peaks)
    close = np.ones((len(peaks), len(peaks)), dtype=bool)
    for column, window in ((0, tol.delta1), (1, tol.delta2)):
        x = amide[:, column]
        close &= ~(np.abs(x[:, None] - x) > window)
    np.fill_diagonal(close, False)
    return close


def build_compatibility_graph(peaks: Sequence[Peak], tol: Tolerances) -> CompatibilityGraph:
    """Link every pair of peaks whose shared amide coordinates match.

    Carbon consistency is not decidable pairwise (role labels are assigned
    per grouping), so it is enforced during expansion instead.
    """
    ordered = tuple(sorted(peaks, key=lambda p: p.peak_id))
    return CompatibilityGraph(ordered, _amide_matrix(ordered, tol))


def _connected_components(neighbours: Sequence[frozenset[int]]) -> list[list[int]]:
    """Each component's peak indices, ascending, in order of its first."""
    seen: set[int] = set()
    components = []
    for start in range(len(neighbours)):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in sorted(neighbours[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(sorted(comp))
    return components


def _maximal_cliques(vertices: Sequence[int], adj: Sequence[frozenset[int]]) -> list[list[int]]:
    """Bron-Kerbosch with pivoting, deterministic order."""
    cliques: list[list[int]] = []

    def visit(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            visit(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    visit([], set(vertices), set())
    return sorted(cliques, key=lambda c: (-len(c), c))


def _site_table(peaks: Sequence[Peak]) -> list[_Site]:
    """(index, canonical spectrum, carbon or None, candidate roles) per peak."""
    return [
        (i, canonical_name(p.spectrum_id), p.coord("C"), candidate_roles(p.spectrum_id, p.phase))
        for i, p in enumerate(peaks)
    ]


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
    spans = {role: ((), math.inf, -math.inf) for *_, roles in sites for role in roles}

    def visit(t: int) -> None:
        if next(visits) > budget:
            raise ComponentTooLargeError("grouping expansion budget exhausted; tolerances too loose")
        if t == size:
            if chosen:
                results.append((frozenset(i for i, _ in chosen), tuple(chosen)))
            return
        i, spectrum, carbon, roles = sites[t]
        options: list[str | None] = []
        if counts[spectrum] < pattern[spectrum]:
            # float subtraction is monotone, so the extremes decide whether
            # any carbon taken lies beyond delta3
            options = [None] if carbon is None else [
                role
                for role in roles
                if not (spectrum in (span := spans[role])[0] or carbon - span[1] > delta3
                        or span[2] - carbon > delta3)
            ]
        if skip_always or not options:
            visit(t + 1)
        counts[spectrum] += 1
        for role in options:
            chosen.append((i, role))
            if role is None:
                visit(t + 1)
            else:
                span = spans[role]
                spans[role] = ((*span[0], spectrum), min(span[1], carbon), max(span[2], carbon))
                visit(t + 1)
                spans[role] = span
            chosen.pop()
        counts[spectrum] -= 1

    visit(0)
    return results


def _expand_clique(
    clique: Sequence[int],
    sites: Sequence[_Site],
    amide: np.ndarray,
    pattern: Mapping[str, int],
    tol: Tolerances,
    exhaustive: bool,
    visits: Iterator[int],
) -> list[tuple[frozenset[int], _RoleMap]]:
    """Enumerate role assignments for (subsets of) a clique of peak indices.

    Returns (member set, ((peak index, role), ...)) pairs. In exhaustive
    mode every valid subset is returned once (first feasible role map);
    otherwise only assignments whose member set is maximal are kept.
    """
    members = sorted((sites[i] for i in clique if sites[i][1] in pattern), key=lambda s: (s[1], s[0]))

    if exhaustive:
        by_members: dict[frozenset[int], _RoleMap] = {}
        for member_set, role_map in _role_search(members, pattern, tol, True, visits):
            by_members.setdefault(member_set, role_map)
        return sorted(by_members.items(), key=lambda item: sorted(item[0]))

    # One search per amide anchor. Ordering the clique by window-normalized
    # amide distance to the anchor (ties in the clique's order) lets that
    # residue's peaks claim the per-spectrum slots before any merged
    # neighbor's peaks.
    rows = amide[[s[0] for s in members]]
    windows = np.array([tol.delta1, tol.delta2])
    anchors = [a for a, s in enumerate(members) if s[2] is None] or range(len(members))
    role_maps: dict[frozenset[int], set[_RoleMap]] = {}
    for a in anchors:
        distance = np.nansum(np.abs(rows - rows[a]) / windows, axis=1)
        ordered = [members[i] for i in np.argsort(distance, kind="stable")]
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


def _consensus(
    member_set: frozenset[int],
    role_map: _RoleMap,
    observation: Callable[[int, str], Observation | None],
) -> dict[str, tuple[Observation, ...]]:
    """Observations per role: every member's amide pair, in peak order, then
    each carbon under the role it was given. ``observation(i, role)`` is
    peak i's observation under that role, None without the coordinate."""
    consensus: dict[str, list[Observation]] = {}
    amides = [(i, role) for i in sorted(member_set) for role in ("HN", "N")]
    for i, role in amides + sorted(item for item in role_map if item[1] is not None):
        if (obs := observation(i, role)) is not None:
            consensus.setdefault(role, []).append(obs)
    return {role: tuple(obs) for role, obs in sorted(consensus.items())}


def enumerate_groupings(
    graph: CompatibilityGraph,
    expected_pattern: Mapping[str, int],
    top_k: int | None,
    priors: PriorTable,
    tol: Tolerances,
) -> list[PeakGrouping]:
    """Expand maximal cliques of the graph's peaks into groupings.

    With ``top_k`` set, only the top_k largest maximal cliques per connected
    component are expanded (size descending, ties by lexicographic member
    list) and only maximal groupings are emitted. With ``top_k=None`` every
    clique is expanded into every valid subset, which reproduces brute-force
    enumeration at small scale.
    """
    pattern = {canonical_name(name): count for name, count in expected_pattern.items()}
    peaks, sites, amide = graph.peaks, _site_table(graph.peaks), _amide_array(graph.peaks)
    neighbours = [frozenset(np.flatnonzero(row).tolist()) for row in graph.adjacency]
    components = _connected_components(neighbours)
    for comp in components:
        if len(comp) > COMPONENT_BUDGET:
            raise ComponentTooLargeError(
                f"component with {len(comp)} peaks exceeds budget {COMPONENT_BUDGET}"
            )

    # an insertion-ordered set: cliques overlap, so the same assignment can
    # be found twice
    assignments: dict[tuple[frozenset[int], _RoleMap], None] = {}
    for comp in components:
        cliques = _maximal_cliques(comp, neighbours)
        if top_k is not None:
            cliques = cliques[:top_k]
        visits = itertools.count(1)  # role-search steps of this component
        for clique in cliques:
            for item in _expand_clique(clique, sites, amide, pattern, tol, top_k is None, visits):
                assignments[item] = None

    @functools.cache
    def observation(i: int, role: str) -> Observation | None:
        """Built once per peak and role, and shared by the groupings."""
        value = peaks[i].coord({"HN": "H", "N": "N"}.get(role, "C"))
        if value is None:
            return None
        return Observation(role, value, peaks[i].peak_id, priors.noise_for(sites[i][1], role))

    found = sorted(
        (
            (member_set, _consensus(member_set, role_map, observation))
            for member_set, role_map in assignments
        ),
        key=lambda item: (sorted(item[0]), sorted(item[1])),
    )
    return [
        PeakGrouping(f"g{idx:05d}", frozenset(peaks[i].peak_id for i in member_set), consensus)
        for idx, (member_set, consensus) in enumerate(found)
    ]


def spins_to_groupings(spins: Sequence[SpinSystem], priors: PriorTable) -> list[PeakGrouping]:
    """One degenerate grouping per spin system, one observation per role."""
    groupings = []
    for spin in spins:
        consensus = {
            role: (
                Observation(role, value, spin.system_id, priors.noise_for(SPIN_NOISE, role)),
            )
            for role, value in sorted(spin.shifts.items())
        }
        groupings.append(
            PeakGrouping(
                grouping_id=spin.system_id,
                member_peaks=frozenset({spin.system_id}),
                consensus=consensus,
            )
        )
    return groupings

