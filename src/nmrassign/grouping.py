"""Enumeration of internally consistent peak groupings.

Peaks are first linked pairwise when their amide (H, N) coordinates agree
within tolerance; maximal cliques of that compatibility graph are then
expanded into groupings by assigning each carbon-carrying peak an atom role
so that same-role values agree within the carbon window and the grouping's
per-spectrum composition does not exceed the expected pattern.

Spin-system input bypasses all of this: each system becomes one degenerate
grouping with a single observation per present role.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain import (
    NmrAssignError,
    Observation,
    Peak,
    PriorTable,
    SpinSystem,
    Tolerances,
)
from .experiments import candidate_roles, canonical_name


class ComponentTooLargeError(NmrAssignError):
    """A connected component exceeded the vertex budget; tolerances are
    probably too loose for this dataset."""


@dataclass(frozen=True)
class PeakGrouping:
    """A set of mutually consistent peaks, candidate evidence for one residue."""

    grouping_id: str
    member_peaks: frozenset[str]
    consensus: Mapping[str, tuple[Observation, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "consensus", dict(self.consensus))

    def observations(self, role: str) -> tuple[Observation, ...]:
        return self.consensus.get(role, ())


@dataclass(frozen=True)
class CompatibilityGraph:
    vertices: tuple[str, ...]
    adjacency: Mapping[str, frozenset[str]]


def _amide_compatible(p: Peak, q: Peak, tol: Tolerances) -> bool:
    for label, window in (("H", tol.delta1), ("N", tol.delta2)):
        a, b = p.coord(label), q.coord(label)
        if a is not None and b is not None and abs(a - b) > window:
            return False
    return True


def _amide_distance(p: Peak, anchor: Peak, tol: Tolerances) -> float:
    """Window-normalized amide distance, for ordering peaks around an anchor."""
    total = 0.0
    for label, window in (("H", tol.delta1), ("N", tol.delta2)):
        a, b = p.coord(label), anchor.coord(label)
        if a is not None and b is not None:
            total += abs(a - b) / window
    return total


def build_compatibility_graph(peaks: Sequence[Peak], tol: Tolerances) -> CompatibilityGraph:
    """Link every pair of peaks whose shared amide coordinates match.

    Carbon consistency is not decidable pairwise (role labels are assigned
    per grouping), so it is enforced during expansion instead.
    """
    ordered = sorted(peaks, key=lambda p: p.peak_id)
    adj: dict[str, set[str]] = {p.peak_id: set() for p in ordered}
    for i, p in enumerate(ordered):
        for q in ordered[i + 1 :]:
            if _amide_compatible(p, q, tol):
                adj[p.peak_id].add(q.peak_id)
                adj[q.peak_id].add(p.peak_id)
    return CompatibilityGraph(
        vertices=tuple(p.peak_id for p in ordered),
        adjacency={pid: frozenset(nbrs) for pid, nbrs in adj.items()},
    )


def _connected_components(graph: CompatibilityGraph) -> list[list[str]]:
    seen: set[str] = set()
    components = []
    for start in graph.vertices:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in sorted(graph.adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(sorted(comp))
    return components


def _maximal_cliques(vertices: Sequence[str], adj: Mapping[str, frozenset[str]]) -> list[list[str]]:
    """Bron-Kerbosch with pivoting, deterministic order."""
    cliques: list[list[str]] = []

    def visit(r: list[str], p: set[str], x: set[str]) -> None:
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


class _ExpansionBudget:
    def __init__(self, limit: int) -> None:
        self.remaining = limit

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise ComponentTooLargeError(
                "grouping expansion budget exhausted; tolerances too loose"
            )


class _CliqueSearch:
    """Backtracking role assignment over one clique's peaks."""

    def __init__(
        self,
        members: Sequence[Peak],
        pattern: Mapping[str, int],
        tol: Tolerances,
        budget: _ExpansionBudget,
    ) -> None:
        self.members = members
        self.pattern = pattern
        self.tol = tol
        self.budget = budget
        self.results: list[tuple[frozenset[str], tuple[tuple[str, str | None], ...]]] = []
        self.chosen: list[tuple[str, str | None]] = []
        self.spectrum_counts: dict[str, int] = {}
        self.used_spectrum_roles: set[tuple[str, str]] = set()
        self.role_values: dict[str, list[float]] = {}

    def _options(self, peak: Peak) -> list[str | None]:
        spectrum = canonical_name(peak.spectrum_id)
        if self.spectrum_counts.get(spectrum, 0) >= self.pattern[spectrum]:
            return []
        if peak.coord("C") is None:
            return [None]
        c_value = peak.coord("C")
        options: list[str | None] = []
        for role in candidate_roles(spectrum, peak.phase):
            if (spectrum, role) in self.used_spectrum_roles:
                continue
            if any(abs(c_value - v) > self.tol.delta3 for v in self.role_values.get(role, [])):
                continue
            options.append(role)
        return options

    def _push(self, peak: Peak, role: str | None) -> None:
        spectrum = canonical_name(peak.spectrum_id)
        self.chosen.append((peak.peak_id, role))
        self.spectrum_counts[spectrum] = self.spectrum_counts.get(spectrum, 0) + 1
        if role is not None:
            self.used_spectrum_roles.add((spectrum, role))
            self.role_values.setdefault(role, []).append(peak.coord("C"))

    def _pop(self, peak: Peak, role: str | None) -> None:
        spectrum = canonical_name(peak.spectrum_id)
        self.chosen.pop()
        self.spectrum_counts[spectrum] -= 1
        if role is not None:
            self.used_spectrum_roles.remove((spectrum, role))
            self.role_values[role].pop()
            if not self.role_values[role]:
                del self.role_values[role]

    def run(self, skip_mode: str) -> list[tuple[frozenset[str], tuple]]:
        """skip_mode: 'always' (every subset) or 'forced' (skip a peak only
        when it has no feasible role on the current branch)."""
        self.results = []
        self._visit(0, skip_mode)
        return self.results

    def _visit(self, t: int, skip_mode: str) -> None:
        self.budget.spend()
        if t == len(self.members):
            if self.chosen:
                self.results.append(
                    (frozenset(pid for pid, _ in self.chosen), tuple(self.chosen))
                )
            return
        peak = self.members[t]
        options = self._options(peak)
        if skip_mode == "always" or not options:
            self._visit(t + 1, skip_mode)
            if not options:
                return
        for role in options:
            self._push(peak, role)
            self._visit(t + 1, skip_mode)
            self._pop(peak, role)


def _expand_clique(
    clique: Sequence[str],
    peaks_by_id: Mapping[str, Peak],
    pattern: Mapping[str, int],
    tol: Tolerances,
    exhaustive: bool,
    budget: _ExpansionBudget,
) -> list[tuple[frozenset[str], tuple[tuple[str, str | None], ...]]]:
    """Enumerate role assignments for (subsets of) a clique.

    Returns (member set, ((peak_id, role), ...)) pairs. In exhaustive mode
    every valid subset is returned once (first feasible role map); otherwise
    only assignments whose member set is maximal are kept.
    """
    members = [
        peaks_by_id[pid]
        for pid in sorted(clique)
        if canonical_name(peaks_by_id[pid].spectrum_id) in pattern
    ]
    members.sort(key=lambda p: (canonical_name(p.spectrum_id), p.peak_id))

    if exhaustive:
        search = _CliqueSearch(members, pattern, tol, budget)
        results = search.run("always")
        by_members: dict[frozenset[str], tuple[tuple[str, str | None], ...]] = {}
        for member_set, role_map in results:
            by_members.setdefault(member_set, role_map)
        return sorted(by_members.items(), key=lambda item: sorted(item[0]))

    # One forced run per amide anchor. Ordering the clique by amide distance
    # to the anchor lets that residue's peaks claim the per-spectrum slots
    # before any merged neighbor's peaks; forced-mode results are locally
    # maximal because a peak is only ever skipped when it has no feasible
    # role left on that branch.
    anchors = [m for m in members if m.coord("C") is None] or list(members)
    results = []
    for anchor in anchors:
        ordered = sorted(
            members,
            key=lambda p: (
                _amide_distance(p, anchor, tol),
                canonical_name(p.spectrum_id),
                p.peak_id,
            ),
        )
        search = _CliqueSearch(ordered, pattern, tol, budget)
        results.extend(search.run("forced"))

    by_members_all: dict[frozenset[str], set[tuple[tuple[str, str | None], ...]]] = {}
    for member_set, role_map in results:
        by_members_all.setdefault(member_set, set()).add(role_map)
    member_sets = sorted(by_members_all, key=lambda s: (-len(s), sorted(s)))
    maximal: list[frozenset[str]] = []
    for s in member_sets:
        if not any(s < kept for kept in maximal):
            maximal.append(s)
    out = []
    for s in sorted(maximal, key=lambda s: sorted(s)):
        for role_map in sorted(
            by_members_all[s], key=lambda rm: [(pid, role or "") for pid, role in rm]
        ):
            out.append((s, role_map))
    return out


def _grouping_from_assignment(
    member_set: frozenset[str],
    role_map: Sequence[tuple[str, str | None]],
    peaks_by_id: Mapping[str, Peak],
    priors: PriorTable,
) -> PeakGrouping:
    consensus: dict[str, list[Observation]] = {}
    for pid in sorted(member_set):
        peak = peaks_by_id[pid]
        spectrum = canonical_name(peak.spectrum_id)
        for label, role in (("H", "HN"), ("N", "N")):
            value = peak.coord(label)
            if value is not None:
                consensus.setdefault(role, []).append(
                    Observation(role, value, pid, priors.noise_for(spectrum, role))
                )
    for pid, role in sorted(role_map, key=lambda item: (item[0], item[1] or "")):
        if role is None:
            continue
        peak = peaks_by_id[pid]
        spectrum = canonical_name(peak.spectrum_id)
        value = peak.coord("C")
        assert value is not None
        consensus.setdefault(role, []).append(
            Observation(role, value, pid, priors.noise_for(spectrum, role))
        )
    return PeakGrouping(
        grouping_id="",  # assigned after global ordering
        member_peaks=member_set,
        consensus={role: tuple(obs) for role, obs in sorted(consensus.items())},
    )


def enumerate_groupings(
    graph: CompatibilityGraph,
    peaks: Sequence[Peak],
    expected_pattern: Mapping[str, int],
    top_k: int | None,
    priors: PriorTable,
    tol: Tolerances,
    component_budget: int = 64,
    expansion_budget: int = 500_000,
) -> list[PeakGrouping]:
    """Expand maximal cliques into groupings.

    With ``top_k`` set, only the top_k largest maximal cliques per connected
    component are expanded (size descending, ties by lexicographic member
    list) and only maximal groupings are emitted. With ``top_k=None`` every
    clique is expanded into every valid subset, which reproduces brute-force
    enumeration at small scale.
    """
    pattern = {canonical_name(name): count for name, count in expected_pattern.items()}
    peaks_by_id = {p.peak_id: p for p in peaks}
    components = _connected_components(graph)
    for comp in components:
        if len(comp) > component_budget:
            raise ComponentTooLargeError(
                f"component with {len(comp)} peaks exceeds budget {component_budget}"
            )

    # cliques overlap, so the same assignment can be found twice
    assignments: list[tuple[frozenset[str], tuple]] = []
    seen: set[tuple[frozenset[str], tuple]] = set()
    for comp in components:
        adj = {v: graph.adjacency[v] & set(comp) for v in comp}
        cliques = _maximal_cliques(comp, adj)
        if top_k is not None:
            cliques = cliques[:top_k]
        budget = _ExpansionBudget(expansion_budget)
        for clique in cliques:
            for item in _expand_clique(
                clique, peaks_by_id, pattern, tol, top_k is None, budget
            ):
                if item not in seen:
                    seen.add(item)
                    assignments.append(item)

    groupings = [
        _grouping_from_assignment(member_set, role_map, peaks_by_id, priors)
        for member_set, role_map in assignments
    ]
    groupings.sort(key=lambda g: (sorted(g.member_peaks), sorted(g.consensus)))
    return [
        PeakGrouping(f"g{idx:05d}", g.member_peaks, g.consensus)
        for idx, g in enumerate(groupings)
    ]


def spins_to_groupings(
    spins: Sequence[SpinSystem], priors: PriorTable, spectrum_id: str = "spins"
) -> list[PeakGrouping]:
    """One degenerate grouping per spin system, one observation per role."""
    groupings = []
    for spin in spins:
        consensus = {
            role: (
                Observation(role, value, spin.system_id, priors.noise_for(spectrum_id, role)),
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

