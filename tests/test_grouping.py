import hashlib
import itertools

import numpy as np
import pytest

from nmrassign import grouping
from nmrassign.domain import Peak, SpinSystem, Tolerances, read_peaks
from nmrassign.experiments import BASIC_SET, FULL_SET, canonical_name, expected_pattern
from nmrassign.grouping import (
    COMPONENT_BUDGET,
    ComponentTooLargeError,
    GroupingTable,
    build_compatibility_graph,
    enumerate_groupings,
    spins_to_groupings,
)
from nmrassign.pipeline import bundled_priors, bundled_reference, run_simulate

from oracles import any_scan_role_search, brute_force_groupings


def _member_sets(table):
    """Each grouping's member ids, as a set of frozensets."""
    return {frozenset(table.member_ids(r)) for r in range(len(table))}


def _peak(pid, spectrum, h, n, c=None, phase=0):
    coords = [("H", h), ("N", n)]
    if c is not None:
        coords.append(("C", c))
    return Peak(pid, spectrum, tuple(coords), phase)


def _residue_peaks(prefix, h, n, ca, cb, ca_prev, cb_prev):
    """The seven-peak pattern of the three-experiment set for one residue."""
    return [
        _peak(f"{prefix}_hsqc", "hsqc", h, n),
        _peak(f"{prefix}_cacb_a", "hncacb", h, n, ca, +1),
        _peak(f"{prefix}_cacb_b", "hncacb", h, n, cb, -1),
        _peak(f"{prefix}_cacb_pa", "hncacb", h, n, ca_prev, +1),
        _peak(f"{prefix}_cacb_pb", "hncacb", h, n, cb_prev, -1),
        _peak(f"{prefix}_co_pa", "hncocacb", h, n, ca_prev, +1),
        _peak(f"{prefix}_co_pb", "hncocacb", h, n, cb_prev, -1),
    ]


PATTERN = expected_pattern(BASIC_SET)


def _linked(g, a, b):
    """Whether the compatibility graph links the peaks with ids a and b."""
    ids = [p.peak_id for p in g.peaks]
    return bool(g.adjacency[ids.index(a), ids.index(b)])


def test_compatibility_edges_trivial(default_tol):
    p1 = _peak("p1", "hsqc", 8.00, 120.0)
    p2 = _peak("p2", "hsqc", 8.01, 120.1)
    p3 = _peak("p3", "hsqc", 8.10, 120.0)
    g = build_compatibility_graph([p3, p1, p2], default_tol)
    assert [p.peak_id for p in g.peaks] == ["p1", "p2", "p3"]
    assert _linked(g, "p1", "p2")
    assert not _linked(g, "p1", "p3")


def _linked_by_brute_force(peaks, tol):
    """Check the compatibility graph of ``peaks`` pair by pair against the
    windows; returns (pairs compared with a coordinate missing, pairs linked
    exactly at a window's edge)."""
    g = build_compatibility_graph(peaks, tol)
    assert sorted(g.peaks, key=lambda p: p.peak_id) == list(g.peaks) and set(g.peaks) == set(peaks)
    missing = at_edge = 0
    for a in peaks:
        for b in peaks:
            expected, edge = a.peak_id != b.peak_id, False
            for label, window in (("H", tol.delta1), ("N", tol.delta2)):
                if a.coord(label) is None or b.coord(label) is None:
                    missing += 1
                elif abs(a.coord(label) - b.coord(label)) > window:
                    expected = False
                else:
                    edge |= abs(a.coord(label) - b.coord(label)) == window
            assert _linked(g, a.peak_id, b.peak_id) == expected, (a, b)
            at_edge += expected and edge
    return missing, at_edge


def test_compatibility_matches_pairwise_brute_force(default_tol):
    """A coordinate missing on either side never separates two peaks. The
    banded search links pairs exactly δ1 or δ2 apart and no pair one ulp
    further; with δ1 wider than every H difference only N separates."""
    rng = np.random.default_rng(3)
    peaks = [
        _peak(f"p{i}", "hsqc", float(rng.uniform(7.9, 8.1)), float(rng.uniform(119, 121)))
        for i in range(50)
    ]
    for i in range(20):
        h, n, c = float(rng.uniform(7.9, 8.1)), float(rng.uniform(119, 121)), float(rng.uniform(40, 60))
        coords = (("N", n), ("C", c)) if i % 2 else (("H", h), ("C", c))
        peaks.append(Peak(f"m{i}", "hncacb", coords, +1))
    missing, _ = _linked_by_brute_force(peaks, default_tol)
    assert missing > 0
    # peaks lacking H against peaks lacking N share no coordinate at all
    g = build_compatibility_graph(peaks, default_tol)
    assert all(_linked(g, "m0", f"m{i}") for i in range(1, 20, 2))

    # binary-exact windows and grid: many pairs lie exactly a window apart,
    # and nextafter puts a coordinate one ulp beyond one
    tol = Tolerances(delta1=0.125, delta2=0.5)
    grid = [
        _peak(f"q{i:02d}", "hsqc", 8.0 + 0.0625 * int(rng.integers(-3, 4)),
              120.0 + 0.25 * int(rng.integers(-3, 4)))
        for i in range(40)
    ]
    grid += [
        _peak("u_h", "hsqc", float(np.nextafter(8.125, np.inf)), 120.0),
        _peak("u_n", "hsqc", 8.0, float(np.nextafter(120.5, np.inf))),
        _peak("x_h", "hsqc", 8.0, 120.0),
        Peak("x_noh", "hncacb", (("N", 120.5), ("C", 50.0)), +1),
        Peak("x_non", "hncacb", (("H", 7.875), ("C", 50.0)), +1),
    ]
    for window in (tol, Tolerances(delta1=1e300, delta2=0.5)):
        missing, at_edge = _linked_by_brute_force(grid, window)
        assert missing > 0 and at_edge > 0
    g = build_compatibility_graph(grid, tol)
    assert not _linked(g, "x_h", "u_h") and not _linked(g, "x_h", "u_n")
    assert _linked(g, "x_h", "x_noh") and _linked(g, "x_h", "x_non")
    wide = build_compatibility_graph(grid, Tolerances(delta1=1e300, delta2=0.5))
    assert _linked(wide, "x_h", "u_h") and not _linked(wide, "x_h", "u_n")


def test_maximal_cliques_match_subset_brute_force():
    """Every maximal clique of a component, once, largest first and then in
    lexicographic order (the order ``top_k`` truncates), on random graphs
    whose vertex indices need not start at 0."""
    rng = np.random.default_rng(8)
    for trial in range(60):
        size = int(rng.integers(1, 11))
        vertices = sorted(rng.choice(40, size=size, replace=False).tolist())
        adj = {v: set() for v in range(40)}
        for a, b in itertools.combinations(vertices, 2):
            if rng.random() < 0.6:
                adj[a].add(b)
                adj[b].add(a)
        neighbours = [frozenset(adj[v]) for v in range(40)]
        cliques = [
            list(c)
            for k in range(1, size + 1)
            for c in itertools.combinations(vertices, k)
            if all(b in adj[a] for a, b in itertools.combinations(c, 2))
        ]
        maximal = [c for c in cliques if not any(set(c) < set(d) for d in cliques)]
        want = sorted(maximal, key=lambda c: (-len(c), c))
        assert grouping._maximal_cliques(vertices, neighbours) == want, trial


def test_single_clean_residue_expands_to_one_full_grouping(toy_priors, default_tol):
    peaks = _residue_peaks("r1", 8.0, 120.0, 53.0, 19.0, 45.0, 41.0)
    g = build_compatibility_graph(peaks, default_tol)
    groupings = enumerate_groupings(g, PATTERN, 4, toy_priors, default_tol)
    full = [r for r in range(len(groupings)) if len(groupings.member_ids(r)) == 7]
    assert len(full) == 1
    assert groupings.member_ids(full[0]) == sorted(p.peak_id for p in peaks)
    values = {role: v for role, (v, _, _) in groupings.consensus(full[0]).items()}
    # previous-residue roles carry two observations (HNCACB + HN(CO)CACB)
    assert len(values["CA_prev"]) == 2
    assert len(values["CB_prev"]) == 2
    assert len(values["CA"]) == 1
    assert len(values["HN"]) == 7
    assert set(values["HN"]) == {8.0}
    assert set(values["N"]) == {120.0}


def test_empty_input(toy_priors, default_tol):
    g = build_compatibility_graph([], default_tol)
    assert len(enumerate_groupings(g, PATTERN, 4, toy_priors, default_tol)) == 0


def test_exhaustive_equals_brute_force(toy_priors, default_tol):
    """Overlapping fingerprints: emitted member sets match subset enumeration."""
    rng = np.random.default_rng(11)
    peaks = []
    for i, (h, n) in enumerate([(8.0, 120.0), (8.02, 120.2)]):
        peaks.extend(
            [
                _peak(f"a{i}", "hsqc", h, n),
                _peak(f"b{i}", "hncacb", h, n, 53.0 + i, +1),
                _peak(f"c{i}", "hncacb", h, n, 19.0 + i, -1),
                _peak(f"d{i}", "hncocacb", h, n, 45.0 + 0.1 * i, +1),
            ]
        )
    peaks.extend(
        [
            _peak("x0", "hncacb", 8.01, 120.1, 53.2, +1),
            _peak("x1", "hnco", 8.01, 120.1, 174.0),
        ]
    )
    assert len(peaks) <= 12
    pattern = dict(PATTERN, hnco=1)
    g = build_compatibility_graph(peaks, default_tol)
    emitted = enumerate_groupings(g, pattern, None, toy_priors, default_tol)
    got = _member_sets(emitted)
    want = brute_force_groupings(peaks, pattern, default_tol)
    assert got == want


def test_role_consistency_within_grouping(toy_priors, default_tol):
    """Two same-role peaks beyond delta3 cannot share a grouping."""
    peaks = [
        _peak("a", "hncocacb", 8.0, 120.0, 45.0, +1),
        _peak("b", "hncacb", 8.0, 120.0, 45.0 + 2.0, +1),
    ]
    g = build_compatibility_graph(peaks, default_tol)
    emitted = enumerate_groupings(g, PATTERN, None, toy_priors, default_tol)
    member_sets = _member_sets(emitted)
    # peak "b" can still take the CA role; only the shared CA_prev clashes
    assert frozenset({"a", "b"}) in member_sets  # b as CA, a as CA_prev
    # but never both on the same role: check every emitted consensus
    for r in range(len(emitted)):
        for values, _, _ in emitted.consensus(r).values():
            assert max(values) - min(values) <= default_tol.delta3 + 1e-12


def test_monotone_in_tolerances(toy_priors):
    rng = np.random.default_rng(5)
    peaks = []
    for i in range(4):
        h = 8.0 + float(rng.uniform(-0.02, 0.02))
        n = 120.0 + float(rng.uniform(-0.2, 0.2))
        peaks.append(_peak(f"h{i}", "hncacb", h, n, 53.0 + float(rng.uniform(-0.2, 0.2)), +1))
    tight = Tolerances(delta1=0.02, delta2=0.2, delta3=0.2)
    loose = Tolerances(delta1=0.04, delta2=0.4, delta3=0.5)
    small = _member_sets(
        enumerate_groupings(build_compatibility_graph(peaks, tight), PATTERN, None, toy_priors, tight)
    )
    large = _member_sets(
        enumerate_groupings(build_compatibility_graph(peaks, loose), PATTERN, None, toy_priors, loose)
    )
    assert small <= large


def test_component_budget(toy_priors, default_tol):
    peaks = [_peak(f"p{i}", "hsqc", 8.0, 120.0) for i in range(COMPONENT_BUDGET + 1)]
    g = build_compatibility_graph(peaks, default_tol)
    with pytest.raises(ComponentTooLargeError):
        enumerate_groupings(g, PATTERN, 4, toy_priors, default_tol)


def test_expansion_budget(toy_priors, default_tol, monkeypatch):
    """The role-search steps of one component are capped, in both modes."""
    peaks = _residue_peaks("r1", 8.0, 120.0, 53.0, 19.0, 45.0, 41.0)
    g = build_compatibility_graph(peaks, default_tol)
    for top_k in (4, None):
        assert enumerate_groupings(g, PATTERN, top_k, toy_priors, default_tol)
        monkeypatch.setattr(grouping, "EXPANSION_BUDGET", 10)
        with pytest.raises(ComponentTooLargeError, match="expansion budget"):
            enumerate_groupings(g, PATTERN, top_k, toy_priors, default_tol)
        monkeypatch.undo()


#: carbon shift centres per role family, so that random peaks collide in
#: roles and fall on both sides of delta3
_CENTRES = {"CA": 55.0, "CB": 40.0, "CO": 176.0}


def _random_clique(rng, size):
    """Peaks of one amide, from random spectra of the seven-spectrum set,
    each with a carbon near a random role family's centre (HSQC without),
    on a quarter-ppm grid so that two carbons often lie exactly 0.5 apart."""
    peaks = []
    for i in range(size):
        spectrum = str(rng.choice(FULL_SET))
        phase = int(rng.choice([-1, 0, 1])) if spectrum == "hncacb" else 0
        carbon = None
        if spectrum != "hsqc":
            carbon = _CENTRES[str(rng.choice(list(_CENTRES)))] + 0.25 * int(rng.integers(-4, 5))
        peaks.append(_peak(f"p{i}", spectrum, 8.0, 120.0, carbon, phase))
    return peaks


def _role_search(members, pattern, tol, skip_always, visits):
    """``grouping._role_search`` over the members' site rows, its results in
    peak ids."""
    results = grouping._role_search(grouping._site_table(members), pattern, tol, skip_always, visits)
    ids = [p.peak_id for p in members]
    return [
        (frozenset(ids[i] for i in member_set), tuple((ids[i], role) for i, role in role_map))
        for member_set, role_map in results
    ]


def _search(search, members, pattern, tol, skip_always):
    """(results, steps drawn) of one role search, or (None, steps) when it
    ran out of budget."""
    visits = itertools.count(1)
    try:
        results = search(members, pattern, tol, skip_always, visits)
    except ComponentTooLargeError:
        results = None
    return results, next(visits) - 1


def test_role_search_matches_any_scan_oracle(monkeypatch):
    """The backtracking role search returns the stateless search's results,
    in its order, after the same number of steps, in both modes, also where
    two carbons lie exactly delta3 apart; with a budget it stops at the same
    step."""
    pattern = expected_pattern(FULL_SET)
    tol = Tolerances(delta3=0.5)
    rng = np.random.default_rng(15)
    found = steps = 0
    for trial in range(40):
        skip_always = trial % 2 == 0
        members = _random_clique(rng, int(rng.integers(3, 9 if skip_always else 15)))
        got = _search(_role_search, members, pattern, tol, skip_always)
        want = _search(any_scan_role_search, members, pattern, tol, skip_always)
        assert got == want, trial
        found += len(want[0])
        steps = max(steps, want[1])
    assert found > 0 and steps > 100
    # the budget trips mid-search, at the same step for both
    members = _random_clique(np.random.default_rng(1), 9)
    _, total = _search(any_scan_role_search, members, pattern, tol, True)
    monkeypatch.setattr(grouping, "EXPANSION_BUDGET", total // 2)
    got = _search(_role_search, members, pattern, tol, True)
    assert got == _search(any_scan_role_search, members, pattern, tol, True)
    assert got == (None, total // 2 + 1)


def test_deterministic_ids_and_order(toy_priors, default_tol):
    peaks = _residue_peaks("r1", 8.0, 120.0, 53.0, 19.0, 45.0, 41.0)
    peaks += _residue_peaks("r2", 7.5, 115.0, 45.2, 41.2, 53.1, 19.1)
    g = build_compatibility_graph(peaks, default_tol)
    first = enumerate_groupings(g, PATTERN, 4, toy_priors, default_tol)
    second = enumerate_groupings(g, PATTERN, 4, toy_priors, default_tol)
    assert first.ids == second.ids
    assert [first.member_ids(r) for r in range(len(first))] == [
        second.member_ids(r) for r in range(len(second))
    ]
    assert first.ids[0] == "g00000"


def _rows(table):
    """The table's groupings as ``GroupingTable.from_rows`` rows, read
    through ``ids``, ``member_ids`` and ``consensus``."""
    return [
        (gid, table.member_ids(r), {role: list(zip(*obs)) for role, obs in table.consensus(r).items()})
        for r, gid in enumerate(table.ids)
    ]


def test_grouping_table_from_rows_round_trips(toy_priors, default_tol):
    """A table rebuilt by ``from_rows`` from the rows of an enumerated table,
    and of a spins table, holds the same arrays; a row reads as Python
    floats and str ids."""
    peaks = _residue_peaks("r1", 8.0, 120.0, 53.0, 19.0, 45.0, 41.0)
    peaks += _residue_peaks("r2", 7.5, 115.0, 45.2, 41.2, 53.1, 19.1)
    table = enumerate_groupings(build_compatibility_graph(peaks, default_tol), PATTERN, 4,
                                toy_priors, default_tol)
    spins = spins_to_groupings([SpinSystem("s2", {"N": 121.0, "HN": 8.1, "CA": 54.0}),
                                SpinSystem("s1", {"N": 120.0, "CB_prev": 41.0})], toy_priors)
    for t in (table, spins):
        rows = _rows(t)
        assert len(rows) == len(t) > 0
        for _, _, consensus in rows:
            for value, sigma, pid in (o for obs in consensus.values() for o in obs):
                assert type(value) is float and type(sigma) is float and type(pid) is str
        again = GroupingTable.from_rows(rows)
        assert again.ids == t.ids and again.sources == t.sources
        for name in ("indptr", "members", "row", "column", "value", "sigma", "source"):
            x, y = getattr(again, name), getattr(t, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert spins.ids == ["s2", "s1"] and spins.sources == ["s1", "s2"]


#: sha256 of every grouping's id, sorted member peaks and per-role
#: (value, sigma, peak_id) observations on the peaks-ref40 panel (ref40, flya,
#: seeds 0 and 3, tolerances 0.08/0.8/0.8, top_k 20)
REF40_GROUPING_DIGESTS = {
    0: "7d989d5be9a4c0800b2ca2f482ac76f35180255d850e5a56a17edb23b72f9821",
    3: "ae014b090f334b9205054cf051eaa5755e945adbbe660b10cd0df8ad3c8e5ac2",
}


@pytest.mark.parametrize("seed", sorted(REF40_GROUPING_DIGESTS))
def test_ref40_groupings_are_pinned(tmp_path, seed):
    """The peaks-ref40 groupings do not move: same ids, members, roles and
    observations, down to each value's last bit."""
    ref, priors = bundled_reference("ref40"), bundled_priors()
    tol = Tolerances(delta1=0.08, delta2=0.8, delta3=0.8)
    run_simulate(tmp_path, "flya", ref.sequence, priors, seed, reference=ref)
    peaks = read_peaks(tmp_path / "peaks.tsv")
    spectra = sorted({canonical_name(p.spectrum_id) for p in peaks}, key=FULL_SET.index)
    groupings = enumerate_groupings(
        build_compatibility_graph(peaks, tol), expected_pattern(spectra), 20, priors, tol
    )
    digest = hashlib.sha256()
    for r, gid in enumerate(groupings.ids):
        roles = [
            (role, [(value.hex(), sigma.hex(), pid) for value, sigma, pid in zip(*obs)])
            for role, obs in groupings.consensus(r).items()
        ]
        digest.update(repr((gid, groupings.member_ids(r), roles)).encode())
    assert digest.hexdigest() == REF40_GROUPING_DIGESTS[seed]


def test_spins_to_groupings(toy_priors):
    spins = [
        SpinSystem("s1", {"N": 120.0, "HN": 8.0, "CA": 55.0, "CB": 19.0, "CA_prev": 45.0, "CB_prev": 41.0}),
        SpinSystem("s2", {"N": 121.0, "HN": 8.1, "CA": 54.0}),
    ]
    groupings = spins_to_groupings(spins, toy_priors)
    assert len(groupings) == 2
    assert len(groupings.consensus(0)) == 6
    assert len(groupings.consensus(1)) == 3
    assert groupings.consensus(0)["CA"] == ([55.0], [0.08], ["s1"])
    assert groupings.member_ids(0) == ["s1"]

