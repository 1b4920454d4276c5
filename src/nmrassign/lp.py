"""Linear programming formulations of the constrained assignment problem.

The shortest-path problem is written as a flow LP over the layered graph:
one variable per edge, a selection row per inner layer forcing unit flow,
and a conservation row per inner node. Peak-sharing is discouraged through
utilization rows, one per contested peak, that cap the total flow leaving
nodes consuming that peak. The hard variant caps it at one; the soft
variant allows overuse through slack variables priced at ``lambda``.
``peak_incidence`` lists, in numpy arrays, which contested peaks each
grouping consumes; it is built once per solve and serves both the
utilization rows and the Lagrangian stage.

The utilization rows are all that separates the program from the layered
shortest path. So before any LP is built, ``lian1`` and ``lian2`` run a
Lagrangian stage: the rows are relaxed with one multiplier per contested
peak, and each bound costs one ``dp_shortest_path`` pass with the
multipliers as node penalties. When the DP path meets its own bound
(complementary slackness) it is optimal, and no LP is formulated. The
relaxation has the integrality property, so this proves exactly the
instances whose root relaxation is integral, which are most peak lists.
After ``LAGRANGIAN_ITERATIONS`` passes without a proof the stage gives up
and the LP below decides. ``ilp`` skips the stage and stays the
full-program oracle.

The module loads numpy only, and ``formulate`` builds the constraint matrix
in numpy, column by column, as HiGHS reads it: ``LinearProgram.columns`` is
the program's one matrix, read by HiGHS, by ``_fault`` and by external
backends. A Lagrangian proof loads no scipy, and an LP no ``scipy.sparse``.
Relaxations go to HiGHS's dual simplex through ``linprog``, which hands
HiGHS's Python core the program with the options
``scipy.optimize.linprog(method="highs-ds")`` would, and answers in the
program's ``STATUSES``. The first solve loads that core from scipy's
installed files (``highs_core``) without importing ``scipy.optimize``,
whose package init loads most of scipy. ``solve_lp`` checks every answer,
the bundled backend's and an external one's, against the program: an
optimal answer must meet its bounds and rows within ``_RESIDUAL_TOL``. HiGHS's
vertex solutions are integral on pure flow polytopes. The root is solved
with presolve off (on peak lists, presolve took most of the root's time).
When utilization rows make the optimum fractional, the root's utilization
duals serve as Lagrangian multipliers: one forward and one backward DP
(``dp_edge_bounds``) bound every answer that uses an edge, and a branch
and bound searches only the edges whose bound lies within a margin of the
root, with that margin as its cutoff; the margin doubles until an answer
is found. Each such round searches a program of its own: ``formulate``
over the graph restricted to the round's kept edges, with the root's
utilization rows. Its first node is the root's answer, which uses kept
edges only (should it not, the node is solved); every later node is
solved on the round's one HiGHS model, from the basis the solve before it
left, with only the column bounds that differ from that solve's set. Every search node is
its program with some edge columns' upper bounds at 0: branching drops
edges. The exact ``ilp`` search skips the rule: it starts from the root
relaxation already solved, and its nodes run warm on the root's model.

Which of several tied optima comes back is up to HiGHS (and its basis),
or to the DP's tie rule. Swapping fragments (maximal runs of regular
nodes) between windows of equal residue types is such a tie. Every answer,
the Lagrangian stage's path or the one ``extract_path`` follows through an
integral solution, becomes a ``SolveResult`` in
``shortest_path.solve_result``, which maps it to its ``canonical_path``:
each group's sorted fragments go to its windows in position order, and the
answer no longer depends on which of the swaps the solver returned.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import inspect
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .domain import NODE_LIMIT, NmrAssignError, SolverError, Tolerances
from .graph import AssignmentGraph, consumed
from .shortest_path import NoPathError, SolveResult, dp_edge_bounds, dp_shortest_path, solve_result

VARIANTS = ("flow", "lian1", "lian2")
#: the statuses of an LP answer (``LpSolution.status``)
STATUSES = ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical_failure")

#: largest distance from 0 or 1 at which an edge value counts as integral
INT_TOL = 1e-6
#: a search node must beat the incumbent's objective by more than this
GAP_EPS = 1e-9


@dataclass
class LinearProgram:
    """A minimization LP, its constraint matrix stored column by column.

    The constraints are ``A_ub @ x <= b_ub`` and ``A_eq @ x == b_eq``.
    ``columns`` holds ``(indptr, indices, data)`` of the stacked matrix
    ``[A_ub; A_eq]`` in compressed sparse column form (int32 indices, rows
    ascending within each column), the arrays HiGHS reads: its first
    ``len(b_ub)`` rows are ``A_ub``, the rest ``A_eq``.
    Column ``edge_offsets[k] + e`` is edge ``e`` of the graph's layer ``k``
    (``edge_offsets[-1]`` is ``n_edges``); slack column ``n_edges + r``
    belongs to utilization row ``r`` (soft variant only). ``utilization``
    lists the contested peaks in the order of their utilization rows.
    ``bounds`` is an (n_vars × 2) array of (lower, upper) pairs: edges lie
    in [0, 1] and slacks in [0, inf]; a search node is the program with
    other ``bounds``. A margin round's program is built by ``formulate``
    over the graph restricted to the round's kept edges, so its edge
    columns are those edges in the root's order, and its utilization rows
    and slack columns are the root's. External backends (``--backend
    external:<path>``) read ``costs``, ``bounds``, ``columns``, ``b_ub``
    and ``b_eq``.

    The bundled backend keeps the HiGHS model of the program's last solve,
    and the bounds it holds, in ``_highs``. Copies made by
    ``dataclasses.replace`` share that slot, so a copy with other
    ``bounds`` is solved warm and hands HiGHS no matrix again. A copy with
    other costs or rows must be built by ``formulate`` instead.
    """

    variant: str
    costs: np.ndarray
    bounds: np.ndarray
    #: (indptr, indices, data) of ``[A_ub; A_eq]``, column by column
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_eq: np.ndarray
    b_ub: np.ndarray
    #: first column of each edge layer, then the number of edge columns
    edge_offsets: np.ndarray
    #: contested peak ids, one per utilization row, in row order
    utilization: list[str] = field(default_factory=list)
    #: the ``_Highs`` of the last bundled solve and the bounds it holds,
    #: or None and None
    _highs: list = field(default_factory=lambda: [None, None], compare=False, repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.costs)

    @property
    def n_rows(self) -> int:
        return len(self.b_eq) + len(self.b_ub)

    @property
    def n_edges(self) -> int:
        return int(self.edge_offsets[-1])


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective: float | None
    values: np.ndarray | None
    #: the utilization rows' optimal duals negated (``-y_ub``), one per row;
    #: None when the backend returns no duals
    multipliers: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


#: the contested peak ids, then the (indptr, indices) of ``peak_incidence``
Incidence = tuple[list[str], np.ndarray, np.ndarray]


def peak_incidence(g: AssignmentGraph) -> Incidence:
    """The contested peaks in peak id order, and which of them each grouping
    consumes: row r consumes ``indices[indptr[r]:indptr[r + 1]]``, ascending,
    and a final empty row serves row -1 (start, dummy and end nodes). A peak
    is contested when two or more inner nodes consume it and at least one of
    them has an out-edge; these are the peaks that get a utilization row.
    """
    table = g.groupings
    owner = np.repeat(np.arange(len(table)), np.diff(table.indptr))
    # the table's sources are in peak id order, so their positions sort alike
    peaks, cols = np.unique(table.members, return_inverse=True)
    rows = np.concatenate(g.grouping_rows)
    has_out = np.concatenate([np.diff(layer.indptr) > 0 for layer in g.edges] + [[False]])
    # per peak, the inner nodes consuming it, and those of them with an out-edge
    consumers, with_out = (
        np.bincount(cols, np.bincount(rows[nodes], minlength=len(g.groupings))[owner], len(peaks))
        for nodes in (rows >= 0, (rows >= 0) & has_out)
    )
    contested = (consumers >= 2) & (with_out >= 1)
    kept = contested[cols]
    indptr = np.cumsum(np.r_[0, np.bincount(owner[kept], minlength=len(g.groupings) + 1)])
    ids = [table.sources[p] for p in peaks[contested].tolist()]
    return ids, indptr, (np.cumsum(contested) - 1)[cols[kept]]


def formulate(
    g: AssignmentGraph,
    variant: str,
    tol: Tolerances,
    incidence: Incidence | None = None,
) -> LinearProgram:
    """Build the flow LP for a graph, optionally with utilization rows.

    Columns are the edges in (k, i, j) order, then the slack variables in
    peak order. Equality rows are one selection row per inner layer, then
    one conservation row per inner node in (k, i) order; inequality rows
    are one utilization row per contested peak in peak order, built from
    ``incidence`` (``peak_incidence(g)`` when not given).

    The matrix is built column by column over ``[A_ub; A_eq]``, equality
    row r below the ``n_ub`` utilization rows. An edge column of layer k
    holds its utilization rows (ascending), then selection row ``k - 1``
    and conservation row ``flow_row[k] + src`` when k > 0, then
    conservation row ``flow_row[k + 1] + dst`` when k < n; a slack column
    holds its utilization row only.
    """
    if variant not in VARIANTS:
        raise NmrAssignError(f"unknown LP variant {variant!r}")
    n = g.n
    edge_offsets = np.cumsum([0] + [len(layer) for layer in g.edges])
    n_edges = int(edge_offsets[-1])
    costs = [layer.cost for layer in g.edges]

    # node i of layer k conserves flow in equality row flow_row[k] + i,
    # after the n selection rows
    flow_row = n + np.cumsum([0, 0] + [len(rows) for rows in g.grouping_rows[1:-1]])
    b_eq = np.repeat([1.0, 0.0], [n, int(flow_row[-1]) - n])

    utilization: list[str] = []
    peaks = edges = np.zeros(0, dtype=np.int64)
    if variant in ("lian1", "lian2"):
        utilization, *grouping_peaks = peak_incidence(g) if incidence is None else incidence
        # utilization row r holds the out-edges of every node consuming
        # peak r; these entries come edge after edge, each edge's ascending
        sources = np.concatenate([g.grouping_rows[k][layer.src] for k, layer in enumerate(g.edges)])
        peaks, edges = consumed(*grouping_peaks, sources)
    n_ub = len(utilization)
    n_slack = n_ub if variant == "lian2" else 0
    n_vars = n_edges + n_slack
    if n_slack:
        costs.append(np.full(n_slack, tol.lam))

    # per column, its utilization entries, then the rest: a column of edge
    # layer 0 has 1, of layer n 2, of a layer between 3; a slack column 1
    util = np.bincount(edges, minlength=n_vars)
    rest = [2 * (k > 0) + (k < n) for k in range(n + 1)] + [1]
    indptr = np.zeros(n_vars + 1, dtype=np.int32)
    np.cumsum(util + np.repeat(rest, [*np.diff(edge_offsets), n_slack]), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.ones(indptr[-1])
    # an entry's place in its column is its distance from the column's first
    # entry in ``edges``
    indices[np.arange(len(edges)) + (indptr[:-1] - np.cumsum(util) + util)[edges]] = peaks
    after = indptr[:-1] + util  # each column's first entry after its utilization rows
    for k, layer in enumerate(g.edges):
        pos = after[edge_offsets[k] : edge_offsets[k + 1]]
        if k > 0:
            indices[pos] = n_ub + k - 1
            indices[pos + 1] = n_ub + flow_row[k] + layer.src
            data[pos + 1] = -1.0
            pos = pos + 2
        if k < n:
            indices[pos] = n_ub + flow_row[k + 1] + layer.dst
    indices[after[n_edges:]] = np.arange(n_slack)
    data[after[n_edges:]] = -1.0

    bounds = np.zeros((n_vars, 2))
    bounds[:n_edges, 1] = 1.0
    bounds[n_edges:, 1] = np.inf
    return LinearProgram(
        variant=variant,
        costs=np.concatenate(costs),
        bounds=bounds,
        columns=(indptr, indices, data),
        b_eq=b_eq,
        b_ub=np.ones(n_ub),
        edge_offsets=edge_offsets,
        utilization=utilization,
    )


# ---------------------------------------------------------------------------
# solving

#: backend signature: lp -> LpSolution, within the program's own ``lp.bounds``
Backend = Callable[[LinearProgram], LpSolution]


#: HiGHS's Python core, the module ``scipy.optimize.linprog`` calls
HIGHS_CORE = "scipy.optimize._highspy._core"
#: the status of each HiGHS model status, as ``scipy.optimize.linprog``
#: reads it; any other is a numerical failure
_STATUS = {
    "kOptimal": "optimal",
    "kTimeLimit": "iteration_limit",
    "kIterationLimit": "iteration_limit",
    "kInfeasible": "infeasible",
    "kModelError": "infeasible",
    "kUnbounded": "unbounded",
}
#: how far an optimal answer may miss its bounds and rows before it is
#: rejected (``10 * sqrt(tol)``, tol 1e-9, as ``scipy.optimize.linprog``)
_RESIDUAL_TOL = 10 * math.sqrt(1e-9)


def _highs_directory() -> Path:
    """The folder of scipy's installed files that holds ``HIGHS_CORE``."""
    import scipy

    return Path(scipy.__file__).parent / "optimize" / "_highspy"


def highs_core():
    """``HIGHS_CORE``, loaded from scipy's files under its full name without
    running ``scipy.optimize``'s package init, or the module already loaded."""
    core = sys.modules.get(HIGHS_CORE)
    if core is not None:
        return core
    directory = _highs_directory()
    names = [f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((directory / n for n in names if (directory / n).is_file()), None)
    if path is None:
        raise SolverError(f"no HiGHS core {names[0]} in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(HIGHS_CORE, str(path))
    core = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(HIGHS_CORE, path, loader=loader)
    )
    loader.exec_module(core)
    sys.modules[HIGHS_CORE] = core
    return core


def linprog(lp: LinearProgram, highs=None, held=None, presolve: bool = False):
    """``lp`` solved by HiGHS's dual simplex through ``highs_core``, which
    gets the model and options ``scipy.optimize.linprog(method="highs-ds")``
    passes it. The answer holds one of ``STATUSES`` as ``status``, ``fun``,
    ``x``, ``marginals`` (the utilization rows' duals) and ``nit``. It is
    not checked against the program: ``solve_lp`` does that.

    ``highs`` is the ``_Highs`` of an earlier answer on the same costs and
    constraints, and ``held`` the bounds it holds. With them only the
    column bounds that differ from ``held`` are set, and HiGHS runs on from
    its last basis with the options it has (``presolve`` is not read). The
    answer carries its ``_Highs`` as ``highs``, None after a numerical
    failure."""
    h = highs_core()
    n_ub = len(lp.b_ub)
    # HiGHS reads a bound at or beyond kHighsInf as infinite
    lb, ub = (np.clip(v, -h.kHighsInf, h.kHighsInf) for v in lp.bounds.T)
    error = h.HighsStatus.kError
    if highs is not None:
        cols = np.flatnonzero((lp.bounds != held).any(axis=1)).astype(np.int32)
        if highs.changeColsBounds(len(cols), cols, lb[cols], ub[cols]) == error:
            return _answer("numerical_failure")
    else:
        model = h.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
        model.num_row_ = model.a_matrix_.num_row_ = lp.n_rows
        model.a_matrix_.format_ = h.MatrixFormat.kColwise
        model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = lp.columns
        model.col_cost_, model.col_lower_, model.col_upper_ = lp.costs, lb, ub
        model.row_lower_ = np.concatenate([np.full(n_ub, -h.kHighsInf), lp.b_eq])
        model.row_upper_ = np.concatenate([lp.b_ub, lp.b_eq])
        settings = h.HighsOptions()
        settings.presolve = "on" if presolve else "off"
        settings.solver = "simplex"
        settings.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        settings.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
        settings.output_flag = settings.log_to_console = False
        highs = h._Highs()
        highs.passOptions(settings)  # fixed values HiGHS accepts: scipy's checks are left out
        if highs.passModel(model) == error:
            return _answer(_STATUS["kModelError"])
    ran = highs.run() != error
    status = _STATUS.get(highs.getModelStatus().name, "numerical_failure")
    if not ran:
        # without a solution to read, an optimal status is a failure too
        return _answer("numerical_failure" if status == "optimal" else status)
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status != "optimal":
        return _answer(status, nit, highs=None if status == "numerical_failure" else highs)
    solution = highs.getSolution()
    x, marginals = np.array(solution.col_value), np.array(solution.row_dual)[:n_ub]
    return _answer(status, nit, info.objective_function_value, x, marginals, highs)


def _answer(status: str, nit: int = 0, fun=None, x=None, marginals=None, highs=None):
    """``linprog``'s answer, with the ``_Highs`` a later call may run on."""
    return SimpleNamespace(status=status, fun=fun, x=x, marginals=marginals, nit=nit, highs=highs)


def _fault(lp: LinearProgram, answer) -> str | None:
    """What makes ``answer`` no answer to ``lp``, worded to follow a
    backend's name, or None. An answer is an ``LpSolution`` with one of
    ``STATUSES``, and multipliers, when given, one finite number per
    utilization row. An optimal one needs a finite objective and one finite
    value per column, within ``_RESIDUAL_TOL`` of the column's bounds,
    which meets every row within ``_RESIDUAL_TOL``."""
    if not isinstance(answer, LpSolution):
        return f" returned {type(answer).__name__}, not an LpSolution"
    if answer.status not in STATUSES:
        return f" returned the unknown status {answer.status!r}"
    finite = isinstance(answer.objective, numbers.Real) and math.isfinite(answer.objective)
    if answer.ok and not (finite and np.shape(answer.values) == (lp.n_vars,)):
        return f"'s optimal answer lacks a finite objective or {lp.n_vars} values"
    mu, n_util = answer.multipliers, len(lp.utilization)
    if mu is not None and not (np.shape(mu) == (n_util,) and np.isfinite(mu).all()):
        return f" returned multipliers other than {n_util} finite numbers"
    if not answer.ok:
        return None
    x, tol = answer.values, _RESIDUAL_TOL
    if not np.isfinite(x).all():
        return "'s optimal answer has a value that is not finite"
    low, high = lp.bounds.T
    outside = np.flatnonzero((x < low - tol) | (x > high + tol))
    if outside.size:
        return f"'s optimal answer puts column {outside[0]} outside its bounds"
    indptr, indices, data = lp.columns
    rows = np.bincount(indices, data * np.repeat(x, np.diff(indptr)), lp.n_rows)
    n_ub = len(lp.b_ub)  # an inequality row may fall short of its right-hand side
    miss = np.r_[rows[:n_ub] - lp.b_ub, np.abs(rows[n_ub:] - lp.b_eq)]
    missed = np.flatnonzero(miss > tol)
    if missed.size:
        return f"'s optimal answer misses row {missed[0]} by {miss[missed[0]]:.3g}"
    return None


def solve_lp(lp: LinearProgram, backend: Backend | None = None) -> LpSolution:
    """Solve the relaxation with the bundled HiGHS dual simplex backend:
    warm on the model of ``lp``'s last solve when it has one, and otherwise
    cold with presolve off. Every answer is checked by ``_fault``. A
    bundled answer that fails the check is a numerical failure, and its
    model is dropped; an external backend's raises ``SolverError``, naming
    the backend."""
    if backend is not None:
        answer = backend(lp)
        fault = _fault(lp, answer)
        if fault is not None:
            what = getattr(backend, "__qualname__", type(backend).__qualname__)
            raise SolverError(f"backend {backend.__module__}.{what}{fault}")
        return answer
    highs, held = lp._highs
    res = linprog(lp, highs=highs, held=held)
    answer = LpSolution(res.status, None, None)
    if res.status == "optimal":
        answer = LpSolution(res.status, float(res.fun), res.x, -res.marginals)
    if _fault(lp, answer) is not None:
        answer, res.highs = LpSolution("numerical_failure", None, None), None
    lp._highs[:] = res.highs, lp.bounds.copy()
    return answer


def load_backend(path: str | Path) -> Backend:
    """Load an external solver from a Python file exposing ``solve(lp)``."""
    path = Path(path)
    spec = importlib.util.spec_from_file_location(f"lp_backend_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise SolverError(f"cannot load solver backend from {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise SolverError(
            f"cannot load solver backend from {path}: {type(exc).__name__}: {exc}"
        ) from None
    solve = getattr(module, "solve", None)
    try:
        inspect.signature(solve).bind(None)
    except TypeError:
        raise SolverError(
            f"backend {path} must expose a function solve(lp) -> LpSolution"
        ) from None
    return solve


def is_integral(lp: LinearProgram, solution: LpSolution) -> bool:
    if solution.values is None:
        return False
    x = solution.values[: lp.n_edges]
    return bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= INT_TOL))


@dataclass(frozen=True)
class BnbResult:
    solution: LpSolution | None
    proven_optimal: bool
    nodes_explored: int
    #: edge columns ``round_and_resolve``'s deciding round dropped
    columns_fixed: int = 0
    #: search nodes whose LP came back neither optimal nor infeasible
    unsolved: int = 0


def branch_and_bound(
    lp: LinearProgram,
    backend: Backend | None = None,
    node_limit: int = NODE_LIMIT,
    cutoff: float = math.inf,
    root: LpSolution | None = None,
) -> BnbResult:
    """Exact solve with integrality on the edge variables.

    Depth first, branching on the most fractional edge variable ``x_e``.
    Unit flow crosses every edge layer, so the ``x_e = 1`` child, explored
    first, drops the other edges of e's layer, and the ``x_e = 0`` child
    drops e: a node is ``lp`` with the upper bounds of its dropped columns
    at 0. Slack variables stay continuous. A node must beat ``cutoff``, and
    then the incumbent, by more than ``GAP_EPS``. ``root``, when given, is
    the first node's solution (an optimum of ``lp`` itself), which is then
    not solved again. Only an infeasible node is pruned unsolved: any other
    answer but an optimal one is counted in ``unsolved``, and the search
    goes on without it, unproven. When the node limit is hit the incumbent
    is returned unproven.
    """
    offsets, n_edges = lp.edge_offsets, lp.n_edges

    incumbent, incumbent_obj = None, cutoff
    nodes = unsolved = 0
    proven = True

    # each entry: (edges fixed to one, edges fixed to zero)
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    while stack:
        ones, zeros = stack.pop()
        if nodes >= node_limit:
            proven = False
            break
        nodes += 1
        bounds = lp.bounds.copy()
        for e in ones:
            k = int(np.searchsorted(offsets, e, side="right")) - 1
            bounds[offsets[k] : offsets[k + 1], 1] = 0.0
        bounds[list(ones), 1] = 1.0
        bounds[list(zeros), 1] = 0.0
        if nodes == 1 and root is not None:
            sol = root
        else:
            sol = solve_lp(replace(lp, bounds=bounds), backend)
        if sol.status == "infeasible":
            continue
        if not sol.ok:
            unsolved += 1
            continue
        assert sol.objective is not None and sol.values is not None
        if sol.objective >= incumbent_obj - GAP_EPS:
            continue
        x = sol.values[:n_edges]
        frac = np.minimum(np.abs(x), np.abs(x - 1.0))
        branch_var = int(np.argmax(frac))
        if frac[branch_var] <= INT_TOL:
            incumbent, incumbent_obj = sol, sol.objective
            continue
        stack.append((ones, zeros + (branch_var,)))
        stack.append((ones + (branch_var,), zeros))

    return BnbResult(incumbent, proven and not unsolved, nodes, unsolved=unsolved)


def extract_path(g: AssignmentGraph, lp: LinearProgram, solution: LpSolution) -> tuple[int, ...]:
    """The node path of an integral solution: its unit-flow edges followed
    from the start."""
    if solution.values is None:
        raise SolverError("cannot extract a path without variable values")
    nodes = [0]
    for k, layer in enumerate(g.edges):
        out = layer.out(nodes[-1])
        flow = solution.values[lp.edge_offsets[k] : lp.edge_offsets[k + 1]][out]
        taken = np.flatnonzero(flow > 0.5)
        if not taken.size:
            raise SolverError(f"integral solution has no outgoing flow at layer {k}")
        nodes.append(int(layer.dst[out][taken[0]]))
    return tuple(nodes)


def node_penalty(g: AssignmentGraph, incidence: Incidence, mu: np.ndarray) -> list[np.ndarray]:
    """Each node's price at the multipliers ``mu`` (one per contested peak),
    layer by layer: the summed ``mu`` of the contested peaks its grouping
    consumes, 0 for start, dummy and end nodes."""
    _, indptr, indices = incidence
    owner = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    price = np.bincount(owner, mu[indices], len(indptr) - 1)
    return [price[rows] for rows in g.grouping_rows]


def edge_bounds(g: AssignmentGraph, incidence: Incidence, mu: np.ndarray) -> np.ndarray:
    """Per edge column, a bound on every answer using it: the cheapest path
    through it priced by ``node_penalty``, minus ``sum(mu)`` (inf on no
    path). It holds for ``mu >= 0``, and for the soft variant ``mu <= lam``."""
    return np.concatenate(dp_edge_bounds(g, node_penalty(g, incidence, mu))) - mu.sum()


def round_and_resolve(
    g: AssignmentGraph,
    lp: LinearProgram,
    relaxed: LpSolution,
    incidence: Incidence | None = None,
    backend: Backend | None = None,
    node_limit: int = NODE_LIMIT,
) -> BnbResult:
    """Exact search after a fractional root, on the edges its duals allow.

    ``incidence`` is ``peak_incidence(g)`` (computed when not given). The
    root's multipliers, clipped to ``0 <= mu <= lam`` (the soft
    variant's slack cost; the hard variant has no upper limit), give each
    edge column its ``edge_bounds``; a backend without duals gives
    ``mu = 0``. A round guesses ``UB' = root + margin``, keeps the edge
    columns whose bound is at most ``UB'`` and runs ``branch_and_bound``
    with ``UB'`` as its cutoff on the round's own program: ``formulate``
    over ``g.restricted`` to the kept edges, with the root's utilization
    rows (and slack columns), so its columns are the kept edge columns in
    order, then the slacks. Every answer below ``UB'`` lies in the kept
    program, so the first answer found is optimal. The root's answer, which
    uses kept edges only, is the round's first node; should it carry flow
    on a dropped edge (its multipliers from a backend without duals, say),
    the node is solved instead. The margin starts at
    ``1e-3 * max(1, |root|)`` and doubles while no answer is found; once
    ``UB'`` reaches the largest finite bound, the round searches every
    column without a cutoff. The rounds share ``node_limit``; when it runs
    out, the incumbent comes back unproven. A round that leaves a node
    unsolved without finding an answer does not end the search: the next
    round goes on, and the answer it finds is unproven. The answer is
    mapped back to ``lp``'s columns, and ``columns_fixed`` counts the edge
    columns the deciding round dropped.
    No round solves ``lp`` itself, so its HiGHS model is released first.
    """
    assert relaxed.objective is not None and relaxed.values is not None
    lp._highs[:] = None, None
    n_edges = lp.n_edges
    incidence = peak_incidence(g) if incidence is None else incidence
    mu = np.zeros(len(incidence[0]))
    slack_costs = lp.costs[n_edges:]
    if lp.utilization and relaxed.multipliers is not None:
        lam = slack_costs if lp.variant == "lian2" else math.inf
        mu = np.clip(relaxed.multipliers, 0.0, lam)
    # a round's slacks cost what the root's do; formulate reads no other tolerance
    tol = Tolerances(lam=float(slack_costs[0])) if len(slack_costs) else Tolerances()
    bounds = edge_bounds(g, incidence, mu)
    largest = np.max(bounds, where=np.isfinite(bounds), initial=-math.inf)
    margin, spent, unsolved = 1e-3 * max(1.0, abs(relaxed.objective)), 0, 0
    while True:
        cutoff = relaxed.objective + margin
        if cutoff >= largest:
            cutoff = math.inf  # the last round: every column, no cutoff
        keep = bounds <= cutoff
        kept = np.r_[np.flatnonzero(keep), n_edges:lp.n_vars]  # the round's columns in lp
        program = formulate(g.restricted(keep), lp.variant, tol, incidence)
        root = None
        if np.all(np.abs(relaxed.values[:n_edges][~keep]) <= INT_TOL):
            root = replace(relaxed, values=relaxed.values[kept])
        result = branch_and_bound(
            program, backend=backend, node_limit=node_limit - spent, cutoff=cutoff, root=root
        )
        spent += result.nodes_explored
        unsolved += result.unsolved
        if result.solution is not None or spent >= node_limit or cutoff == math.inf:
            solution = result.solution
            if solution is not None:
                values = np.zeros(lp.n_vars)
                values[kept] = solution.values
                solution = replace(solution, values=values)
            # a round that spends the budget without an answer proves nothing
            proven = result.proven_optimal and not unsolved
            proven = proven and (solution is not None or cutoff == math.inf)
            return BnbResult(solution, proven, spent, int((~keep).sum()), unsolved)
        margin *= 2


# ---------------------------------------------------------------------------
# the Lagrangian stage

#: DP passes the Lagrangian stage spends before it leaves the answer to the LP
LAGRANGIAN_ITERATIONS = 15
#: a Lagrangian proof needs the path's objective within this relative
#: distance of the bound
PROOF_TOL = 1e-9


@dataclass(frozen=True)
class LagrangianResult:
    #: the proven optimal path, or None when the stage gave up
    nodes: tuple[int, ...] | None
    #: the proving iteration's bound, or else the best bound (-inf after
    #: no iteration)
    bound: float
    iterations: int


def lagrangian_stage(
    g: AssignmentGraph,
    incidence: Incidence,
    lam: float = math.inf,
) -> LagrangianResult:
    """Try to prove a path optimal with the utilization rows relaxed.

    Each contested peak p gets a multiplier ``0 <= mu_p <= lam`` (``lam``
    is the soft variant's reuse penalty; the hard variant has none). One
    iteration prices every node at the summed multipliers of the contested
    peaks it consumes and runs ``dp_shortest_path``; the penalized optimum
    minus the summed multipliers bounds the program from below. The path's
    objective (for the soft variant, with ``lam`` per extra use) exceeds
    the bound by ``sum_p mu_p (1 - use_p)``, plus ``(lam - mu_p)`` per
    extra use, so it meets the bound only at complementary slackness: the
    path is then optimal, and for the hard variant it must reuse no peak.
    Otherwise the multipliers take a subgradient step ``use_p - 1`` sized
    for a target 1 % above the best bound so far, and the step factor
    halves after 5 iterations without a gain. The relaxation has the
    integrality property, so the bound reaches the LP root bound at best:
    the stage can only prove instances whose root relaxation is integral.
    """
    peaks, indptr, indices = incidence
    mu = np.zeros(len(peaks))
    best, theta, stall = -math.inf, 2.0, 0
    for iteration in range(1, LAGRANGIAN_ITERATIONS + 1):
        path = dp_shortest_path(g, node_penalty(g, incidence, mu))
        carried = [g.grouping_rows[k][i] for k, i in enumerate(path.nodes)]
        use = np.bincount(consumed(indptr, indices, carried)[0], minlength=len(peaks))
        bound = path.total_cost + float(mu @ (use - 1.0))
        overuse = int(np.maximum(use - 1, 0).sum())
        # infinite for a hard-variant path that reuses a peak
        objective = path.total_cost + (lam * overuse if overuse else 0.0)
        if objective - bound <= PROOF_TOL * max(1.0, abs(bound)):
            return LagrangianResult(path.nodes, bound, iteration)
        if bound > best:
            best, stall = bound, 0
        else:
            stall += 1
            if stall == 5:
                theta, stall = theta / 2, 0
        step = use - 1.0
        target = best + 0.01 * max(1.0, abs(best))
        mu = np.clip(mu + theta * (target - bound) / (step @ step) * step, 0.0, lam)
    return LagrangianResult(None, best, LAGRANGIAN_ITERATIONS)


# ---------------------------------------------------------------------------
# end-to-end solvers


def _solve_variant(
    g: AssignmentGraph, variant: str, tol: Tolerances, backend: Backend | None, node_limit: int
) -> SolveResult:
    """The answer of ``variant``: ``ilp`` searches the full ``lian1``
    program by branch and bound; ``lian1`` and ``lian2`` try the Lagrangian
    stage first and, after a fractional root, search the edges its duals
    allow. A search that ends before any incumbent answers with the
    all-dummy path, which every built graph holds and which reuses no peak,
    unproven."""
    exact = variant == "ilp"
    incidence = peak_incidence(g)
    stats = {"contested_peaks": len(incidence[0])}
    if not exact:
        stage = lagrangian_stage(g, incidence, tol.lam if variant == "lian2" else math.inf)
        stats["lagrangian_iterations"] = stage.iterations
        if stage.nodes is not None:
            return solve_result(
                g, stage.nodes, variant, tol.lam,
                lp_bound=stage.bound, proven_optimal=True, proved_by="lagrangian", **stats,
            )
    lp = formulate(g, "lian1" if exact else variant, tol, incidence)
    relaxed = solve_lp(lp, backend=backend)
    if relaxed.status in ("infeasible", "unbounded"):
        raise NoPathError(f"relaxation is {relaxed.status}")
    if not relaxed.ok:
        raise SolverError(f"relaxation failed with status {relaxed.status}")
    assert relaxed.objective is not None
    root_integral = is_integral(lp, relaxed)
    if root_integral or exact:
        # an integral root is the search's only node, proven without a solve
        result = branch_and_bound(lp, backend=backend, node_limit=node_limit, root=relaxed)
    else:
        result = round_and_resolve(g, lp, relaxed, incidence, backend, node_limit)
    found = result.solution is not None
    nodes = extract_path(g, lp, result.solution) if found else (0,) * (g.n + 2)
    proven = found and result.proven_optimal
    return solve_result(
        g, nodes, variant, tol.lam,
        lp_bound=relaxed.objective,
        proven_optimal=proven,
        proved_by="lp" if proven else None,
        root_integral=root_integral,
        nodes_explored=result.nodes_explored,
        columns_fixed=result.columns_fixed,
        unsolved_nodes=result.unsolved,
        **stats,
    )


def solve_lian1(
    g: AssignmentGraph,
    tol: Tolerances,
    backend: Backend | None = None,
    node_limit: int = NODE_LIMIT,
) -> SolveResult:
    """Hard utilization: relaxation, then, after a fractional root, an exact
    search on the edges its duals allow."""
    return _solve_variant(g, "lian1", tol, backend, node_limit)


def solve_lian2(
    g: AssignmentGraph,
    tol: Tolerances,
    backend: Backend | None = None,
    node_limit: int = NODE_LIMIT,
) -> SolveResult:
    """Soft utilization: peak reuse allowed at ``lambda`` per extra use."""
    return _solve_variant(g, "lian2", tol, backend, node_limit)


def solve_ilp(
    g: AssignmentGraph,
    tol: Tolerances,
    backend: Backend | None = None,
    node_limit: int = NODE_LIMIT,
) -> SolveResult:
    """Exact branch and bound on the full hard-utilization program."""
    return _solve_variant(g, "ilp", tol, backend, node_limit)
