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

The module loads numpy only: ``formulate`` imports ``scipy.sparse`` and
the first solve ``scipy.optimize``, so a Lagrangian proof loads no scipy.
Relaxations go to HiGHS's dual simplex, whose vertex solutions are
integral on pure flow polytopes. The root is solved with presolve off (on
peak lists, presolve took most of the root's time); search nodes keep
HiGHS's default. When utilization rows make the optimum fractional, the
root's utilization duals serve as Lagrangian multipliers: one forward and
one backward DP (``dp_edge_bounds``) bound every answer that uses an
edge, and a branch and bound searches only the edges whose bound lies
within a margin of the root, with that margin as its cutoff; the margin
doubles until an answer is found. Every search node is a column-subset
program: branching drops edges. The exact ``ilp`` search skips the rule
and starts from the root relaxation already solved.

Which of several tied optima comes back is up to HiGHS (and its presolve),
or to the DP's tie rule. Swapping fragments (maximal runs of regular
nodes) between windows of equal residue types is such a tie. Every answer,
the Lagrangian stage's path or the one ``extract_path`` follows through an
integral solution, becomes a ``SolveResult`` in
``shortest_path.solve_result``, which maps it to its ``canonical_path``:
each group's sorted fragments go to its windows in position order, and the
answer no longer depends on which of the swaps the solver returned.
"""
from __future__ import annotations

import importlib.util
import inspect
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .domain import NODE_LIMIT, NmrAssignError, SolverError, Tolerances
from .graph import AssignmentGraph, consumed
from .shortest_path import NoPathError, SolveResult, dp_edge_bounds, dp_shortest_path, solve_result

if TYPE_CHECKING:
    from scipy import sparse

VARIANTS = ("flow", "lian1", "lian2")

_STATUS = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical_failure",
}


#: largest distance from 0 or 1 at which an edge value counts as integral
INT_TOL = 1e-6
#: a search node must beat the incumbent's objective by more than this
GAP_EPS = 1e-9


@dataclass
class LinearProgram:
    """A minimization LP with scipy constraint matrices.

    The constraints are ``A_eq @ x == b_eq`` and ``A_ub @ x <= b_ub``, with
    CSR matrices whose column indices are sorted within each row, or None
    when a sense has no rows (its right-hand side is then empty).
    Column ``edge_offsets[k] + e`` is edge ``e`` of the graph's layer ``k``
    (``edge_offsets[-1]`` is ``n_edges``); slack column ``n_edges + r``
    belongs to utilization row ``r`` (soft variant only). ``utilization``
    lists the contested peaks in the order of their utilization rows.
    ``bounds`` is an (n_vars × 2) array of (lower, upper) pairs: edges lie
    in [0, 1] and slacks in [0, inf]. ``subset`` keeps some columns and
    every row. External backends (``--backend external:<path>``) may read
    ``costs``, ``matrices()`` or the four matrix fields, and ``bounds``.
    """

    variant: str
    costs: np.ndarray
    bounds: np.ndarray
    A_eq: sparse.csr_matrix | None
    b_eq: np.ndarray
    A_ub: sparse.csr_matrix | None
    b_ub: np.ndarray
    #: first column of each edge layer, then the number of edge columns
    edge_offsets: np.ndarray
    #: contested peak ids, one per utilization row, in row order
    utilization: list[str] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.costs)

    @property
    def n_rows(self) -> int:
        return len(self.b_eq) + len(self.b_ub)

    @property
    def n_edges(self) -> int:
        return int(self.edge_offsets[-1])

    def matrices(self):
        """(A_eq, b_eq, A_ub, b_ub) as scipy sparse/ndarray."""
        return self.A_eq, self.b_eq, self.A_ub, self.b_ub

    def subset(self, keep: np.ndarray) -> LinearProgram:
        """The program on the columns where ``keep`` is True, with every row."""
        kept = np.flatnonzero(keep)

        def columns_of(matrix):
            if matrix is None:
                return None
            sub = matrix[:, kept]
            sub.sort_indices()
            return sub

        return LinearProgram(
            variant=self.variant,
            costs=self.costs[kept],
            bounds=self.bounds[kept],
            A_eq=columns_of(self.A_eq),
            b_eq=self.b_eq,
            A_ub=columns_of(self.A_ub),
            b_ub=self.b_ub,
            edge_offsets=np.searchsorted(kept, self.edge_offsets),
            utilization=self.utilization,
        )


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


def _csr(rows, cols, data, shape) -> sparse.csr_matrix | None:
    """One COO -> CSR build from lists of array chunks; None without rows."""
    if not shape[0]:
        return None
    from scipy import sparse
    matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )
    matrix.sort_indices()
    return matrix


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
    """
    if variant not in VARIANTS:
        raise NmrAssignError(f"unknown LP variant {variant!r}")
    n = g.n
    edge_offsets = np.cumsum([0] + [len(layer) for layer in g.edges])
    n_edges = int(edge_offsets[-1])
    columns = np.split(np.arange(n_edges), edge_offsets[1:-1])
    costs = [layer.cost for layer in g.edges]

    # node i of layer k conserves flow in equality row flow_row[k] + i,
    # after the n selection rows
    flow_row = n + np.cumsum([0, 0] + [len(rows) for rows in g.grouping_rows[1:-1]])
    rows, cols, data = [], [], []
    for k in range(1, n + 1):
        into, out = g.edges[k - 1], g.edges[k]
        rows += [np.full(len(out), k - 1), flow_row[k] + into.dst, flow_row[k] + out.src]
        cols += [columns[k], columns[k - 1], columns[k]]
        data += [np.ones(len(out)), np.ones(len(into)), -np.ones(len(out))]
    b_eq = np.repeat([1.0, 0.0], [n, int(flow_row[-1]) - n])

    utilization: list[str] = []
    ub_rows, ub_cols, ub_data = [], [], []
    if variant in ("lian1", "lian2"):
        utilization, indptr, indices = peak_incidence(g) if incidence is None else incidence
        # utilization row r holds the out-edges of every node consuming peak r
        sources = np.concatenate([g.grouping_rows[k][layer.src] for k, layer in enumerate(g.edges)])
        peaks, edges = consumed(indptr, indices, sources)
        ub_rows, ub_cols, ub_data = [peaks], [edges], [np.ones(len(peaks))]
        if variant == "lian2":
            slack = np.arange(n_edges, n_edges + len(utilization))
            ub_rows.append(slack - n_edges)
            ub_cols.append(slack)
            ub_data.append(-np.ones(len(slack)))
            costs.append(np.full(len(slack), tol.lam))

    n_vars = n_edges + (len(utilization) if variant == "lian2" else 0)
    bounds = np.zeros((n_vars, 2))
    bounds[:n_edges, 1] = 1.0
    bounds[n_edges:, 1] = np.inf
    return LinearProgram(
        variant=variant,
        costs=np.concatenate(costs),
        bounds=bounds,
        A_eq=_csr(rows, cols, data, (int(flow_row[-1]), n_vars)),
        b_eq=b_eq,
        A_ub=_csr(ub_rows, ub_cols, ub_data, (len(utilization), n_vars)),
        b_ub=np.ones(len(utilization)),
        edge_offsets=edge_offsets,
        utilization=utilization,
    )


# ---------------------------------------------------------------------------
# solving

#: backend signature: lp -> LpSolution, within the program's own ``lp.bounds``
Backend = Callable[[LinearProgram], LpSolution]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call, so that a run
    the Lagrangian stage proves never loads scipy's solver."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def solve_lp(
    lp: LinearProgram, backend: Backend | None = None, *, presolve: bool = True
) -> LpSolution:
    """Solve the relaxation with the bundled HiGHS dual simplex backend,
    with or without HiGHS presolve (an external backend ignores it). An
    external backend's answer must be an ``LpSolution`` with one of the
    ``_STATUS`` values; an optimal one needs a finite objective and one
    value per variable, and multipliers, when given, one finite number per
    utilization row. Any other answer raises ``SolverError``, naming the
    backend."""
    if backend is not None:
        answer = backend(lp)
        what = getattr(backend, "__qualname__", type(backend).__qualname__)
        name = f"backend {backend.__module__}.{what}"
        if not isinstance(answer, LpSolution):
            raise SolverError(f"{name} returned {type(answer).__name__}, not an LpSolution")
        if answer.status not in _STATUS.values():
            raise SolverError(f"{name} returned the unknown status {answer.status!r}")
        finite = isinstance(answer.objective, numbers.Real) and math.isfinite(answer.objective)
        if answer.ok and not (finite and np.shape(answer.values) == (lp.n_vars,)):
            raise SolverError(f"{name}'s optimal answer lacks a finite objective or {lp.n_vars} values")
        mu, rows = answer.multipliers, len(lp.utilization)
        if mu is not None and not (np.shape(mu) == (rows,) and np.isfinite(mu).all()):
            raise SolverError(f"{name} returned multipliers other than {rows} finite numbers")
        return answer
    A_eq, b_eq, A_ub, b_ub = lp.matrices()
    res = linprog(
        lp.costs,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=lp.bounds,
        method="highs-ds",
        options={"presolve": presolve},
    )
    status = _STATUS.get(res.status, "numerical_failure")
    if status != "optimal":
        return LpSolution(status, None, None)
    return LpSolution(status, float(res.fun), np.asarray(res.x, float), -res.ineqlin.marginals)


def load_backend(path: str | Path) -> Backend:
    """Load an external solver from a Python file exposing ``solve(lp)``."""
    path = Path(path)
    spec = importlib.util.spec_from_file_location(f"lp_backend_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise SolverError(f"cannot load solver backend from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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


def _solve_columns(lp: LinearProgram, keep: np.ndarray, backend: Backend | None) -> LpSolution:
    """Solve ``lp.subset(keep)``; its values come back zero off the subset."""
    if keep.all():
        return solve_lp(lp, backend)
    sol = solve_lp(lp.subset(keep), backend)
    if sol.values is None:
        return sol
    values = np.zeros(lp.n_vars)
    values[keep] = sol.values
    return LpSolution(sol.status, sol.objective, values)


def branch_and_bound(
    lp: LinearProgram,
    keep: np.ndarray | None = None,
    backend: Backend | None = None,
    node_limit: int = NODE_LIMIT,
    cutoff: float = math.inf,
    root: LpSolution | None = None,
) -> BnbResult:
    """Exact solve with integrality on the edge variables.

    Searches the columns where ``keep`` is True (all of them by default),
    depth first, branching on the most fractional edge variable ``x_e``.
    Unit flow crosses every edge layer, so the ``x_e = 1`` child, explored
    first, drops the other edges of e's layer, and the ``x_e = 0`` child
    drops e: every node solves a column subset. Slack variables stay
    continuous. A node must beat ``cutoff``, and then the incumbent, by
    more than ``GAP_EPS``. ``root``, when given, is the first node's
    solution (the program on ``keep``), which is then not solved again.
    When the node limit is hit the incumbent is returned unproven.
    """
    base = np.ones(lp.n_vars, dtype=bool) if keep is None else keep
    offsets, n_edges = lp.edge_offsets, lp.n_edges

    incumbent, incumbent_obj = None, cutoff
    nodes = 0
    proven = True

    # each entry: (edges fixed to one, edges fixed to zero)
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    while stack:
        ones, zeros = stack.pop()
        if nodes >= node_limit:
            proven = False
            break
        nodes += 1
        mask = base.copy()
        for e in ones:
            k = int(np.searchsorted(offsets, e, side="right")) - 1
            mask[offsets[k] : offsets[k + 1]] = False
        mask[list(ones)] = True
        mask[list(zeros)] = False
        if nodes == 1 and root is not None:
            sol = root
        else:
            sol = _solve_columns(lp, mask, backend)
        if not sol.ok:
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

    return BnbResult(incumbent, proven, nodes)


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
    columns whose bound is at most ``UB'`` and every slack column, and runs
    ``branch_and_bound`` with ``UB'`` as its cutoff. Every answer below
    ``UB'`` lies in the kept program, so the first answer found is optimal.
    The margin starts at ``1e-3 * max(1, |root|)`` and doubles while no
    answer is found; once ``UB'`` reaches the largest finite bound, the
    round searches every column without a cutoff. The rounds share
    ``node_limit``; when it runs out, the incumbent comes back unproven.
    ``columns_fixed`` counts the edge columns the deciding round dropped.
    """
    assert relaxed.objective is not None
    n_edges = lp.n_edges
    incidence = peak_incidence(g) if incidence is None else incidence
    mu = np.zeros(len(incidence[0]))
    if lp.utilization and relaxed.multipliers is not None:
        lam = lp.costs[n_edges:] if lp.variant == "lian2" else math.inf
        mu = np.clip(relaxed.multipliers, 0.0, lam)
    bounds = edge_bounds(g, incidence, mu)
    largest = np.max(bounds, where=np.isfinite(bounds), initial=-math.inf)
    margin, spent = 1e-3 * max(1.0, abs(relaxed.objective)), 0
    while True:
        cutoff = relaxed.objective + margin
        if cutoff >= largest:
            cutoff = math.inf  # the last round: every column, no cutoff
        keep = np.ones(lp.n_vars, dtype=bool)
        keep[:n_edges] = bounds <= cutoff
        result = branch_and_bound(
            lp, keep=keep, backend=backend, node_limit=node_limit - spent, cutoff=cutoff
        )
        spent += result.nodes_explored
        if result.solution is not None or not result.proven_optimal or cutoff == math.inf:
            return BnbResult(result.solution, result.proven_optimal, spent, int((~keep).sum()))
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
    relaxed = solve_lp(lp, backend=backend, presolve=False)
    if relaxed.status in ("infeasible", "unbounded"):
        raise NoPathError(f"relaxation is {relaxed.status}")
    if not relaxed.ok:
        raise SolverError(f"relaxation failed with status {relaxed.status}")
    assert relaxed.objective is not None
    root_integral = is_integral(lp, relaxed)
    if root_integral:
        # the root is the only node of the global search
        result = BnbResult(relaxed, True, 1)
    elif exact:
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
