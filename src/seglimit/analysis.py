"""Norms, interface geometry, free-boundary jump checks, Laplacian-as-measure
fields, and the epsilon convergence-rate study.

An interior node belongs to the discrete zero set of component i when
u_i < delta.  The explicit limit knows its zero sets exactly: u_j =
A_j (v - w_j) is set to 0 wherever the certified bounds of the w admit
that w_j is the largest difference (``limit_solver.construct_limit``),
and every negative rounding-level value is clamped to 0
(``limit_solver.recover``).  So the CLI takes delta = 2^-1074, the
smallest positive float, under which a nonnegative u_i is in the zero set
exactly when u_i == 0.  An edge between adjacent interior nodes realizes
the (i, j) interface when the zero-set membership pattern changes across
it and the two endpoints cover both zero sets.  Nodes sitting exactly on
an interface belong to several zero sets; edges interior to a shared zero
band are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic_core import DEFAULT_TOL, LinearSolveStats, ScalarField, apply_laplacian
from .epsilon_solver import DEFAULT_MAX_SWEEPS, DEFAULT_TOL_FP, SolveResult, solve_epsilon
from .errors import SolverError
from .geometry import Grid
from .limit_solver import LimitResult
from .problem_data import ProblemData


def default_zero_threshold(g: Grid, scale: float, tol_linear: float = DEFAULT_TOL) -> float:
    """A zero threshold at grid accuracy, max(10*tol*M, h*M), for fields
    whose zeros are not exact, such as an eps solve's."""
    h = max(g.spacing)
    return max(10.0 * tol_linear * scale, h * scale)


def _cell_volume(g: Grid) -> float:
    return float(np.prod(g.spacing))


def norm_Lp(u: ScalarField, p: float) -> float:
    """Midpoint-rule discrete L^p norm over the domain nodes (sup for p=inf).

    The sum is taken in units of 2^e, with e the binary exponent of the
    largest value, so that no power overflows or underflows to 0."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.abs(u.values[u.grid.in_domain()])
    top = float(vals.max(initial=0.0))
    if math.isinf(p) or top == 0 or not math.isfinite(top):
        return top
    e = math.frexp(top)[1]
    scaled = float(_cell_volume(u.grid) * (np.ldexp(vals, -e) ** p).sum())
    return math.ldexp(scaled ** (1.0 / p), e)


@dataclass(eq=False)
class PairEdges:
    """The interface edges of one pair as arrays, one row per edge: the
    flat node numbers p and q = p + _strides(grid)[axis] of the endpoints,
    the grid axis of the edge, the midpoint and the unit normal."""

    p: np.ndarray  # (k,) int
    q: np.ndarray
    axis: np.ndarray
    midpoint: np.ndarray  # (k, d) float
    normal: np.ndarray

    def __len__(self) -> int:
        return len(self.p)


@dataclass
class InterfaceSet:
    grid: Grid
    zero_sets: np.ndarray  # (m, *mask shape) bool, restricted to interior nodes
    pairs: dict[tuple[int, int], PairEdges]
    degenerate: bool = False


def _strides(g: Grid) -> np.ndarray:
    """The step of the flat node number along each grid axis,
    prod(dims[:axis]): x runs fastest."""
    return np.cumprod((1,) + g.dims[:-1])


def _interface_edges(
    g: Grid, coords: np.ndarray, d: np.ndarray, p: np.ndarray, q: np.ndarray, axis: int
) -> tuple[np.ndarray, ...]:
    """The edges p-q along ``axis`` as ``PairEdges`` columns: the normal is
    the mean gradient of d (u_i - u_j by flat node number) at the two
    endpoints, or the edge direction where that gradient is exactly zero."""
    mid = 0.5 * (coords[p] + coords[q])
    # central differences, as np.gradient takes them: an endpoint is
    # interior, so its neighbours along every axis are nodes
    grad = 0.5 * np.column_stack([
        (d[p + s] - d[p - s]) / (2.0 * h) + (d[q + s] - d[q - s]) / (2.0 * h)
        for s, h in zip(_strides(g), g.spacing)
    ])
    # each edge's gradient scaled by a power of two to a largest entry in
    # [0.5, 1), so its square cannot overflow and its norm is 0 only where
    # the gradient is; the scaling is exact, so the normal is the unscaled
    # gradient over its norm bit for bit.  vecdot is the dot product
    # np.linalg.norm takes, so the norms agree bitwise
    exp = np.frexp(np.abs(grad).max(axis=1))[1]
    grad = np.ldexp(grad, -exp[:, None])
    nrm = np.sqrt(np.vecdot(grad, grad))
    # not ``nrm == 0``: a NaN gradient is flat too
    flat = ~(nrm > 0.0)
    normal = grad / np.where(flat, 1.0, nrm)[:, None]
    normal[flat] = np.eye(g.ndim)[axis]
    return p, q, np.full(len(p), axis), mid, normal


def extract_supports_and_interfaces(
    fields: tuple[ScalarField, ...], delta: float
) -> InterfaceSet:
    """Discrete zero sets and pairwise interface edges.

    The degenerate flag is raised when some pair's zero sets both cover the
    whole interior (e.g. all boundary data zero).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    g = fields[0].grid
    m = len(fields)
    interior = g.interior()
    zero = np.stack([(f.values < delta) & interior for f in fields])

    flat_int = interior.ravel()
    zflat = zero.reshape(m, -1)
    degenerate = bool(np.count_nonzero(zflat.sum(axis=1) == flat_int.sum()) >= 2)

    # interior-interior edges of each grid axis, from each interior node to
    # the next node along the axis, which is on the lattice (an interior
    # node is off its rim, see ``Grid``), with the zero-set membership of
    # their endpoints
    p_all = np.flatnonzero(flat_int)
    axis_edges = []
    for axis, stride in enumerate(_strides(g)):
        q_all = p_all + stride
        ok = flat_int[q_all]
        p_arr, q_arr = p_all[ok], q_all[ok]
        zp, zq = zflat[:, p_arr], zflat[:, q_arr]
        axis_edges.append((p_arr, q_arr, zp, zq, np.any(zp != zq, axis=0), axis))

    coords = np.column_stack([c.ravel() for c in g.node_coords()])
    pairs: dict[tuple[int, int], PairEdges] = {}
    for i in range(m):
        for j in range(i + 1, m):
            d = (fields[i].values - fields[j].values).ravel()
            # an axis without an edge of the pair gives empty columns
            parts = []
            for p_arr, q_arr, zp, zq, changed, axis in axis_edges:
                hit = changed & ((zp[i] & zq[j]) | (zp[j] & zq[i]))
                parts.append(_interface_edges(g, coords, d, p_arr[hit], q_arr[hit], axis))
            pairs[(i + 1, j + 1)] = PairEdges(*(np.concatenate(col) for col in zip(*parts)))
    return InterfaceSet(g, zero, pairs, degenerate)


def laplacian_measure(u: ScalarField) -> ScalarField:
    """h * Lap_h(u): the discrete interface Dirac density.

    Values approximate the normal-derivative jump along interfaces and
    vanish where u is discretely harmonic.
    """
    return ScalarField(u.grid, u.grid.spacing[0] * apply_laplacian(u).values)


def jump_condition_check(L: LimitResult, I: InterfaceSet) -> np.ndarray:
    """Free-boundary jump conditions from one-sided normal derivatives: one
    row ``[i, j, edges, skipped, max_balance, max_transfer]`` per pair
    i < j, in sorted order, as ``jump_report.csv`` holds them.

    For each interface edge the derivative of each component is estimated
    by a 2-point first-order difference on each side along the edge axis.
    The identities are those of the scaled fields u_k / A_k, with A the
    weights of ``L``: the two meeting components have opposite one-sided
    normal derivatives, d_n u_i / A_i + d_n u_j / A_j = 0 (the balance), and
    any third component's derivative jump equals the meeting component's
    derivative, [d_n u_k] / A_k = d_n u_i / A_i (the transfer).  A row keeps
    the largest residual of each over the pair's evaluated edges, 0 when
    there is none.

    The identities involve one-sided traces from inside the respective zero
    regions, so an edge is evaluated only when its p-side stencil nodes are
    exact zeros of u_j and its q-side ones exact zeros of u_i, as the
    limit's zero regions are; edges failing that (degenerate
    lower-dimensional zero sets, interfaces hugging the outer boundary) are
    skipped and counted.
    """
    g = I.grid
    spacing = np.array(g.spacing)
    stride = _strides(g)
    vals = [f.values.ravel() for f in L.fields]
    # dividing by a weight of 1 is exact
    scaled = [u / a for u, a in zip(vals, L.weights)]

    rows = []
    for (i, j), edges in sorted(I.pairs.items()):
        ui, uj = vals[i - 1], vals[j - 1]
        # p: side where u_i lives (the zero region of u_j); the difference
        # u_i - u_j increases toward it.  A tie leaves the edge unoriented.
        da = ui[edges.p] - uj[edges.p]
        db = ui[edges.q] - uj[edges.q]
        flip = db > da
        oriented = (da > db) | flip
        p = np.where(flip, edges.q, edges.p)[oriented]
        q = np.where(flip, edges.p, edges.q)[oriented]
        axis = edges.axis[oriented]
        # the step from p to q; the one-sided stencils are p, p - shift and
        # q, q + shift, nodes of the domain next to interior ones (``Grid``)
        step = np.where(flip, -1, 1)[oriented]
        shift = step * stride[axis]
        ok = (uj[p] == 0) & (uj[p - shift] == 0) & (ui[q] == 0) & (ui[q + shift] == 0)
        p, q, shift, sh = p[ok], q[ok], shift[ok], step[ok] * spacing[axis[ok]]

        def d_p(f: np.ndarray) -> np.ndarray:
            return (f[p] - f[p - shift]) / sh

        def d_q(f: np.ndarray) -> np.ndarray:
            return (f[q + shift] - f[q]) / sh

        si, sj = scaled[i - 1], scaled[j - 1]
        balance = np.abs(d_p(si) + d_q(sj))
        # one row per edge, one column per third component
        jumps = np.array([d_p(sk) - d_q(sk) for k, sk in enumerate(scaled) if k + 1 not in (i, j)])
        transfer = np.abs(jumps.T - d_p(si)[:, None])
        edges_ok = int(ok.sum())
        rows.append([i, j, edges_ok, len(edges) - edges_ok,
                     balance.max(initial=0.0), transfer.max(initial=0.0)])
    return np.array(rows, dtype=float)


@dataclass
class RateRow:
    """One rung of the ladder: the distances of its solve to the limit and
    the solve's steps, last measure, stop and linear solves (as in
    ``SolveResult``), or the message of the ``SolverError`` that failed it."""

    epsilon: float
    lmp1: tuple[float, ...] | None = None  # per-component L^{m+1} distance
    sup: tuple[float, ...] | None = None
    sweeps: int = 0
    gap: float | None = None
    stop: str | None = None
    linear_stats: list[LinearSolveStats] = field(default_factory=list)
    message: str | None = None

    @property
    def failed(self) -> bool:
        return self.message is not None


@dataclass
class RateTable:
    rows: list[RateRow]
    slope: float | None
    fit_residual: float | None
    # the slope between each two consecutive rungs of the fit
    local_slopes: list[float] = field(default_factory=list)


def rate_study(
    g: Grid,
    data: ProblemData,
    eps_list: list[float],
    limit: LimitResult,
    tol_fp: float = DEFAULT_TOL_FP,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol_linear: float = DEFAULT_TOL,
) -> RateTable:
    """Distance-to-limit table over an epsilon ladder whose log10 values
    strictly decrease, with the log-log slope of the limit's pivot
    component.

    Every eps-solve starts from ``limit`` and runs on its harmonic fields,
    so the ladder makes no harmonic solve of its own.  A solve that fails
    gives a failed row that keeps the ``SolverError`` message.

    The rungs whose pivot distance is positive are fitted once by least
    squares, with the root-mean-square residual of the fit, and the slope
    between each two consecutive ones is reported beside it; with fewer
    than two such rungs there is no slope.
    """
    eps_list = [float(e) for e in eps_list]
    if not all(e > 0 and 1 / e < math.inf for e in eps_list):
        raise ValueError("epsilon values must be positive with finite reciprocals")
    if np.any(np.diff(np.log10(eps_list)) >= 0):
        # two rungs of one log10 would give the fit a zero step
        raise ValueError("the log10 of the epsilon list must be strictly decreasing")

    def run(eps: float) -> RateRow:
        try:
            r = solve_epsilon(g, data, eps, tol_fp, max_sweeps, tol_linear, limit=limit)
        except SolverError as exc:
            return RateRow(eps, message=str(exc))
        return RateRow(eps, *solve_vs_limit_distances(r, limit), r.sweeps, r.gap, r.stop,
                       r.linear_stats)

    rows = [run(e) for e in eps_list]

    k = limit.pivot - 1
    pts = [(r.epsilon, r.lmp1[k]) for r in rows if not r.failed and r.lmp1[k] > 0]
    if len(pts) < 2:
        return RateTable(rows, None, None)
    x, y = np.log10(pts).T
    coef = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)))
    return RateTable(rows, float(coef[0]), resid, (np.diff(y) / np.diff(x)).tolist())


def solve_vs_limit_distances(
    r: SolveResult, limit: LimitResult
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The per-component L^{m+1} and sup distances between an epsilon
    solve and the explicit limit (shared grid), in component order."""
    diffs = [ScalarField(f.grid, f.values - lim.values) for f, lim in zip(r.fields, limit.fields)]
    return (tuple(norm_Lp(d, r.m + 1) for d in diffs),
            tuple(norm_Lp(d, math.inf) for d in diffs))
