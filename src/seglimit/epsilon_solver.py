"""Solver for the coupled system at fixed epsilon.

Every equation carries the same reaction term F(U)/eps scaled by its
weight A_i, so for constant weights the scaled differences
w_j = u_p/A_p - u_j/A_j against the pivot p = 1 are harmonic at any
epsilon and for any exponents (the fields ``limit_solver`` builds the
limit from).  The system then reduces to one scalar equation for the
scaled pivot v = u_p/A_p,

    Lap v = F(v)/eps,   F(v) = prod_j (A_j (v - w_j))_+^alpha_j,  w_p = 0,

with boundary data phi_p/A_p.  F is nondecreasing and convex, so each
Newton step is one screened M-matrix solve whose result is a
supersolution, and from there the iterates decrease monotonically to the
solution (monotone Newton for convex M-functions).  The components are
recovered as u_j = A_j (v - w_j).

The decoupled sweep iteration is kept as a cross-check oracle and as the
path for tabulated (non-constant) weights, where the identity fails.
Starting from the harmonic extensions of the boundary data, each sweep
solves one screened linear problem per component in ascending order:
component i sees the fresh iterates of components j < i and the lagged
ones of j > i, averaged into the screening coefficient.  Convergence is
measured by the sup gap between consecutive (even/odd) iterates and the
midpoint of the last pair is returned.  The iterates need not bracket the
solution: the averaged coefficient breaks the interleaved ordering
u^0 >= u^2 >= ... >= u^3 >= u^1 after the first few sweeps, and for
exponents other than 1 the gap can stall.

For general exponents alpha_i >= 1 each inactive factor enters a sweep
lagged as u_j ** alpha_j and the active component is linearized
semi-implicitly as u_i_new * u_i_old ** (alpha_i - 1), keeping every
sub-problem linear with a nonnegative coefficient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .elliptic_core import (
    CLAMP_REL,
    DEFAULT_TOL,
    LinearSolveStats,
    ScalarField,
    apply_laplacian,
    solve_harmonic,
    solve_screened,
)
from .errors import SolverError
from .geometry import Grid
from .limit_solver import difference_data
from .problem_data import ProblemData

DEFAULT_TOL_FP = 1e-8
DEFAULT_MAX_SWEEPS = 500


@dataclass
class IterationState:
    k: int
    fields: tuple[ScalarField, ...]
    prev: tuple[ScalarField, ...] | None
    gap: float
    linear_stats: list[LinearSolveStats] = field(default_factory=list)


@dataclass
class SolveResult:
    fields: tuple[ScalarField, ...]
    epsilon: float
    sweeps: int
    gap: float
    gap_history: list[float]  # Newton update norms, or even/odd sweep gaps
    linear_stats: list[LinearSolveStats]
    wall_time: float

    @property
    def m(self) -> int:
        return len(self.fields)


def _sup_gap(a: tuple[ScalarField, ...], b: tuple[ScalarField, ...]) -> float:
    return max(float(np.abs(ai.values - bi.values).max()) for ai, bi in zip(a, b))


def initialize(g: Grid, data: ProblemData, tol_linear: float = DEFAULT_TOL) -> IterationState:
    """U^0: the harmonic extensions of the boundary data."""
    fields, stats = solve_harmonic(g, data.boundary_arrays(g), tol_linear)
    return IterationState(0, tuple(fields), None, float("inf"), stats)


def sweep(
    s: IterationState,
    epsilon: float,
    data: ProblemData,
    tol_linear: float = DEFAULT_TOL,
) -> IterationState:
    """One decoupled sweep U^k -> U^{k+1}, components in ascending order."""
    g = s.fields[0].grid
    boundary_arrays = data.boundary_arrays(g)
    A = data.weights.as_arrays(g)
    alphas = data.exponents.alphas
    m = data.m

    old = [f.values for f in s.fields]
    old_pow = [np.power(old[j], alphas[j]) if alphas[j] != 1 else old[j] for j in range(m)]
    # suffix products of lagged powered factors: suf[i] = prod_{j > i} old_pow[j]
    suf = [None] * m
    acc = np.ones_like(old[0])
    for j in range(m - 1, -1, -1):
        suf[j] = acc
        acc = acc * old_pow[j]

    new_fields: list[ScalarField] = []
    stats: list[LinearSolveStats] = []
    pre_old = np.ones_like(old[0])  # prod_{j<i} old_pow[j]
    pre_new = np.ones_like(old[0])  # prod_{j<i} new_pow[j]
    for i in range(m):
        active = old[i] ** (alphas[i] - 1) if alphas[i] != 1 else 1.0
        c = (A[i] / (2.0 * epsilon)) * (pre_old + pre_new) * suf[i] * active
        f, st = solve_screened(g, c, boundary_arrays[i], tol_linear)
        new_fields.append(f)
        stats.append(st)
        pre_old = pre_old * old_pow[i]
        nv = f.values
        pre_new = pre_new * (np.power(nv, alphas[i]) if alphas[i] != 1 else nv)

    new = tuple(new_fields)
    return IterationState(s.k + 1, new, s.fields, _sup_gap(new, s.fields), stats)


def solve_epsilon(
    g: Grid,
    data: ProblemData,
    epsilon: float,
    tol_fp: float = DEFAULT_TOL_FP,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol_linear: float = DEFAULT_TOL,
    initial: tuple[ScalarField, ...] | None = None,
) -> SolveResult:
    """Solve the system at fixed epsilon.

    Constant weights take the reduced Newton path: it stops when the
    largest component update max_j A_j |dv|_inf falls below tol_fp * M,
    and ``max_sweeps`` caps (``SolveResult.sweeps`` counts) Newton steps.
    Tabulated weights take the sweep iteration.  ``initial`` overrides the
    harmonic-extension start (used for uniqueness cross-checks).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if tol_fp <= 0:
        raise ValueError("tol_fp must be positive")
    solve = _solve_newton if data.weights.is_constant else _solve_sweeps
    return solve(g, data, epsilon, tol_fp, max_sweeps, tol_linear, initial)


def _reaction(v: np.ndarray, w: list[np.ndarray], A, alphas) -> tuple[np.ndarray, np.ndarray]:
    """F(v) and its right derivative F'(v), nodewise."""
    m = len(w)
    fac, dfac = [], []
    for wj, a, alpha in zip(w, A, alphas):
        d = a * (v - wj)
        f = np.maximum(d, 0.0)
        if alpha == 1:
            fac.append(f)
            dfac.append(np.where(d >= 0.0, a, 0.0))
        else:
            fac.append(np.power(f, alpha))
            dfac.append(alpha * a * np.power(f, alpha - 1))
    # F' = sum_k dfac_k prod_{j != k} fac_j, from prefix and suffix products
    suf = [None] * m
    acc = np.ones_like(v)
    for j in range(m - 1, -1, -1):
        suf[j] = acc
        acc = acc * fac[j]
    F = acc
    dF = np.zeros_like(v)
    pre = np.ones_like(v)
    for k in range(m):
        dF += dfac[k] * pre * suf[k]
        pre = pre * fac[k]
    return F, dF


def _solve_newton(g, data, epsilon, tol_fp, max_steps, tol_linear, initial) -> SolveResult:
    t0 = time.perf_counter()
    p = 1
    A = data.weights.values
    alphas = data.exponents.alphas
    phi = data.boundary_arrays(g)
    bnd = g.boundary()
    M = max(float(arr[bnd].max(initial=0.0)) for arr in phi)
    tol_abs = tol_fp * M

    # the m - 1 difference fields and the harmonic start share one batch
    scaled, diffs, comps = difference_data(phi, A, p)
    v_boundary = scaled[p - 1]
    harmonic, stats = solve_harmonic(
        g, diffs + ([v_boundary] if initial is None else []), tol_linear
    )
    w = [np.zeros(g.mask.shape)] * data.m
    for wf, comp in zip(harmonic, comps):
        w[comp - 1] = wf.values
    v = harmonic[-1].values if initial is None else initial[p - 1].values / A[p - 1]

    a_max = float(A.max())
    history: list[float] = []
    while len(history) < max_steps:
        F, dF = _reaction(v, w, A, alphas)
        # F'(v) v - F(v) >= -F(0) = 0 by convexity; the max drops rounding
        source = np.maximum(dF * v - F, 0.0) / epsilon
        nxt, st = solve_screened(g, dF / epsilon, v_boundary, tol_linear, source=source)
        stats.append(st)
        history.append(a_max * float(np.abs(nxt.values - v).max()))
        v = nxt.values
        if history[-1] <= tol_abs:
            return SolveResult(
                _recover(g, v, w, A, phi, M), epsilon, len(history), history[-1],
                history, stats, time.perf_counter() - t0,
            )
    last = history[-1] if history else float("inf")
    raise SolverError(
        f"Newton not converged after {len(history)} steps (update {last:.3e}, "
        f"target {tol_abs:.3e})",
        gap=last, history=history,
    )


def _recover(g, v, w, A, phi, M) -> tuple[ScalarField, ...]:
    """u_j = A_j (v - w_j), exact on the boundary and 0 outside the domain."""
    bnd = g.boundary()
    outside = ~g.in_domain()
    fields = []
    for wj, a, ph in zip(w, A, phi):
        u = a * (v - wj)
        # the subtraction of two O(M) fields resolves u only to about
        # ulp(M): values within CLAMP_REL * M of 0, of either sign, are
        # rounding noise (a component with zero data must come out 0)
        u[np.abs(u) < CLAMP_REL * M] = 0.0
        u[bnd] = ph[bnd]
        u[outside] = 0.0
        fields.append(ScalarField(g, u))
    return tuple(fields)


def _solve_sweeps(g, data, epsilon, tol_fp, max_sweeps, tol_linear, initial) -> SolveResult:
    """The decoupled sweep iteration: stops when the even/odd sup gap falls
    below tol_fp * M and returns the midpoint of the last pair."""
    t0 = time.perf_counter()
    M = data.max_boundary_value(g)
    tol_abs = tol_fp * M

    all_stats: list[LinearSolveStats] = []
    if initial is None:
        state = initialize(g, data, tol_linear)
        all_stats.extend(state.linear_stats)
    else:
        state = IterationState(0, tuple(f.copy() for f in initial), None, float("inf"))
    even = state.fields
    gaps: list[float] = []
    sweeps = 0
    while sweeps < max_sweeps:
        state = sweep(state, epsilon, data, tol_linear)
        sweeps += 1
        all_stats.extend(state.linear_stats)
        odd = state.fields
        gap = _sup_gap(even, odd)
        gaps.append(gap)
        if gap <= tol_abs:
            mid = tuple(
                ScalarField(g, 0.5 * (e.values + o.values)) for e, o in zip(even, odd)
            )
            return SolveResult(
                mid, epsilon, sweeps, gap, gaps, all_stats, time.perf_counter() - t0,
            )
        if sweeps >= max_sweeps:
            break
        state = sweep(state, epsilon, data, tol_linear)
        sweeps += 1
        all_stats.extend(state.linear_stats)
        even = state.fields
    raise SolverError(
        f"fixed point not converged after {sweeps} sweeps (gap {gaps[-1]:.3e}, "
        f"target {tol_abs:.3e})",
        gap=gaps[-1] if gaps else None, history=gaps,
    )


def difference_harmonicity_check(r: SolveResult) -> float:
    """Max interior |Lap(u_1 - u_{i+1})| over i.

    The difference identity Lap(u_i/A_i - u_j/A_j) = 0 holds for any
    constant weights and any exponents; this unscaled form checks it for
    equal weights and is a report, not an invariant, otherwise.
    """
    g = r.fields[0].grid
    interior = g.interior()
    worst = 0.0
    for i in range(1, r.m):
        d = ScalarField(g, r.fields[0].values - r.fields[i].values)
        lap = apply_laplacian(d).values
        worst = max(worst, float(np.abs(lap[interior]).max(initial=0.0)))
    return worst
