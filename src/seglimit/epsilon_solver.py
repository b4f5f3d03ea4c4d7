"""Solver for the coupled system at fixed epsilon.

The Newton path runs on the difference identity of ``limit_solver``: it
takes the harmonic fields w_j and the pivot p from a ``LimitResult``, and
the system reduces to one scalar equation for the scaled pivot
v = u_p/A_p,

    Lap v = F(v)/eps,   F(v) = prod_j (A_j (v - w_j))_+^alpha_j,  w_p = 0,

with boundary data phi_p/A_p.  F is nondecreasing and convex.  Newton
starts from the scaled limit pivot v_lim = max(0, max_k w_k), which is a
subsolution: it is subharmonic, F(v_lim) = 0, and by partial segregation
its boundary values are phi_p/A_p.  So v_lim <= v*.  Each Newton step is
one screened M-matrix solve.  By convexity its result is a supersolution,
whatever the iterate it started from, and from the first step on the
iterates decrease monotonically to the solution v* (monotone Newton for
convex M-functions).  So every iterate is at or above v_lim, and Newton
keeps that order: it lifts a computed iterate to max(v, v_lim), as a
value below v_lim within the bounds of its solve and of v_lim is
rounding, and raises a ``SolverError`` on one further below.  Without the
lift an iterate that rounds below v_lim has F = F' = 0 there, so the node
turns harmonic, rises, and the next factorizing step pins it back: a
2-cycle that stalls Newton at tiny eps.  The components are recovered
with ``limit_solver.recover``; as v >= v_lim >= w_j, every u_j is
nonnegative as computed.

Chord steps (Shamanskii's method).  With G(v) = -Lap v + F(v)/eps and
J(a) = -Lap + diag(F'(a)/eps), a chord step from a supersolution v on the
Jacobian of a point a >= v is v+ = v - J(a)^{-1} G(v), one more
triangular solve on the factor of J(a).  As G(v) >= 0 and J(a)^{-1} >= 0,
v+ <= v.  By convexity G(v) - G(v*) <= J(v) (v - v*), so
J(a) (v+ - v*) >= diag(F'(a) - F'(v)) (v - v*)/eps >= 0, as F' is
nondecreasing: v+ >= v*.  And G(v+) >= (J(a) - J(v)) J(a)^{-1} G(v) >= 0,
so v+ is again a supersolution below a, and the next chord step may use
the same factor (Ortega & Rheinboldt, Iterative Solution of Nonlinear
Equations in Several Variables, 1970, 13.3; Kelley, Iterative Methods for
Linear and Nonlinear Equations, 1995, 5.4).  A chord step costs one
triangular solve, so it pays while it shrinks the update at least as
much as the Newton step that made its factor did.  With rho that step's
update over the update of the factorizing step before it, a chord step
follows it only if rho < 1, and another chord step follows only while
the update stays positive and at most rho times the one before;
otherwise the next step factorizes at the current iterate.  Two factors
take no chord step:

- the first, made at the start v_lim (or ``initial``), which lies below
  the iterates, so a chord step on it need not decrease them;
- a tridiagonal one (every interval grid), which costs no more than the
  solve itself, so a chord step saves nothing and converges more slowly
  than the Newton step it replaces.

The stop is certified.  For any v with the exact boundary values,
G(v) - G(v*) = (-Lap + diag(D)) (v - v*) with D >= 0 the divided
difference of F/eps (F is nondecreasing), so by the discrete maximum
principle |v - v*| <= R^2/(2d) max_p |G(v)_p|, whatever c = D is.  After
every solve the residual R = Lap_h v - F(v)/eps is evaluated at the
interior nodes, with the F the next step needs, and the iteration stops
when a_max R^2/(2d) max_p (|R_p| + rho_p) <= tol_fp M, where rho_p bounds
the rounding of R_p.  The update rule stays as the fallback: Newton also
stops when the update of a factorizing step is at most tol_fp M.  The
certificate cannot reach tol_fp where the screening coefficient c is large
(small eps on fine grids): the residual of a computed iterate is then at
least the rounding of c v, and R^2/(2d) ignores the c that damps it.

What remains here of the decoupled sweep iteration is its two
primitives, ``initialize`` and ``sweep``, on plain tuples of fields; no
solve runs them.  They are kept because the benchmark traces them by
name, and the tests build a cross-check oracle from them.  ``initialize``
gives the harmonic extensions of the boundary data, and one sweep solves
one screened linear problem per component in ascending order: component i
sees the fresh iterates of components j < i and the lagged ones of j > i,
averaged into the screening coefficient.  For general exponents
alpha_i >= 1 each inactive factor enters lagged as u_j ** alpha_j and the
active component is linearized semi-implicitly as
u_i_new * u_i_old ** (alpha_i - 1), keeping every sub-problem linear with
a nonnegative coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic_core import (
    DEFAULT_TOL,
    Factor,
    LinearSolveStats,
    ScalarField,
    grid_operator,
    solve_harmonic,
    solve_screened,
)
from .errors import SolverError
from .geometry import Grid
from .limit_solver import LimitResult, recover, solve_limit
from .problem_data import ProblemData

DEFAULT_TOL_FP = 1e-8
DEFAULT_MAX_SWEEPS = 500


@dataclass
class SolveResult:
    fields: tuple[ScalarField, ...]
    epsilon: float
    # the measure that met tol_fp * M: the residual certificate (a bound on
    # the fields' error) at a "certified" stop, else the last update
    gap: float
    gap_history: list[float]  # the update norm of each Newton and chord step
    linear_stats: list[LinearSolveStats]
    stop: str = "update"  # "certified" or "update"

    @property
    def m(self) -> int:
        return len(self.fields)

    @property
    def sweeps(self) -> int:
        """The Newton and chord steps."""
        return len(self.gap_history)


def initialize(
    g: Grid, data: ProblemData, tol_linear: float = DEFAULT_TOL
) -> tuple[ScalarField, ...]:
    """U^0: the harmonic extensions of the boundary data."""
    fields, _ = solve_harmonic(g, data.boundary_arrays(g), tol_linear)
    return tuple(fields)


def sweep(
    fields: tuple[ScalarField, ...],
    epsilon: float,
    data: ProblemData,
    tol_linear: float = DEFAULT_TOL,
) -> tuple[ScalarField, ...]:
    """One decoupled sweep U^k -> U^{k+1}, components in ascending order."""
    g = fields[0].grid
    boundary_arrays = data.boundary_arrays(g)
    A = data.weights.values
    alphas = data.exponents.alphas
    m = data.m

    old = [f.values for f in fields]
    old_pow = [np.power(old[j], alphas[j]) if alphas[j] != 1 else old[j] for j in range(m)]
    suf, _ = _suffix_products(old_pow)

    new_fields: list[ScalarField] = []
    pre_old = np.ones_like(old[0])  # prod_{j<i} old_pow[j]
    pre_new = np.ones_like(old[0])  # prod_{j<i} new_pow[j]
    for i in range(m):
        active = old[i] ** (alphas[i] - 1) if alphas[i] != 1 else 1.0
        c = (A[i] / (2.0 * epsilon)) * (pre_old + pre_new) * suf[i] * active
        f, _ = solve_screened(g, c, boundary_arrays[i], tol_linear)
        new_fields.append(f)
        pre_old = pre_old * old_pow[i]
        nv = f.values
        pre_new = pre_new * (np.power(nv, alphas[i]) if alphas[i] != 1 else nv)

    return tuple(new_fields)


def solve_epsilon(
    g: Grid,
    data: ProblemData,
    epsilon: float,
    tol_fp: float = DEFAULT_TOL_FP,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol_linear: float = DEFAULT_TOL,
    initial: tuple[ScalarField, ...] | None = None,
    limit: LimitResult | None = None,
) -> SolveResult:
    """Solve the system at fixed epsilon by the reduced Newton iteration.

    It runs on the pivot and the harmonic difference fields of ``limit``,
    the explicit limit of the same problem on ``g``; without one it builds
    the pivot-1 limit with ``solve_limit``.  Newton starts from the limit's scaled pivot
    v_lim, a subsolution, so its first iterate is a supersolution and the
    later ones, chord iterates included, decrease monotonically.  It stops
    when the residual certificate bounds the fields' error by tol_fp * M
    (``SolveResult.stop`` "certified", ``gap`` the certificate), or when
    the largest component update max_j A_j |dv|_inf of a factorizing step
    falls below tol_fp * M ("update").  ``max_sweeps`` caps
    (``SolveResult.sweeps`` counts) the Newton and chord steps.  When two
    consecutive factorizing steps after the first set no new least update,
    the iteration has reached the rounding floor of its solves short of
    tol_fp and raises a ``SolverError`` with the update history.
    ``initial`` overrides the start (used for uniqueness cross-checks).
    ``SolveResult.linear_stats`` lists the linear solves the call made,
    those of a limit it built included.
    """
    if not (epsilon > 0 and 1 / float(epsilon) < math.inf):
        raise ValueError("epsilon must be positive with a finite reciprocal")
    if tol_fp <= 0:
        raise ValueError("tol_fp must be positive")
    stats: list[LinearSolveStats] = []
    if limit is None:
        limit = solve_limit(g, data, tol_linear=tol_linear)
        stats.extend(limit.linear_stats)
    elif limit.scaled_pivot.grid is not g:
        raise ValueError("the limit was built on another grid")
    p = limit.pivot
    A = data.weights.values
    alphas = data.exponents.alphas
    phi = data.boundary_arrays(g)
    tol_abs = tol_fp * data.max_boundary_value(g)
    w = limit.w
    v_boundary = phi[p - 1] / A[p - 1]
    v_lim = limit.scaled_pivot.values
    v = v_lim if initial is None else initial[p - 1].values / A[p - 1]

    a_max = float(A.max())
    op = grid_operator(g)
    # the computed residual Lap_h v - F(v)/eps at a node is within
    # gamma_K (sum_k coef_k |v_qk - v_p| + |F_p|/eps) of the exact one: 2d
    # stencil terms of two operations each, summed; F from m factors of two
    # operations, a power and a product each, divided by eps; and the
    # subtraction
    unit = np.finfo(float).eps / 2
    K = 2 * g.ndim + 4 * data.m + 4
    gamma = K * unit / (1 - K * unit)

    def certificate(v, F):
        lap, mag = op.laplacian_terms(v)
        f = F.ravel()[op.interior_flat] / epsilon
        return float(a_max * op.inverse_norm_bound
                     * (np.abs(lap - f) + gamma * (mag + np.abs(f))).max(initial=0.0))

    def result(stop, gap):
        return SolveResult(
            recover(g, v, w, A, phi), epsilon,
            gap, history, stats, stop,
        )

    history: list[float] = []
    newton_updates: list[float] = []  # the updates of the factorizing steps
    rho = 0.0  # the last factorizing step's update over the one before
    newton = True
    held = Factor()
    F, dF = _reaction(v, w, A, alphas)
    try:
        while len(history) < max_sweeps:
            if newton:
                # a Newton step factorizes at the current iterate; ``held``
                # frees its factor of the last one first (``Factor.use``)
                dF_k = dF
                c = dF / epsilon
            # F'(v_k) v - F(v) >= F'(v) v - F(v) >= -F(0) = 0 for v_k >= v >= 0
            # by convexity; the max drops rounding
            source = np.maximum(dF_k * v - F, 0.0) / epsilon
            nxt, st = solve_screened(g, c, v_boundary, tol_linear, source=source, factor=held)
            stats.append(st)
            history.append(a_max * float(np.abs(nxt.values - v).max()))
            # every iterate is >= v* >= v_lim: lift a rounding dip below
            # v_lim, and fail on one beyond the bounds of v_lim and the solve
            v = np.maximum(nxt.values, v_lim)
            dip, slack = float((v - nxt.values).max()), st.error_bound + max(limit.w_bound)
            if dip > slack:
                raise SolverError(f"Newton step {len(history)}: the iterate lies {dip:.3e} below "
                                  f"v_lim, beyond the certified error bound {slack:.3e}", stats=st)
            F, dF = _reaction(v, w, A, alphas)
            bound = certificate(v, F)
            if bound <= tol_abs:
                return result("certified", bound)
            if not newton:
                # the chord steps go on while they contract at least by rho
                newton = not 0.0 < history[-1] <= rho * history[-2]
                continue
            if history[-1] <= tol_abs:
                return result("update", history[-1])
            newton_updates.append(history[-1])
            if len(newton_updates) >= 2:
                # only a SuperLU factor made at a Newton iterate (above the
                # iterates that follow it) serves chord steps, and only
                # after a step that contracted
                rho = history[-1] / newton_updates[-2]
                newton = st.kernel != "superlu" or not rho < 1.0
                # from here on monotone Newton's updates decrease; two in a
                # row that set no new least (the least of those from the
                # second on) have reached the rounding floor of the solves
                best = min(newton_updates[1:-2], default=math.inf)
                if min(newton_updates[-2:]) >= best:
                    raise SolverError(
                        f"Newton stalled at step {len(history)}: updates {newton_updates[-2]:.3e} "
                        f"and {history[-1]:.3e} do not fall below {best:.3e}, target "
                        f"{tol_abs:.3e}",
                        gap=history[-1], history=history,
                    )
    finally:
        held.clear()
    last = history[-1] if history else float("inf")
    raise SolverError(
        f"Newton not converged after {len(history)} steps (update {last:.3e}, "
        f"target {tol_abs:.3e})",
        gap=last, history=history,
    )


def _reaction(v: np.ndarray, w: list[np.ndarray], A, alphas) -> tuple[np.ndarray, np.ndarray]:
    """F(v) and its right derivative F'(v), nodewise."""
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
    suf, F = _suffix_products(fac)
    dF = np.zeros_like(v)
    pre = np.ones_like(v)
    for k in range(len(w)):
        dF += dfac[k] * pre * suf[k]
        pre = pre * fac[k]
    return F, dF


def _suffix_products(factors: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """``suf[i] = prod_{j > i} factors[j]`` for every i, and the product of
    all the factors, multiplied from the last factor down."""
    suf = [None] * len(factors)
    acc = np.ones_like(factors[0])
    for j in range(len(factors) - 1, -1, -1):
        suf[j] = acc
        acc = acc * factors[j]
    return suf, acc
