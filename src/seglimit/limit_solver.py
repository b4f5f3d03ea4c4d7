"""Explicit construction of the vanishing-epsilon limit.

Every equation carries the same reaction term scaled by its weight A_i,
so for constant weights the scaled differences w_j = u_p/A_p - u_j/A_j
against a pivot component p are harmonic with boundary data
phi_p/A_p - phi_j/A_j, at any epsilon and for any exponents (w_p = 0).
Given the scaled pivot v = u_p/A_p, every component is recovered as
u_j = A_j (v - w_j) (``recover``).  The limit takes v = v_lim, the
positive part of the largest difference field.  By construction its
fields are nonnegative, their product vanishes at every node, and the
pivot is a pointwise maximum of harmonic fields and 0, hence discretely
subharmonic.  The construction is pivot-independent.

The result keeps the m fields w_j as solved and v_lim: ``epsilon_solver``
starts Newton from v_lim on these same fields and recovers its
components with the same ``recover``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic_core import DEFAULT_TOL, LinearSolveStats, ScalarField, solve_harmonic
from .geometry import Grid
from .problem_data import ProblemData


@dataclass
class LimitResult:
    fields: tuple[ScalarField, ...]
    pivot: int  # 1-based
    linear_stats: list[LinearSolveStats]  # one per harmonic field
    w: tuple[np.ndarray, ...]  # w_j = u_p/A_p - u_j/A_j in component order, 0 at the pivot
    w_bound: tuple[float, ...]  # the certified error bound of each w_j, 0 at the pivot
    scaled_pivot: ScalarField  # v_lim = max(0, max_k w_k), 0 outside the domain
    weights: np.ndarray  # the A_j the fields were recovered with
    # w_bound[j] + max(w_bound): u_j is set to 0 where v_lim - w_j is within it
    tie_windows: tuple[float, ...]
    # per component, the interior nodes the tie rule set to 0 whose computed
    # value was not already 0
    ties: tuple[int, ...]


def harmonic_differences(
    g: Grid, data: ProblemData, pivot: int = 1, tol_linear: float = DEFAULT_TOL
):
    """The m fields w_j, harmonic with boundary data phi_p/A_p - phi_j/A_j.

    Returns (w, stats): w in component order with w_p = 0, and the
    statistics of the m - 1 harmonic fields, which come from one batched
    solve.
    """
    if not 1 <= pivot <= data.m:
        raise ValueError(f"pivot {pivot} out of range 1..{data.m}")
    scaled = [arr / a for arr, a in zip(data.boundary_arrays(g), data.weights.values)]
    fields, stats = solve_harmonic(
        g, [scaled[pivot - 1] - s for j, s in enumerate(scaled, 1) if j != pivot], tol_linear
    )
    w = [f.values for f in fields]
    w.insert(pivot - 1, np.zeros(g.mask.shape))
    return w, stats


def construct_limit(
    g: Grid, data: ProblemData, pivot: int, w: list[np.ndarray],
    stats: list[LinearSolveStats],
) -> LimitResult:
    """Assemble the limit on pivot ``pivot`` from the fields and statistics
    of ``harmonic_differences``.

    The exact u_j vanishes where the exact W_j is the largest difference,
    so its zero set is where that maximum ties W_j.  With b_j the certified
    bound of w_j (0 for w_p = 0), the computed gap v_lim - w_j is then at
    most (W_j + max_k b_k) - (W_j - b_j) = b_j + max_k b_k.  So u_j is set
    to 0 at every interior node where the gap is within that sum: the
    nodes where the bounds admit an exact zero.  This one rule settles
    every tie, at every pivot and at any scale of the data, as the bounds
    scale with them; nodes in several zero sets are exactly the
    multi-interface points.  The result keeps each component's window
    and the count of nodes the rule set to 0 from a nonzero value.
    """
    v = np.stack(w).max(axis=0)  # w_p = 0 is among the w
    v[~g.in_domain()] = 0.0
    w_bound = [st.error_bound for st in stats]
    w_bound.insert(pivot - 1, 0.0)
    A = data.weights.values
    fields = recover(g, v, w, A, data.boundary_arrays(g))
    interior = g.interior()
    windows = tuple(b + max(w_bound) for b in w_bound)
    ties = []
    for f, wj, window in zip(fields, w, windows):
        tie = interior & (v - wj <= window)
        ties.append(int(np.count_nonzero(f.values[tie])))
        f.values[tie] = 0.0
    return LimitResult(fields, pivot, stats, tuple(w), tuple(w_bound), ScalarField(g, v), A,
                       windows, tuple(ties))


def recover(g, v, w, A, phi) -> tuple[ScalarField, ...]:
    """u_j = A_j (v - w_j), exact on the boundary and 0 outside the domain.

    Both solvers pass a v at or above max(0, max_k w_k), so every u_j is
    nonnegative as computed; adding 0.0 makes each zero +0.0.  A
    component with zero boundary data is 0, as 0 <= u_j <= H(phi_j) = 0
    by the maximum principle (u_j is subharmonic).
    """
    bnd = g.boundary()
    outside = ~g.in_domain()
    fields = []
    for wj, a, ph in zip(w, A, phi):
        if not ph[bnd].any():
            fields.append(ScalarField(g, np.zeros(g.mask.shape)))
            continue
        u = a * (v - wj)
        u[bnd] = ph[bnd]
        u[outside] = 0.0
        u += 0.0
        fields.append(ScalarField(g, u))
    return tuple(fields)


def solve_limit(
    g: Grid, data: ProblemData, pivot: int = 1, tol_linear: float = DEFAULT_TOL
) -> LimitResult:
    w, stats = harmonic_differences(g, data, pivot, tol_linear)
    return construct_limit(g, data, pivot, w, stats)
