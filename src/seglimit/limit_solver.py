"""Explicit construction of the vanishing-epsilon limit.

Every equation carries the same reaction term scaled by its weight A_i,
so for constant weights all scaled differences u_p/A_p - u_j/A_j against
a pivot component p are harmonic with boundary data phi_p/A_p - phi_j/A_j,
at any epsilon and for any exponents.  The limit is then assembled
pointwise: the scaled pivot v = u_p/A_p is the positive part of the
largest difference field and every component is recovered as
u_j = A_j (v - w_j).  By construction the fields are nonnegative, their
product vanishes at every node, and the pivot is a pointwise maximum of
harmonic fields and 0, hence discretely subharmonic.  The construction is
pivot-independent.

The result keeps the harmonic fields w_j as solved and the scaled pivot
v_lim = max(0, max_k w_k): ``epsilon_solver`` starts Newton from v_lim on
these same fields.
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
    difference_components: tuple[int, ...]  # 1-based component of each harmonic field
    pivot: int  # 1-based
    linear_stats: list[LinearSolveStats]  # one per harmonic field
    harmonic: tuple[ScalarField, ...]  # w_j = u_p/A_p - u_j/A_j for j != p, as solved
    scaled_pivot: ScalarField  # v_lim = max(0, max_k w_k), 0 outside the domain

    @property
    def m(self) -> int:
        return len(self.fields)


def harmonic_differences(
    g: Grid, data: ProblemData, pivot: int = 1, tol_linear: float = DEFAULT_TOL
):
    """Harmonic fields with boundary data phi_p/A_p - phi_j/A_j for j != p.

    Returns (fields, component_indices, stats); indices are 1-based.  All
    m - 1 fields come from one batched solve.
    """
    if not 1 <= pivot <= data.m:
        raise ValueError(f"pivot {pivot} out of range 1..{data.m}")
    scaled = [arr / a for arr, a in zip(data.boundary_arrays(g), data.weights.values)]
    comps = tuple(j for j in range(1, data.m + 1) if j != pivot)
    fields, stats = solve_harmonic(
        g, [scaled[pivot - 1] - scaled[j - 1] for j in comps], tol_linear
    )
    return fields, comps, stats


def construct_limit(
    w_fields: list[ScalarField], components: tuple[int, ...], pivot: int,
    weights: np.ndarray, stats: list[LinearSolveStats],
) -> LimitResult:
    """Assemble the limit from scaled difference fields sharing one grid.

    ``weights`` are the constant A_i and ``stats`` the harmonic solves'
    statistics, one per field.  Ties in the max need no tie-breaking; nodes
    where several differences coincide are exactly the multi-interface
    points.
    """
    g = w_fields[0].grid
    m = len(w_fields) + 1
    stacked = np.stack([w.values for w in w_fields] + [np.zeros(g.mask.shape)])
    v = stacked.max(axis=0)
    outside = ~g.in_domain()
    v[outside] = 0.0

    fields: list[ScalarField | None] = [None] * m
    for w, comp in zip(w_fields, components):
        vals = weights[comp - 1] * (v - w.values)
        vals[outside] = 0.0
        fields[comp - 1] = ScalarField(g, vals)
    fields[pivot - 1] = ScalarField(g, weights[pivot - 1] * v)
    return LimitResult(
        tuple(fields), components, pivot, stats, tuple(w_fields), ScalarField(g, v),
    )


def solve_limit(
    g: Grid, data: ProblemData, pivot: int = 1, tol_linear: float = DEFAULT_TOL
) -> LimitResult:
    w, comps, stats = harmonic_differences(g, data, pivot, tol_linear)
    return construct_limit(w, comps, pivot, data.weights.values, stats)


def pivot_equivalence_check(
    g: Grid, data: ProblemData, p: int, q: int, tol_linear: float = DEFAULT_TOL
) -> float:
    """Max sup-norm discrepancy across components between pivots p and q."""
    if p == q:
        raise ValueError("pivots must differ")
    rp = solve_limit(g, data, p, tol_linear)
    rq = solve_limit(g, data, q, tol_linear)
    return max(
        float(np.abs(a.values - b.values).max())
        for a, b in zip(rp.fields, rq.fields)
    )
