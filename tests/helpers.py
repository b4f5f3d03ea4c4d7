"""Diagnostics only the tests use: the segregation residual, the discrete
Dirichlet energy and the pivot-equivalence check of the explicit limit."""

import numpy as np

from seglimit import Grid, ProblemData, ScalarField, solve_limit
from seglimit.analysis import _cell_volume
from seglimit.elliptic_core import DEFAULT_TOL


def segregation_residual(
    fields: tuple[ScalarField, ...], weights, exponents=None
) -> tuple[float, list[float]]:
    """(max nodal product, per-component reaction integrals int A_i F(U))."""
    g = fields[0].grid
    inside = g.in_domain()
    alphas = exponents.alphas if exponents is not None else (1.0,) * len(fields)
    F = np.ones(g.mask.shape)
    for f, a in zip(fields, alphas):
        F = F * (np.power(f.values, a) if a != 1 else f.values)
    max_product = float(F[inside].max(initial=0.0))
    vol = _cell_volume(g)
    integrals = [float(vol * (a * F[inside]).sum()) for a in weights.values]
    return max_product, integrals


def discrete_energy(fields) -> float:
    """Forward-difference Dirichlet energy summed over all components."""
    if isinstance(fields, ScalarField):
        fields = (fields,)
    g = fields[0].grid
    inside = g.in_domain()
    vol = _cell_volume(g)
    total = 0.0
    for f in fields:
        for k in range(g.ndim):
            # grid axis k is mask axis ndim - 1 - k; edges with both ends in
            # the domain
            ax = g.ndim - 1 - k
            ok = np.delete(inside, 0, axis=ax) & np.delete(inside, -1, axis=ax)
            total += vol * float(((np.diff(f.values, axis=ax) / g.spacing[k])[ok] ** 2).sum())
    return total


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
