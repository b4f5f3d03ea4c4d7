"""Diagnostics only the tests use: the segregation residual, the discrete
Dirichlet energy, the pivot-equivalence check of the explicit limit, and
configs whose discrete limit is exact."""

import numpy as np

from seglimit import Grid, ProblemData, ScalarField, solve_limit
from seglimit.analysis import _cell_volume
from seglimit.cli import parse_config
from seglimit.elliptic_core import DEFAULT_TOL
from seglimit.problem_data import compile_expression


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


def harmonic_cubic_config(path, cubics: list[str], n: int):
    """The parsed config, written to ``path``, of the problem on [-1, 1]^2
    at n x n nodes whose data are ``phi_k = max(0, max_l H_l) - H_k`` with
    H_1 = 0 and H_2 .. H_m the harmonic ``cubics`` (expressions in x and y).

    Each phi_k is written as ``max(0, max_{l != k} (H_l - H_k))``, each max
    as ``max(a, b) = (a + b + abs(a - b)) / 2``, which is never negative in
    floating point when a >= 0.  The stencil is exact on cubics, so every
    w_j is H_j - H_p on the grid and the discrete limit is the expression
    of phi_k at every node (``harmonic_cubic_limit``), up to rounding."""
    H = ["0", *cubics]
    data = []
    for k, hk in enumerate(H):
        phi = "0"
        for hl in H[:k] + H[k + 1:]:
            d = f"(({hl}) - ({hk}))"
            phi = f"({phi} + {d} + abs({phi} - {d})) / 2"
        data.append(f'[boundary.{k + 1}]\npiece = "all: {phi}"\n')
    m = len(H)
    ones = ", ".join(["1"] * m)
    path.write_text(
        f"[domain]\nkind = rectangle\nbounds = -1 1 -1 1\nn = {n}\n\n"
        f"[system]\nm = {m}\nepsilon = 1e-8\nalpha = [{ones}]\nA = [{ones}]\n\n"
        + "\n".join(data)
    )
    return parse_config(path)


def harmonic_cubic_limit(g: Grid, cubics: list[str]) -> list[np.ndarray]:
    """The exact limit of ``harmonic_cubic_config`` at every node of ``g``:
    u_k = max(0, max_l H_l) - H_k."""
    X, Y = g.node_coords()
    H = [np.zeros(g.mask.shape)] + [
        np.vectorize(lambda x, y, f=compile_expression(h): f(x=x, y=y))(X, Y) for h in cubics
    ]
    top = np.maximum.reduce(H)
    return [top - h for h in H]
