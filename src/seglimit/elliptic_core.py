"""Discrete Laplacian and the two linear kernels: harmonic and screened
Dirichlet solves on classified grids.

The stencil is the standard second-order centered one (5-point in 2D,
3-point in 1D).  Dirichlet values are eliminated: unknowns live at interior
nodes only, so the system matrix is a symmetric M-matrix and the discrete
maximum principle holds.  Every system is solved by one sparse LU
factorization (SuperLU) followed by triangular solves, and every solution
passes a backward-error residual check.  A harmonic solve takes a batch of
boundary data on one grid and factorizes the grid Laplacian once for the
whole batch; the factor is freed when the call returns.  Systems with more
than ``DIRECT_SOLVE_LIMIT`` unknowns are refused with a ``SolverError``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .geometry import Grid, NodeClass

DEFAULT_TOL = 1e-10
DIRECT_SOLVE_LIMIT = 150_000

# values in (-CLAMP_REL*M, 0) are rounding noise and are clamped to 0 so
# downstream products never see negative factors; same guard above M
CLAMP_REL = 1e-14


@dataclass
class LinearSolveStats:
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per grid node; exterior nodes are fixed to 0."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.mask.shape:
            raise ValueError("field shape does not match grid")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def constant_field(g: Grid, value: float = 0.0) -> ScalarField:
    vals = np.full(g.mask.shape, float(value))
    vals[~g.in_domain()] = 0.0
    return ScalarField(g, vals)


class _GridOperator:
    """Cached assembly data for one grid: interior numbering, Laplacian
    structure, and the boundary-to-RHS coupling."""

    def __init__(self, g: Grid):
        # holds no reference to g: the cache below is keyed weakly by it
        mask = g.mask
        flat_mask = mask.ravel()
        self.interior_flat = np.nonzero(flat_mask == NodeClass.INTERIOR)[0]
        self.n_unknowns = self.interior_flat.size
        unk = np.full(flat_mask.size, -1, dtype=np.int64)
        unk[self.interior_flat] = np.arange(self.n_unknowns)

        if g.ndim == 1:
            (nx,) = g.dims
            shape = (nx,)
            shifts = [((-1,), 1.0 / g.spacing[0] ** 2), ((1,), 1.0 / g.spacing[0] ** 2)]
        else:
            nx, ny = g.dims
            shape = (ny, nx)
            cx = 1.0 / g.spacing[0] ** 2
            cy = 1.0 / g.spacing[1] ** 2
            shifts = [((0, -1), cx), ((0, 1), cx), ((-1, 0), cy), ((1, 0), cy)]

        idx = np.arange(flat_mask.size).reshape(shape)
        off_rows, off_cols, off_vals = [], [], []
        bnd_rows, bnd_cols, bnd_vals = [], [], []
        diag = np.zeros(self.n_unknowns)
        for shift, coef in shifts:
            src, dst = _shift_slices(shape, shift)
            p = idx[src].ravel()
            q = idx[dst].ravel()
            sel = flat_mask[p] == NodeClass.INTERIOR
            p, q = p[sel], q[sel]
            diag_rows = unk[p]
            np.add.at(diag, diag_rows, coef)
            q_int = flat_mask[q] == NodeClass.INTERIOR
            off_rows.append(unk[p[q_int]])
            off_cols.append(unk[q[q_int]])
            off_vals.append(np.full(q_int.sum(), -coef))
            q_bnd = flat_mask[q] == NodeClass.BOUNDARY
            bnd_rows.append(unk[p[q_bnd]])
            bnd_cols.append(q[q_bnd])
            bnd_vals.append(np.full(q_bnd.sum(), coef))
            if np.any(flat_mask[q] == NodeClass.EXTERIOR):
                raise ValueError("interior node with exterior stencil neighbor")

        n = self.n_unknowns
        self.base_diag = diag
        self.offdiag = sp.csr_matrix(
            (np.concatenate(off_vals), (np.concatenate(off_rows), np.concatenate(off_cols))),
            shape=(n, n),
        )
        self.boundary_op = sp.csr_matrix(
            (np.concatenate(bnd_vals), (np.concatenate(bnd_rows), np.concatenate(bnd_cols))),
            shape=(n, flat_mask.size),
        )
        self._shifts = shifts
        self._shape = shape

    def matrix(self, c_interior: np.ndarray | None) -> sp.csr_matrix:
        diag = self.base_diag if c_interior is None else self.base_diag + c_interior
        return self.offdiag + sp.diags(diag)

    def rhs(self, boundary_values_flat: np.ndarray) -> np.ndarray:
        return self.boundary_op @ boundary_values_flat


def _shift_slices(shape, shift):
    src = []
    dst = []
    for s in shift:
        if s == -1:
            src.append(slice(1, None))
            dst.append(slice(None, -1))
        elif s == 1:
            src.append(slice(None, -1))
            dst.append(slice(1, None))
        else:
            src.append(slice(None))
            dst.append(slice(None))
    return tuple(src), tuple(dst)


_operator_cache: "weakref.WeakKeyDictionary[Grid, _GridOperator]" = weakref.WeakKeyDictionary()


def grid_operator(g: Grid) -> _GridOperator:
    op = _operator_cache.get(g)
    if op is None:
        op = _GridOperator(g)
        _operator_cache[g] = op
    return op


def apply_laplacian(u: ScalarField) -> ScalarField:
    """Centered-stencil Laplacian at interior nodes, 0 elsewhere."""
    g = u.grid
    op = grid_operator(g)
    vals = u.values
    out = np.zeros_like(vals)
    flat = vals.ravel()
    out_flat = out.ravel()
    interior = op.interior_flat
    acc = np.zeros(interior.size)
    idx = np.arange(flat.size).reshape(op._shape)
    flat_mask = g.mask.ravel()
    for shift, coef in op._shifts:
        src, dst = _shift_slices(op._shape, shift)
        p = idx[src].ravel()
        q = idx[dst].ravel()
        sel = flat_mask[p] == NodeClass.INTERIOR
        p, q = p[sel], q[sel]
        contrib = np.zeros(flat.size)
        np.add.at(contrib, p, coef * (flat[q] - flat[p]))
        acc += contrib[interior]
    out_flat[interior] = acc
    return ScalarField(g, out)


def _solve_linear(A: sp.spmatrix, rhs: list[np.ndarray], tol: float):
    """Solve A x = b for every b in ``rhs`` with one LU factorization.

    Returns ``(solutions, stats)`` in input order.  Zero right-hand sides
    get the zero solution; when all are zero nothing is factorized.
    """
    n = A.shape[0]
    if n > DIRECT_SOLVE_LIMIT:
        raise SolverError(
            f"{n} unknowns exceed the direct-solve limit of {DIRECT_SOLVE_LIMIT}"
        )
    xs = [np.zeros_like(b) for b in rhs]
    stats = [LinearSolveStats(0, 0.0, True) for _ in rhs]
    bnorms = [float(np.linalg.norm(b)) for b in rhs]
    live = [k for k, bnorm in enumerate(bnorms) if bnorm != 0.0]
    if not live:
        return xs, stats
    lu = spla.splu(A.tocsc())
    a_norm = float(spla.norm(A, np.inf))
    for k in live:
        b = rhs[k]
        # one triangular solve per column: a multi-column solve runs blocked
        # BLAS kernels whose rounding depends on the block width, so it
        # would not reproduce a single solve bit for bit
        x = lu.solve(b)
        # backward-error style relative residual: stable for the stiff
        # screened systems where ||A|| >> ||b|| / ||x||
        scale = max(bnorms[k], a_norm * float(np.abs(x).max(initial=0.0)))
        res = float(np.linalg.norm(b - A @ x)) / scale
        stats[k] = LinearSolveStats(1, res, res <= tol)
        if res > tol:
            raise SolverError(f"direct solve residual {res:.3e} exceeds tol {tol:g}", stats=stats[k])
        xs[k] = x
    return xs, stats


def _boundary_flat(g: Grid, boundary_values) -> np.ndarray:
    vals = boundary_values.values if isinstance(boundary_values, ScalarField) else np.asarray(boundary_values, dtype=float)
    if vals.shape != g.mask.shape:
        raise ValueError("boundary values must be a full-grid array")
    if not np.all(np.isfinite(vals[g.boundary()])):
        raise ValueError("boundary values must be finite")
    return vals.ravel()


def _assemble_solution(g: Grid, op: _GridOperator, x: np.ndarray, bflat: np.ndarray) -> ScalarField:
    out = np.zeros(g.mask.size)
    out[op.interior_flat] = x
    bidx = g.boundary().ravel()
    out[bidx] = bflat[bidx]
    return ScalarField(g, out.reshape(g.mask.shape))


def solve_harmonic(g: Grid, boundary_values, tol: float = DEFAULT_TOL):
    """Discrete harmonic extensions of a batch of boundary data on one grid.

    ``boundary_values`` is a sequence of full-grid arrays or ScalarFields.
    Returns ``(fields, stats)``, two lists in input order; one factorization
    of the grid Laplacian serves the whole batch.  Boundary values are
    matched exactly; the discrete maximum principle bounds each result by
    its boundary extremes.
    """
    op = grid_operator(g)
    bflats = [_boundary_flat(g, b) for b in boundary_values]
    xs, stats = _solve_linear(op.matrix(None), [op.rhs(b) for b in bflats], tol)
    return [_assemble_solution(g, op, x, b) for x, b in zip(xs, bflats)], stats


def solve_screened(g: Grid, c, boundary_values, tol: float = DEFAULT_TOL, source=None):
    """Solve the screened equation  Lap(u) = c(x) u - f(x)  with Dirichlet data.

    ``source`` is the interior term f (default 0).  Requires c >= 0 and
    f >= 0 at interior nodes and nonnegative boundary values; then u >= 0
    (M-matrix maximum principle), and without a source also
    u <= max boundary value.  Rounding-level violations of those exact
    bounds are clamped.
    """
    op = grid_operator(g)
    c_int = _interior_values(g, op, c, "screening coefficient")
    f_int = None if source is None else _interior_values(g, op, source, "source")
    bflat = _boundary_flat(g, boundary_values)
    bvals = bflat[g.boundary().ravel()]
    if bvals.size and bvals.min() < 0:
        raise ValueError("screened solve requires nonnegative boundary values")
    M = float(bvals.max(initial=0.0))
    if M == 0.0 and (f_int is None or not f_int.any()):
        return constant_field(g, 0.0), LinearSolveStats(0, 0.0, True)
    A = op.matrix(c_int)
    b = op.rhs(bflat)
    if f_int is not None:
        b = b + f_int
    (x,), (stats,) = _solve_linear(A, [b], tol)
    if f_int is None:
        eps = CLAMP_REL * M
        x[(x > M) & (x < M + eps)] = M
    else:
        eps = CLAMP_REL * max(M, float(x.max(initial=0.0)))
    x[(x < 0) & (x > -eps)] = 0.0
    field = _assemble_solution(g, op, x, bflat)
    return field, stats


def _interior_values(g: Grid, op: _GridOperator, arr, what: str) -> np.ndarray:
    vals = arr.values if isinstance(arr, ScalarField) else np.asarray(arr, dtype=float)
    if vals.shape != g.mask.shape:
        raise ValueError(f"{what} must be a full-grid array")
    out = vals.ravel()[op.interior_flat]
    if np.any(out < 0):
        raise ValueError(f"{what} must be nonnegative at interior nodes")
    return out
