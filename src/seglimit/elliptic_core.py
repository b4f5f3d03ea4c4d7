"""Discrete Laplacian and the linear kernels: harmonic and screened
Dirichlet solves on classified grids.

The stencil is the standard second-order centered one (5-point in 2D,
3-point in 1D).  Dirichlet values are eliminated: unknowns live at interior
nodes only, so the system matrix is a symmetric M-matrix and the discrete
maximum principle holds.  Every solution passes a backward-error residual
check and carries a certified sup-norm bound on its error
(``LinearSolveStats.error_bound``, see ``_solve_linear``).  Systems with
more than ``DIRECT_SOLVE_LIMIT`` unknowns are refused with a
``SolverError``.

The stencil is kept as arrays shaped like the grid (the interior mask and
one constant coefficient per direction).  Right-hand sides, residuals and
``apply_laplacian`` are sums of shifted slices of a grid array; the sparse
Laplacian is assembled from the same arrays only when SuperLU first needs
it, so neither an interval grid nor a harmonic batch on a box grid builds
a sparse matrix.

Three kernels solve the systems, chosen by the grid
(``LinearSolveStats.kernel`` names the one that ran):

- ``tridiagonal``, every solve on an interval grid.  In node order the
  unknowns of a 1D grid make ``-Lap + diag(c)`` an SPD tridiagonal, factored
  once per call as L D L^T by LAPACK (``dpttrf``) and solved per column
  (``dpttrs``), in O(n) and without pivoting, which is backward stable on
  SPD tridiagonals (Higham, Accuracy and Stability of Numerical Algorithms,
  2nd ed., 2002, ch. 9).
- ``sine``, the harmonic batch on a box grid, a 2D grid whose unknowns are
  every lattice node off the rim (every rectangle).  There the Laplacian is
  diagonalized by the sine basis in each direction, so each column is
  solved by two discrete sine transforms (DST-I, through ``numpy.fft.rfft``
  of the odd extension) in each direction and a division by the
  eigenvalues (the classical fast Poisson solver; Lynch, Rice & Thomas
  1964; Buzbee, Golub & Nielson 1970).
- ``superlu``, every other solve: the harmonic batch on a disk, and every
  screened solve in 2D.  One sparse LU factorization serves the call and
  is freed when it returns, unless the caller holds it in a ``Factor``
  for later screened solves of the same matrix.

``LinearSolveStats.factorized`` says whether a solve made the factor it
ran on.

Harmonic and screened systems on one 2D grid (``-Lap + diag(c)``,
``c >= 0``) are symmetric positive definite M-matrices with a common
sparsity pattern, so one fill-reducing ordering serves them all.  The grid
takes it from its first SuperLU factorization, whichever kind that is (a
harmonic batch on a disk, or the first screened solve): that factorization
runs SuperLU's minimum degree on A^T + A in symmetric mode on the
unpermuted matrix, so one SuperLU call both orders and factorizes.  The
grid keeps that ordering (a copy: ``SuperLU.perm_c`` is a view that keeps
the whole factor alive) and builds from it, on the next screened solve,
the Laplacian permuted by it as a CSC template.  Every later screened
factorization copies the template, writes its diagonal, and runs SuperLU
in symmetric mode with diagonal pivots and no ordering of its own.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import SolverError
from .geometry import Grid, NodeClass

DEFAULT_TOL = 1e-10
DIRECT_SOLVE_LIMIT = 150_000


@dataclass
class LinearSolveStats:
    iterations: int
    residual: float
    converged: bool
    # certified bound on the sup-norm distance of the computed solution to
    # the exact solution of the stored system (0 for an exact zero solution)
    error_bound: float = 0.0
    # what solved it: "sine", "tridiagonal" or "superlu" (see Factor), "none"
    # for an all-zero right-hand side
    kernel: str = "none"
    # whether this solve made the factor it ran on; the later columns of a
    # batch, and a screened solve on a held Factor, reuse one.  Not compared:
    # a column's solution is the same whichever column made the factor
    factorized: bool = field(default=False, compare=False)


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
    """Cached data for one grid, kept as arrays shaped like the grid's mask:
    the interior and boundary masks, the interior numbering, the constant
    stencil coefficients with their shifted slices, the diagonal and the row
    sums of the negative Laplacian on the interior unknowns, the
    sine-transform eigenvalues on a box grid and the tridiagonal's
    off-diagonal on an interval grid.  Right-hand sides, residuals
    and ``apply_laplacian`` are sums of shifted slices of a grid array.  The
    sparse Laplacian is assembled from the same arrays only when SuperLU
    first needs it, and the factor pattern after it."""

    def __init__(self, g: Grid):
        # holds no reference to g: the cache below is keyed weakly by it
        shape = g.mask.shape
        self.interior = g.interior()
        self.boundary = g.boundary()
        self.interior_flat = np.flatnonzero(self.interior)
        n = self.n_unknowns = self.interior_flat.size
        # (src, dst, coef) of each stencil direction in stencil order, -x, +x,
        # then -y, +y (mask axes run opposite to the grid's): the node at
        # src has its neighbour at dst; and the same directions in ascending
        # order of the neighbour's flat node number, -y, -x, +x, +y
        self._stencil = []
        offsets = []
        for k, h in enumerate(g.spacing):
            axis = g.ndim - 1 - k
            for s in (-1, 1):
                shift = [0] * g.ndim
                shift[axis] = s
                self._stencil.append(_shift_slices(shape, shift) + (1.0 / h**2,))
                offsets.append(s * math.prod(shape[axis + 1:]))
        self._node_order = [self._stencil[i] for i in np.argsort(offsets)]
        exterior = g.mask == NodeClass.EXTERIOR
        if any(np.any(self.interior[src] & exterior[dst]) for src, dst, _ in self._stencil):
            raise ValueError("interior node with exterior stencil neighbor")
        diag = np.zeros(shape)
        for src, _, coef in self._stencil:
            diag[src] += coef
        self.diag = diag.ravel()[self.interior_flat]
        # ||(laplacian + diag c)^{-1}||_inf <= R^2 / (2d) for every c >= 0,
        # R the radius of a ball about x0 holding every domain node (Collatz):
        # psi = (R^2 - |x - x0|^2) / (2d) is >= 0 on those nodes and the
        # centered stencil gives -Lap_h psi = 1 exactly, so the comparison
        # principle bounds A^{-1} 1 by psi.  R is measured in lattice steps
        # from the centre of the domain's index box, and the factor 1 + 16u
        # covers the rounding of R^2 and of the stored stencil coefficients.
        # (np.nonzero lists the mask axes, which run opposite to the grid's.)
        r2 = 0.0
        for idx, h in zip(np.nonzero(g.in_domain()), g.spacing[::-1]):
            r2 = r2 + ((idx - 0.5 * (idx.min() + idx.max())) * h) ** 2
        u = np.finfo(float).eps / 2
        self.inverse_norm_bound = (1 + 16 * u) * float(np.max(r2)) / (2 * g.ndim)
        # the computed residual b - A y of one row (at most 2d + 1 products
        # summed and subtracted from b) is within gamma (|b| + |A| |y|) of
        # the exact one
        self.residual_rounding = (2 * g.ndim + 3) * u
        # ||laplacian + diag(c)||_inf = max_i (row_sums_i + c_i) for c >= 0,
        # as the diagonal is positive and the rest nonpositive
        self.row_sums = self._row_product(self.interior.astype(float), diag)
        self.box_denominators = _box_denominators(g, n)
        self.off_diagonal = _interval_off_diagonal(g, self.interior_flat)
        self.order: np.ndarray | None = None
        self._pattern: _FactorPattern | None = None

    @functools.cached_property
    def laplacian(self) -> sp.csc_matrix:
        """The negative Laplacian on the interior unknowns: the diagonal,
        and -coef for every stencil edge between two interior nodes."""
        n = self.n_unknowns
        # the number of each interior node's unknown (meaningless elsewhere)
        unknown = np.cumsum(self.interior.ravel()).reshape(self.interior.shape) - 1
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [self.diag]
        for src, dst, coef in self._stencil:
            edge = self.interior[src] & self.interior[dst]
            rows.append(unknown[src][edge])
            cols.append(unknown[dst][edge])
            vals.append(np.full(rows[-1].size, -coef))
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )

    def factorize(self, A: sp.csc_matrix):
        """SuperLU factor of ``A``, a system on this grid in the original
        order of the unknowns, with its own minimum-degree ordering in
        symmetric mode; the grid's first factor sets the grid's ordering."""
        lu = spla.splu(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        if self.order is None:
            # perm_c[j] is the new position of unknown j, so the order is its
            # inverse; argsort makes a new array, where keeping perm_c itself
            # (a view whose base is the SuperLU object) would keep the factor
            self.order = np.argsort(lu.perm_c)
        return lu

    def factor_pattern(self) -> "_FactorPattern":
        """The screened template; the grid's ordering must be set."""
        if self._pattern is None:
            self._pattern = _FactorPattern(self.laplacian, self.order)
        return self._pattern

    def _row_product(self, v: np.ndarray, centre: np.ndarray | None = None) -> np.ndarray:
        """At each interior node p, coef * v[q] summed over the stencil
        neighbours q in ascending order of q, with ``centre[p]`` added
        between the neighbours below p and those above it: the order in
        which a sparse product adds the entries of row p.  ``v`` and
        ``centre`` are shaped like the mask."""
        acc = np.zeros(v.shape)
        for k, (src, dst, coef) in enumerate(self._node_order):
            if centre is not None and k == len(self._node_order) // 2:
                acc += centre
            acc[src] += coef * v[dst]
        return acc.ravel()[self.interior_flat]

    def rhs(self, boundary_values_flat: np.ndarray) -> np.ndarray:
        """The boundary values' share of the right-hand side: at each
        interior node, coef times the value of each boundary neighbour."""
        b = boundary_values_flat.reshape(self.boundary.shape)
        return self._row_product(np.where(self.boundary, b, 0.0))

    def residual(self, b: np.ndarray, y: np.ndarray, c: np.ndarray | None) -> np.ndarray:
        """``b - (laplacian + diag(c)) y`` in the original order of the
        unknowns, rounded as the sparse product with the matrix SuperLU is
        given (diagonal ``diag + c``); ``c`` None means 0."""
        d = self.diag if c is None else self.diag + c
        v = np.zeros(self.interior.size)
        centre = np.zeros(self.interior.size)
        v[self.interior_flat] = y
        centre[self.interior_flat] = -(d * y)
        # summed with +coef and -d y, each row is the exact negative of the
        # row of the sparse product A y, so b plus it is b - A y bit for bit
        shape = self.interior.shape
        return b + self._row_product(v.reshape(shape), centre.reshape(shape))

    def laplacian_terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """At the interior unknowns, in their order: ``laplacian_of(v)`` and
        the sum of coef * |v[q] - v[p]| over the same terms, which scales
        the rounding of the first."""
        lap = np.zeros(v.shape)
        mag = np.zeros(v.shape)
        for src, dst, coef in self._stencil:
            term = coef * (v[dst] - v[src])
            lap[src] += term
            mag[src] += np.abs(term)
        return lap.ravel()[self.interior_flat], mag.ravel()[self.interior_flat]

    def laplacian_of(self, v: np.ndarray) -> np.ndarray:
        """The stencil's Laplacian of ``v`` (shaped like the mask) at the
        interior nodes, 0 elsewhere: coef * (v[q] - v[p]) summed over the
        directions in stencil order, so a constant has a Laplacian of
        exactly 0."""
        acc = np.zeros(v.shape)
        for src, dst, coef in self._stencil:
            acc[src] += coef * (v[dst] - v[src])
        return np.where(self.interior, acc, 0.0)


def _box_denominators(g: Grid, n: int) -> np.ndarray | None:
    """Scaled eigenvalues of the Laplacian on a box grid, or None.

    A box grid is a 2D grid whose unknowns are exactly the lattice nodes off
    the rim, ``(nx - 2) (ny - 2)`` of them.  There the Laplacian is
    ``T_y (x) I + I (x) T_x`` with ``T = tridiag(-1, 2, -1) / h^2`` of size
    N, and T has the sine eigenvectors ``s_k(j) = sin(pi j k / (N + 1))``
    with eigenvalues ``(2 sin(k pi / (2 (N + 1))))^2 / h^2`` (this form has
    no cancellation, unlike ``2 - 2 cos``).  The entry ``[ky, kx]`` is
    ``4 (Nx + 1) (Ny + 1) (lam_y[ky] + lam_x[kx])``: ``_dst1`` computes -2
    times the sine transform and the transform squares to (N + 1)/2 times
    the identity, so the four transforms of ``_box_solve`` and this
    division together apply the inverse.
    """
    if g.ndim != 2:
        return None
    nx, ny = g.dims
    if n != (nx - 2) * (ny - 2) or not np.all(g.mask[1:-1, 1:-1] == NodeClass.INTERIOR):
        return None
    lam_x, lam_y = (
        _sine_eigenvalues(count - 2, 1.0 / h**2) for count, h in zip(g.dims, g.spacing)
    )
    return 4 * (nx - 1) * (ny - 1) * (lam_y[:, None] + lam_x[None, :])


def _interval_off_diagonal(g: Grid, interior_flat: np.ndarray) -> np.ndarray | None:
    """The off-diagonal of the negative Laplacian on an interval grid, or None.

    On a 1D grid the unknowns in node order make the Laplacian tridiagonal:
    the entry between consecutive unknowns is the stencil's -1/h^2 (the
    coefficient computed as ``_GridOperator`` stores it) where they are
    neighbouring nodes, and 0 where a Dirichlet node lies between them."""
    if g.ndim != 1:
        return None
    (h,) = g.spacing
    return np.where(np.diff(interior_flat) == 1, -(1.0 / h**2), 0.0)


def _tridiagonal_solver(d: np.ndarray, e: np.ndarray):
    """The solve of the SPD tridiagonal system with diagonal ``d`` and
    off-diagonal ``e``, from its LDL^T factorization (LAPACK ``dpttrf``,
    solved by ``dpttrs``).  LAPACK's wrapper refuses an empty off-diagonal,
    so one unknown is a division."""
    if d.size == 1:
        return lambda b: b / d
    df, ef, info = lapack.dpttrf(d, e)
    if info != 0:
        raise SolverError(f"tridiagonal factorization failed: leading minor {info} is not positive")
    return lambda b: lapack.dpttrs(df, ef, b)[0]


def _sine_eigenvalues(N: int, coef: float) -> np.ndarray:
    """Eigenvalues of ``coef * tridiag(-1, 2, -1)`` of size N, in the order
    of the sine modes k = 1..N; ``coef`` is the stencil's 1/h^2 as stored."""
    return (2.0 * np.sin(np.arange(1, N + 1) * (np.pi / (2 * (N + 1))))) ** 2 * coef


def _dst1(a: np.ndarray) -> np.ndarray:
    """-2 times the DST-I along the last axis:
    ``-2 sum_j a[..., j - 1] sin(pi j k / (N + 1))`` for k = 1..N, the
    imaginary part of the real FFT of the odd extension
    ``[0, a, 0, -a reversed]``."""
    N = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * N + 2,))
    ext[..., 1:N + 1] = a
    ext[..., N + 2:] = -a[..., ::-1]
    return np.fft.rfft(ext).imag[..., 1:N + 1]


def _box_solve(denominators: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``laplacian x = b`` on a box grid: transform in y and x,
    divide by the eigenvalues, transform in y and x again.  ``b`` is one
    column in the grid's order of unknowns (x fastest)."""
    t = _dst1(_dst1(b.reshape(denominators.shape).T).T) / denominators
    return _dst1(_dst1(t.T).T).ravel()


class _FactorPattern:
    """The grid Laplacian symmetrically permuted by the grid's fill-reducing
    ordering, as a CSC template that every screened factorization copies.

    ``order`` is the inverse of the ``perm_c`` of the grid's first
    factorization (``_GridOperator.factorize``), a minimum-degree one, so a
    natural-order factorization of the template makes the same fill as
    that one; applying ``perm_c`` itself instead of its inverse multiplies
    the fill more than tenfold.
    """

    def __init__(self, laplacian: sp.csc_matrix, order: np.ndarray):
        self.order = order
        t = laplacian[order][:, order]
        t.sort_indices()
        self.template = t
        col_of = np.repeat(np.arange(t.shape[0]), np.diff(t.indptr))
        self.diag_slots = np.nonzero(t.indices == col_of)[0]
        self.base_diag = t.data[self.diag_slots].copy()

    def matrix(self, c: np.ndarray) -> sp.csc_matrix:
        """``laplacian + diag(c)`` in the permuted order; ``c`` is in the
        original order of the unknowns."""
        t = self.template
        data = t.data.copy()
        data[self.diag_slots] = self.base_diag + c[self.order]
        return sp.csc_matrix((data, t.indices, t.indptr), shape=t.shape, copy=False)


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
    return ScalarField(u.grid, grid_operator(u.grid).laplacian_of(u.values))


class Factor:
    """The factorization of ``laplacian + diag(c)`` on one grid (``c`` None
    means 0), made by the first solve that needs it.

    An interval grid takes the tridiagonal LDL^T factorization
    (``_tridiagonal_solver``), the harmonic batch of a box grid the sine
    transform (``_box_solve``), which factorizes nothing; every other
    system one SuperLU factorization.  A caller may hold one Factor across
    ``solve_screened`` calls on a grid: a call with an equal ``c`` solves
    on the held factor, and a call with another ``c`` frees it before the
    new one is made, so the holder keeps at most one factor alive.
    ``clear`` frees it.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.c = None
        self.kernel = "none"
        self.solve = None
        self.order = slice(None)

    def use(self, c: np.ndarray) -> None:
        """Hold the system with screening coefficient ``c``, keeping the
        factor only if it was made for an equal one."""
        if self.c is None or not np.array_equal(self.c, c):
            self.clear()
            self.c = c

    def prepare(self, op: _GridOperator) -> bool:
        """Make the factor unless it is made; True when this call
        factorized a matrix."""
        if self.solve is not None:
            return False
        c = self.c
        if op.off_diagonal is not None:
            self.kernel = "tridiagonal"
            self.solve = _tridiagonal_solver(op.diag if c is None else op.diag + c, op.off_diagonal)
            return True
        if c is None and op.box_denominators is not None:
            self.kernel = "sine"
            self.solve = functools.partial(_box_solve, op.box_denominators)
            return False
        self.kernel = "superlu"
        # the first SuperLU factorization of a grid applies its own ordering
        # to the unpermuted system; later screened ones take the grid's
        # template and solve in its order
        if c is None or op.order is None:
            self.solve = op.factorize(op.laplacian if c is None else op.laplacian + sp.diags(c)).solve
        else:
            pattern = op.factor_pattern()
            self.order = pattern.order
            self.solve = spla.splu(
                pattern.matrix(c), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            ).solve
        return True


def _solve_linear(op: _GridOperator, factor: Factor, rhs: list[np.ndarray], tol: float):
    """Solve (laplacian + diag(factor.c)) x = b for every b in ``rhs`` on
    ``factor``, which is made here unless it is already.

    Returns ``(solutions, stats)`` in input order.  Zero right-hand sides
    get the zero solution; when all are zero nothing is solved or
    factorized.

    Each solution y carries the certified error bound
    ``R^2/(2d) (||b - A y||_inf + gamma (||b||_inf + ||A||_inf ||y||_inf))``
    on ``||y - A^{-1} b||_inf``: the discrete maximum principle bounds
    ``||A^{-1}||_inf`` by R^2/(2d) and the gamma term covers the rounding
    of the residual itself.
    """
    n = op.n_unknowns
    if n > DIRECT_SOLVE_LIMIT:
        raise SolverError(
            f"{n} unknowns exceed the direct-solve limit of {DIRECT_SOLVE_LIMIT}"
        )
    c = factor.c
    xs = [np.zeros_like(b) for b in rhs]
    stats = [LinearSolveStats(0, 0.0, True) for _ in rhs]
    b_maxes = [float(np.abs(b).max(initial=0.0)) for b in rhs]
    live = [k for k, b_max in enumerate(b_maxes) if b_max != 0.0]
    if not live:
        return xs, stats
    a_norm = float((op.row_sums if c is None else op.row_sums + c).max(initial=0.0))
    factorized = factor.prepare(op)
    order = factor.order
    for k in live:
        b = rhs[k]
        # one solve per column: a multi-column triangular solve runs blocked
        # BLAS kernels whose rounding depends on the block width, so it
        # would not reproduce a single solve bit for bit
        y = xs[k]
        y[order] = factor.solve(b[order])
        r = op.residual(b, y, c)
        y_max = float(np.abs(y).max(initial=0.0))
        r_max = float(np.abs(r).max())
        # backward-error style relative residual: stable for the stiff
        # screened systems where ||A|| >> ||b|| / ||x||
        scale = max(_norm2(b, b_maxes[k]), a_norm * y_max)
        res = _norm2(r, r_max) / scale
        bound = op.inverse_norm_bound * (
            r_max + op.residual_rounding * (b_maxes[k] + a_norm * y_max)
        )
        # the batch's first column made the factor, the others reuse it
        stats[k] = LinearSolveStats(1, res, res <= tol, bound, factor.kernel, factorized and k == live[0])
        if res > tol:
            raise SolverError(f"direct solve residual {res:.3e} exceeds tol {tol:g}", stats=stats[k])
    return xs, stats


def _norm2(x: np.ndarray, x_max: float) -> float:
    """2-norm of ``x`` given ``x_max = max |x|``: numpy's pairwise sum of
    ``(x / x_max)^2``, scaled back.  ``np.linalg.norm`` goes through the
    BLAS dot product, which a threaded BLAS splits across threads on long
    vectors at a cost of milliseconds per call."""
    if x_max == 0.0:
        return 0.0
    return x_max * math.sqrt(float(np.sum(np.square(x / x_max))))


def _boundary_flat(g: Grid, op: _GridOperator, boundary_values) -> np.ndarray:
    vals = boundary_values.values if isinstance(boundary_values, ScalarField) else np.asarray(boundary_values, dtype=float)
    if vals.shape != g.mask.shape:
        raise ValueError("boundary values must be a full-grid array")
    if not np.all(np.isfinite(vals[op.boundary])):
        raise ValueError("boundary values must be finite")
    return vals.ravel()


def _assemble_solution(g: Grid, op: _GridOperator, x: np.ndarray, bflat: np.ndarray) -> ScalarField:
    out = np.zeros(g.mask.size)
    out[op.interior_flat] = x
    bidx = op.boundary.ravel()
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
    bflats = [_boundary_flat(g, op, b) for b in boundary_values]
    xs, stats = _solve_linear(op, Factor(), [op.rhs(b) for b in bflats], tol)
    return [_assemble_solution(g, op, x, b) for x, b in zip(xs, bflats)], stats


def solve_screened(g: Grid, c, boundary_values, tol: float = DEFAULT_TOL, source=None,
                   factor: Factor | None = None):
    """Solve the screened equation  Lap(u) = c(x) u - f(x)  with Dirichlet data.

    ``source`` is the interior term f (default 0).  Requires c >= 0 and
    f >= 0 at interior nodes and nonnegative boundary values; then u >= 0
    (M-matrix maximum principle), and without a source also
    u <= max boundary value.  Violations of those exact bounds within the
    solve's certified error bound are clamped; one beyond it raises a
    ``SolverError``.

    ``factor`` is a ``Factor`` the caller holds: the solve runs on it when
    it was made for the same c, and otherwise frees it and fills it with
    its own factorization.  Without one the factor is freed on return.
    """
    op = grid_operator(g)
    c_int = _interior_values(g, op, c, "screening coefficient")
    f_int = None if source is None else _interior_values(g, op, source, "source")
    bflat = _boundary_flat(g, op, boundary_values)
    bvals = bflat[op.boundary.ravel()]
    if bvals.size and bvals.min() < 0:
        raise ValueError("screened solve requires nonnegative boundary values")
    M = float(bvals.max(initial=0.0))
    if M == 0.0 and (f_int is None or not f_int.any()):
        return constant_field(g, 0.0), LinearSolveStats(0, 0.0, True)
    b = op.rhs(bflat)
    if f_int is not None:
        b = b + f_int
    if factor is None:
        factor = Factor()
    factor.use(c_int)
    (x,), (stats,) = _solve_linear(op, factor, [b], tol)
    bound = stats.error_bound
    if f_int is None:
        high = float(x.max(initial=0.0))
        if high > M + bound:
            raise SolverError(
                f"screened solve value {high:.3e} exceeds the largest boundary value "
                f"{M:.3e} beyond its certified error bound {bound:.3e}", stats=stats,
            )
        x[x > M] = M
    low = float(x.min(initial=0.0))
    if low < -bound:
        raise SolverError(
            f"screened solve value {low:.3e} is negative beyond its certified "
            f"error bound {bound:.3e}", stats=stats,
        )
    x[x < 0] = 0.0
    return _assemble_solution(g, op, x, bflat), stats


def _interior_values(g: Grid, op: _GridOperator, arr, what: str) -> np.ndarray:
    vals = arr.values if isinstance(arr, ScalarField) else np.asarray(arr, dtype=float)
    if vals.shape != g.mask.shape:
        raise ValueError(f"{what} must be a full-grid array")
    out = vals.ravel()[op.interior_flat]
    if np.any(out < 0):
        raise ValueError(f"{what} must be nonnegative at interior nodes")
    return out
