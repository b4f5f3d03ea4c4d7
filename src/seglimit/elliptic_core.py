"""Discrete Laplacian and the linear kernels: harmonic and screened
Dirichlet solves on classified grids.

The stencil is the standard second-order centered one (5-point in 2D,
3-point in 1D).  Dirichlet values are eliminated: unknowns live at interior
nodes only, so the system matrix is a symmetric M-matrix and the discrete
maximum principle holds.  Every solution passes a backward-error residual
check and carries a certified sup-norm bound on its error
(``LinearSolveStats.error_bound``, see ``_solve_linear``).  A SuperLU
factorization of more than ``DIRECT_SOLVE_LIMIT`` unknowns is refused with
a ``SolverError``; the sine and tridiagonal kernels take any size.

The stencil is kept as arrays shaped like the grid (the interior mask and
one constant coefficient per direction).  Right-hand sides, residuals and
``apply_laplacian`` are sums of shifted slices of a grid array; a sparse
matrix is built only for SuperLU to factorize, and every such matrix (a
sector's and the Schur complement's pattern) is assembled by ``_csc`` from
a table of rows and values per column.

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
- ``superlu``, every other solve: the harmonic batch on a 2D grid that is
  not a box (every disk), and every screened solve in 2D.

  The harmonic batch is solved one parity sector at a time
  (``_sector_solve``).  Where a flip of an axis leaves the interior
  unknowns in place (a disk has both), the Laplacian commutes with the
  flip R, so it splits exactly into the even and the odd part of every
  column, ``(b + s R b) / 2`` for s = +-1: two flips make four sectors, each
  solved on the quadrant's unknowns alone (the classical symmetry
  reduction; Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).  Each
  sector's 5-point matrix is factorized by SuperLU, serves every column of
  the batch, and is freed before the next sector's is made, so one factor
  of a quarter of the unknowns is alive at a time.

  A screened solve eliminates the red unknowns (ix + iy even) exactly,
  since the 5-point stencil couples them only to black ones, and one
  sparse LU factorization of the Schur complement on the black unknowns
  serves it (``_RedBlack``).  It is freed when the call returns, unless the
  caller holds it in a ``Factor`` for later screened solves of the same
  matrix.

``LinearSolveStats.factorized`` says whether a solve made the factor it
ran on; a harmonic batch marks its first column, however many sectors it
factorizes.  Only two functions factorize: ``_splu`` makes every SuperLU
factorization and ``_tridiagonal_solver`` every tridiagonal one, and no
other code here calls scipy's or LAPACK's solvers, so wrapping those two
sees every factorization.

Every SuperLU factorization orders itself: ``_splu`` runs SuperLU's
minimum degree on A^T + A in symmetric mode with diagonal pivots, so a
solve's answer depends on its system alone, not on what its grid solved
before.
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
# right-hand sides below this are solved scaled up by a power of two (see
# ``_solve_linear``); well clear of the subnormals, which start at 2^-1022
_TINY_RHS = 2.0 ** -900


@dataclass
class LinearSolveStats:
    # the normwise backward error ||b - A y||_inf / max(||b||_inf,
    # ||A||_inf ||y||_inf); a solve raises a SolverError unless it is at
    # most tol (0 for an exact zero solution)
    residual: float
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


class _GridOperator:
    """Cached data for one grid, kept as arrays shaped like the grid's mask:
    the interior and boundary masks, the interior numbering, the constant
    stencil coefficients with their shifted slices, the diagonal and the row
    sums of the negative Laplacian on the interior unknowns, the
    sine-transform eigenvalues on a box grid and the tridiagonal's
    off-diagonal on an interval grid.  Right-hand sides, residuals
    and ``apply_laplacian`` are sums of shifted slices of a grid array.  The
    red-black reduction of a 2D grid's screened systems is built from the
    same arrays when a screened solve first needs it."""

    def __init__(self, g: Grid):
        # holds no reference to g: the cache below is keyed weakly by it
        shape = g.mask.shape
        self.interior = g.interior()
        self.boundary = g.boundary()
        self.interior_flat = np.flatnonzero(self.interior)
        self.n_unknowns = self.interior_flat.size
        # (src, dst, coef) of each stencil direction in stencil order, -x, +x,
        # then -y, +y (mask axes run opposite to the grid's): the node at
        # src has its neighbour at dst, one step along _steps
        self._stencil = []
        self._steps = []
        for k, h in enumerate(g.spacing):
            axis = g.ndim - 1 - k
            for s in (-1, 1):
                shift = [0] * g.ndim
                shift[axis] = s
                self._stencil.append(_shift_slices(shape, shift) + (1.0 / h**2,))
                self._steps.append(tuple(shift))
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
        self.box_denominators = _box_denominators(g)
        self.off_diagonal = _interval_off_diagonal(g, self.interior_flat)

    @functools.cached_property
    def red_black(self) -> "_RedBlack":
        """The red-black reduction of this 2D grid's SuperLU systems."""
        return _RedBlack(self)

    def _row_product(self, v: np.ndarray, centre: np.ndarray | None = None) -> np.ndarray:
        """At each interior node p, ``centre[p]`` (0 when None) plus
        coef * v[q] summed over the stencil neighbours q in stencil order.
        ``v`` and ``centre`` are shaped like the mask."""
        acc = np.zeros(v.shape) if centre is None else centre.copy()
        _add_neighbours(self._stencil, acc, v)
        return acc.ravel()[self.interior_flat]

    def rhs(self, boundary_values_flat: np.ndarray) -> np.ndarray:
        """The boundary values' share of the right-hand side: at each
        interior node, coef times the value of each boundary neighbour."""
        b = boundary_values_flat.reshape(self.boundary.shape)
        return self._row_product(np.where(self.boundary, b, 0.0))

    def residual(self, b: np.ndarray, y: np.ndarray, c: np.ndarray | None) -> np.ndarray:
        """``b - (laplacian + diag(c)) y`` in the original order of the
        unknowns; ``c`` None means 0."""
        d = self.diag if c is None else self.diag + c
        v = np.zeros(self.interior.size)
        centre = np.zeros(self.interior.size)
        v[self.interior_flat] = y
        centre[self.interior_flat] = -(d * y)
        shape = self.interior.shape
        return b + self._row_product(v.reshape(shape), centre.reshape(shape))

    def laplacian_terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """At the interior unknowns, in their order: the stencil's Laplacian
        of ``v`` (shaped like the mask), coef * (v[q] - v[p]) summed over
        the directions in stencil order, so a constant has a Laplacian of
        exactly 0; and the sum of coef * |v[q] - v[p]| over the same terms,
        which scales the rounding of the first."""
        lap = np.zeros(v.shape)
        mag = np.zeros(v.shape)
        for src, dst, coef in self._stencil:
            term = coef * (v[dst] - v[src])
            lap[src] += term
            mag[src] += np.abs(term)
        return lap.ravel()[self.interior_flat], mag.ravel()[self.interior_flat]


def _box_denominators(g: Grid) -> np.ndarray | None:
    """Scaled eigenvalues of the Laplacian on a box grid, or None.

    A box grid is a 2D grid whose unknowns are exactly the lattice nodes off
    the rim, ``(nx - 2) (ny - 2)`` of them: as no interior node lies on the
    rim (``Grid``), it is one whose every node off the rim is interior.
    There the Laplacian is ``T_y (x) I + I (x) T_x`` with
    ``T = tridiag(-1, 2, -1) / h^2`` of size N, and T has the sine
    eigenvectors ``s_k(j) = sin(pi j k / (N + 1))`` with eigenvalues
    ``(2 sin(k pi / (2 (N + 1))))^2 / h^2`` (this form has no
    cancellation, unlike ``2 - 2 cos``).  The entry ``[ky, kx]`` is
    ``4 (Nx + 1) (Ny + 1) (lam_y[ky] + lam_x[kx])``: ``_dst1`` computes -2
    times the sine transform and the transform squares to (N + 1)/2 times
    the identity, so the four transforms of ``_box_solve`` and this
    division together apply the inverse.
    """
    if g.ndim != 2 or not np.all(g.mask[1:-1, 1:-1] == NodeClass.INTERIOR):
        return None
    nx, ny = g.dims
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


def _splu(A: sp.csc_matrix):
    """SuperLU's factorization of ``A`` in symmetric mode with diagonal
    pivots, ordered by minimum degree on A^T + A."""
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        # SuperLU reports a zero pivot (a NaN in c makes one) this way
        raise SolverError(f"SuperLU factorization failed: {exc}") from None


def _sector_axis(n: int, s: float | None) -> tuple[np.ndarray, ...]:
    """Along one mask axis of n nodes, for a sector of sign ``s`` (None on
    an axis whose flip is not used): which nodes it keeps as unknowns, the
    node and the sign each node's value is read at, and each node's row
    weight, 1/2 on the axis node 2i = n - 1 (the odd sector is 0 there)."""
    i = np.arange(n)
    ones = np.ones(n)
    if s is None:
        return ones.astype(bool), i, ones, ones
    upper = 2 * i >= n - 1
    on_axis = 2 * i == n - 1
    keep = upper & ~(on_axis & (s < 0))
    return keep, np.where(upper, i, n - 1 - i), np.where(upper, 1.0, s), np.where(on_axis, 0.5, 1.0)


def _sector_solve(op: _GridOperator, columns: list[np.ndarray]) -> list[np.ndarray]:
    """Solve ``laplacian x = b`` on a 2D grid for every column b, one parity
    sector at a time.

    Over the mask axes whose flip R_k leaves the interior unknowns in
    place, each choice of signs s_k = +-1 is a sector.  The Laplacian
    commutes with those flips, so it maps the columns folded onto a sector,
    ``prod_k (I + s_k R_k) / 2`` b, which ``s_k R_k`` leaves unchanged, to
    solutions that it leaves unchanged too, and the folds of all sectors
    sum to b.  Such a vector is fixed by its values on the quadrant
    ``2 i_k >= n_k - 1`` (less the axis node ``2 i_k = n_k - 1`` where
    s_k = -1, as the vector is 0 there), where ``_sector_matrix`` gives the
    system.  Each sector's matrix is factorized by SuperLU unless every
    column's fold onto it is exactly 0, serves every column, and is freed
    before the next sector's is made.  Each solution is the sum of its
    parts unfolded.  With no such axis, the one sector is the whole system.
    """
    interior = op.interior
    nx = interior.shape[1]
    grids = np.zeros((len(columns), interior.size))
    grids[:, op.interior_flat] = columns
    grids = grids.reshape((len(columns),) + interior.shape)
    xs = np.zeros((len(columns), op.n_unknowns))
    # the signs of each mask axis, None where the flip is not used
    sy_options, sx_options = ((1.0, -1.0) if np.array_equal(interior, np.flip(interior, k))
                              else (None,) for k in range(2))
    for signs in [(sy, sx) for sy in sy_options for sx in sx_options]:
        (keep_y, from_y, sign_y, weight_y), (keep_x, from_x, sign_x, weight_x) = (
            _sector_axis(n, s) for n, s in zip(interior.shape, signs)
        )
        # the sector's unknowns among the interior ones, in grid order, with
        # their row weights; at every node, the node its value is read at
        # and the sign
        sel = (keep_y[:, None] & keep_x[None, :]).ravel()[op.interior_flat]
        flat = op.interior_flat[sel]
        weight = (weight_y[:, None] * weight_x[None, :]).ravel()[flat]
        mirror = (from_y[:, None] * nx + from_x[None, :]).ravel()
        sign = (sign_y[:, None] * sign_x[None, :]).ravel()
        rhs = _fold(grids, signs).reshape(len(columns), -1)[:, flat]
        if not rhs.any():
            continue
        rhs *= weight
        # the matrix is built in a call of its own, so that none of the
        # arrays that build it is alive while SuperLU factorizes it, and
        # the factor is freed when _add_parts returns, before the next
        # sector's is made
        _add_parts(xs, _splu(_sector_matrix(op, sel, flat, weight, mirror, sign)),
                   rhs, flat, mirror[op.interior_flat], sign[op.interior_flat], interior.size)
    return list(xs)


def _add_parts(xs: np.ndarray, lu, rhs: np.ndarray, flat: np.ndarray,
               at_interior: np.ndarray, sign_interior: np.ndarray, size: int) -> None:
    """Solve each column's fold ``rhs[k]`` on the sector factor ``lu`` and
    add that part to ``xs[k]``.  ``flat`` numbers the sector's unknowns
    among the ``size`` grid nodes; an interior unknown reads its part at
    the node ``at_interior``, times ``sign_interior``."""
    y = np.zeros(size)
    # one column at a time, as ``_columnwise`` says why
    for x, b in zip(xs, rhs):
        y[flat] = lu.solve(b)
        x += sign_interior * y[at_interior]


def _fold(grids: np.ndarray, signs: tuple) -> np.ndarray:
    """``prod_k (I + s_k R_k) / 2`` applied to each of the stacked grid
    arrays, over the axes k whose sign is not None.  Each axis adds a grid
    to its flip, so data that the flip leaves in place fold to exactly 0
    where s_k = -1."""
    for k, s in enumerate(signs):
        if s is not None:
            # halved before the sum, which then cannot overflow
            grids = 0.5 * grids
            grids = grids + s * np.flip(grids, k + 1)
    return grids


def _sector_matrix(op: _GridOperator, sel: np.ndarray, flat: np.ndarray, weight: np.ndarray,
                   mirror: np.ndarray, sign: np.ndarray) -> sp.csc_matrix:
    """The symmetric 5-point matrix of one sector (see ``_sector_solve``)
    on its unknowns ``flat`` (``sel`` marks them among the interior ones),
    each row scaled by its ``weight``: the node's diagonal, then its four
    stencil arms in stencil order, each read at its node's ``mirror`` times
    ``sign``.  Arms that land on one column are summed (``_csc``).  For odd
    n_k the axis node's two arms along k land on one node, so that row has
    weight 1/2 (an exact scaling, as is its right-hand side's), which keeps
    the matrix symmetric: each node's row is filled in as its column."""
    nx = op.interior.shape[1]
    number = np.full(op.interior.size, -1, dtype=np.intc)
    number[flat] = np.arange(flat.size, dtype=np.intc)
    rows = np.empty((5, flat.size), dtype=np.intc)
    vals = np.empty((5, flat.size))
    rows[0] = number[flat]
    vals[0] = weight * op.diag[sel]
    for k, ((dy, dx), (_, _, coef)) in enumerate(zip(op._steps, op._stencil), 1):
        q = flat + (dy * nx + dx)
        rows[k] = number[mirror[q]]
        vals[k] = -coef * weight * sign[q]
    return _csc(rows, vals)


def _csc(rows: np.ndarray, vals: np.ndarray) -> sp.csc_matrix:
    """The square CSC matrix whose column j holds ``vals[k, j]`` in row
    ``rows[k, j]`` for every k with ``rows[k, j] >= 0``.  scipy sorts each
    column's rows and sums the entries that land on one row, in the order
    of k (its sort of a column this short keeps equal rows in order)."""
    entry = rows >= 0
    n = rows.shape[1]
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(entry.sum(axis=0), out=indptr[1:])
    A = sp.csc_matrix((vals.T[entry.T], rows.T[entry.T], indptr), shape=(n, n))
    A.sum_duplicates()
    return A


class _RedBlack:
    """The red-black reduction of the screened systems
    ``laplacian + diag(c)`` on one 2D grid.

    The interior unknowns are red where ix + iy is even and black where it
    is odd.  The 5-point stencil couples red unknowns only to black ones,
    so with B the stencil coefficients between them the system is
    ``[[D_r, -B], [-B^T, D_b]]`` with diagonal ``D_r``, and the red unknowns
    are eliminated exactly: SuperLU factors only the Schur complement
    ``S = D_b - B^T D_r^{-1} B`` on the black unknowns, the classical
    reduced system of red/black orderings (Hageman & Young, Applied
    Iterative Methods, 1981, ch. 9).  S is an SPD M-matrix whose stencil
    joins a black node to the black nodes two stencil steps away, through
    the red nodes between them: the centre, (+-1, +-1), (+-2, 0) and
    (0, +-2).  A column b is solved as ``S y_b = b_b + B^T (b_r / d_r)``,
    then ``y_r = (b_r + B y_b) / d_r``; with no black unknown only the
    quotients are left, and SuperLU is not called.

    S's coefficients are grid-shaped arrays, one per offset of its stencil,
    summed from ``1 / d_r`` by shifted slices.  S's pattern, built once per
    grid in grid order (``pattern``), is ``_csc`` of a table that holds, for
    each column and offset, the row at that offset and the position of its
    coefficient among the stacked arrays: its ``indices`` and ``indptr`` are
    S's, and its values are the ``gather`` that picks S's values in CSC
    order.
    """

    def __init__(self, op: _GridOperator):
        shape = op.interior.shape
        self._shape = shape
        self._stencil = op._stencil
        self._red = op.interior & (np.indices(shape).sum(axis=0) % 2 == 0)
        is_red = self._red.ravel()[op.interior_flat]
        # positions among the interior unknowns and flat grid indices of the
        # red and the black unknowns, each in grid order
        self.red_unknowns = np.flatnonzero(is_red)
        self.black_unknowns = np.flatnonzero(~is_red)
        self.red_flat = op.interior_flat[self.red_unknowns]
        self.black_flat = op.interior_flat[self.black_unknowns]
        self.red_diag = op.diag[self.red_unknowns]
        self.black_diag = op.diag[self.black_unknowns]
        self.n_black = self.black_flat.size
        # S's stencil: for each offset, the two-step paths that reach it as
        # (src, dst, coef_a coef_b) of the first step, whose dst is the red
        # node between; the centre first
        paths: dict[tuple, list] = {(0,) * len(shape): []}
        for step_a, (src, dst, coef_a) in zip(op._steps, self._stencil):
            for step_b, (_, _, coef_b) in zip(op._steps, self._stencil):
                offset = tuple(a + b for a, b in zip(step_a, step_b))
                paths.setdefault(offset, []).append((src, dst, coef_a * coef_b))
        self._offsets = list(paths)
        self._paths = list(paths.values())

    @functools.cached_property
    def pattern(self) -> tuple:
        """S's CSC ``indices``, ``indptr`` and the ``gather`` of its values
        from the stacked coefficient arrays, its unknowns the black ones in
        grid order."""
        flat = self.black_flat
        size = self._red.size
        number = np.full(size, -1)
        number[flat] = np.arange(self.n_black)
        flat_step = np.array([math.prod(self._shape[k + 1:]) for k in range(len(self._shape))])
        # rows[k, j]: S's row of the black node at offset k from the one of
        # column j, -1 where S has no entry; column q holds
        # S[q + offset, q] = S[q, q + offset], S being symmetric
        n_offsets = len(self._offsets)
        rows = np.full((n_offsets, self.n_black), -1)
        for k, (offset, paths) in enumerate(zip(self._offsets, self._paths)):
            # the black nodes with a red node on a path to the one at the
            # offset, which lies in the grid as a red node's neighbour; every
            # black node has its centre
            reached = np.full(self._shape, not any(offset))
            for src, dst, _ in paths:
                reached[src] |= self._red[dst]
            at = reached.ravel()[flat]
            rows[k, at] = number[flat[at] + int(np.dot(offset, flat_step))]
        # the pattern of a matrix whose entries are the positions of S's
        # values among the stacked coefficient arrays
        S = _csc(rows, np.arange(n_offsets)[:, None] * size + flat)
        return S.indices, S.indptr, S.data

    def factor(self, c: np.ndarray):
        """The solve of ``(laplacian + diag(c)) y = b`` in the original
        order of the unknowns, from one SuperLU factorization of S unless S
        is empty."""
        d_red = self.red_diag + c[self.red_unknowns]
        d_black = self.black_diag + c[self.black_unknowns]
        lu = None
        if self.n_black:
            indices, indptr, gather = self.pattern
            S = sp.csc_matrix(
                (self._coefficients(d_red, d_black).ravel()[gather], indices, indptr),
                shape=(self.n_black, self.n_black),
            )
            lu = _splu(S)

        def solve(b: np.ndarray) -> np.ndarray:
            b_red = b[self.red_unknowns]
            v = np.zeros(self._shape)
            v.ravel()[self.red_flat] = b_red / d_red
            acc = np.zeros(self._shape)
            _add_neighbours(self._stencil, acc, v)
            rhs = b[self.black_unknowns] + acc.ravel()[self.black_flat]
            v.fill(0.0)
            v.ravel()[self.black_flat] = rhs if lu is None else lu.solve(rhs)
            acc.fill(0.0)
            _add_neighbours(self._stencil, acc, v)
            y = np.empty_like(b)
            y[self.black_unknowns] = v.ravel()[self.black_flat]
            y[self.red_unknowns] = (b_red + acc.ravel()[self.red_flat]) / d_red
            return y

        return solve

    def _coefficients(self, d_red: np.ndarray, d_black: np.ndarray) -> np.ndarray:
        """S's coefficient arrays, stacked in the order of its offsets: at a
        black node q, the centre ``d_q - sum coef^2 / d_r`` over its red
        neighbours r, and at each other offset ``-sum coef_a coef_b / d_r``
        over the red nodes r between q and q + offset."""
        inv = np.zeros(self._shape)
        inv.ravel()[self.red_flat] = 1.0 / d_red
        coefs = np.zeros((len(self._paths),) + self._shape)
        coefs[0].ravel()[self.black_flat] = d_black
        for out, paths in zip(coefs, self._paths):
            for src, dst, weight in paths:
                out[src] -= weight * inv[dst]
        return coefs


def _add_neighbours(stencil, acc: np.ndarray, v: np.ndarray) -> None:
    """Add coef * v[q] to ``acc[p]`` for every stencil neighbour q of every
    node p, in stencil order; both are shaped like the mask."""
    for src, dst, coef in stencil:
        acc[src] += coef * v[dst]


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
    op = grid_operator(u.grid)
    out = np.zeros(u.values.size)
    out[op.interior_flat] = op.laplacian_terms(u.values)[0]
    return ScalarField(u.grid, out.reshape(u.values.shape))


class Factor:
    """The factorization of ``laplacian + diag(c)`` on one grid (``c`` None
    means 0), made by the first solve that needs it.

    An interval grid takes the tridiagonal LDL^T factorization
    (``_tridiagonal_solver``), the harmonic batch of a box grid the sine
    transform (``_box_solve``), which factorizes nothing, and every other
    harmonic batch in 2D one SuperLU factorization per parity sector
    (``_sector_solve``), made one at a time while the batch is solved.  A
    screened system in 2D takes one SuperLU factorization of its Schur
    complement on the black unknowns (``_RedBlack``), whose solve also
    returns the red unknowns.  ``solve`` maps a list of right-hand sides to
    the list of their solutions, each in the original order of the
    unknowns.  A caller may hold one Factor across
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

    def use(self, c: np.ndarray) -> None:
        """Hold the system with screening coefficient ``c``, keeping the
        factor only if it was made for an equal one."""
        if self.c is None or not np.array_equal(self.c, c):
            self.clear()
            self.c = c

    def prepare(self, op: _GridOperator) -> bool:
        """Make the factor unless it is made; True when this call
        factorized a matrix, or set up a batch that factorizes its sectors
        as it solves."""
        if self.solve is not None:
            return False
        c = self.c
        if op.off_diagonal is not None:
            self.kernel = "tridiagonal"
            self.solve = _columnwise(
                _tridiagonal_solver(op.diag if c is None else op.diag + c, op.off_diagonal))
            return True
        if c is None and op.box_denominators is not None:
            self.kernel = "sine"
            self.solve = _columnwise(functools.partial(_box_solve, op.box_denominators))
            return False
        n = op.n_unknowns
        if n > DIRECT_SOLVE_LIMIT:
            raise SolverError(
                f"{n} unknowns exceed the direct-solve limit of {DIRECT_SOLVE_LIMIT}"
            )
        self.kernel = "superlu"
        if c is None:
            self.solve = functools.partial(_sector_solve, op)
        else:
            self.solve = _columnwise(op.red_black.factor(c))
        return True


def _columnwise(solve):
    """The batch solve that applies the one-column ``solve`` to each
    column: a multi-column triangular solve runs blocked BLAS kernels whose
    rounding depends on the block width, so it would not reproduce a
    single solve bit for bit."""
    return lambda columns: [solve(b) for b in columns]


def _solve_linear(op: _GridOperator, factor: Factor, rhs: list[np.ndarray], tol: float):
    """Solve (laplacian + diag(factor.c)) x = b for every b in ``rhs`` on
    ``factor``, which is made here unless it is already.

    Returns ``(solutions, stats)`` in input order.  Zero right-hand sides
    get the zero solution; when all are zero nothing is solved or
    factorized.

    A solution y passes when its normwise backward error in the sup norm,
    ``||b - A y||_inf / max(||b||_inf, ||A||_inf ||y||_inf)`` (Rigal &
    Gaches 1967; Higham 2002, ch. 7), is at most ``tol``.  It reads the
    norms the bound below takes.  Both are computed in units of 2^e, the
    power of two of the column's norms, so that neither ``A y`` nor
    ``||A||_inf ||y||_inf`` overflows, and the bound is scaled back (to
    inf past the largest float).

    Each solution y carries the certified error bound
    ``R^2/(2d) (||b - A y||_inf + gamma (||b||_inf + ||A||_inf ||y||_inf))``
    on ``||y - A^{-1} b||_inf``: the discrete maximum principle bounds
    ``||A^{-1}||_inf`` by R^2/(2d) and the gamma term covers the rounding
    of the residual itself.
    """
    c = factor.c
    xs = [np.zeros_like(b) for b in rhs]
    stats = [LinearSolveStats(0.0) for _ in rhs]
    b_maxes = [float(np.abs(b).max(initial=0.0)) for b in rhs]
    live = [k for k, b_max in enumerate(b_maxes) if b_max != 0.0]
    if not live:
        return xs, stats
    a_norm = float((op.row_sums if c is None else op.row_sums + c).max(initial=0.0))
    factorized = factor.prepare(op)
    # near the subnormals the solution and the residual underflow and lose
    # their relative accuracy; a column b with max |b| below _TINY_RHS is
    # solved as b 2^shift, with max |b 2^shift| in [0.5, 1), and scaled
    # back.  Scaling by a power of two is exact, so the residual check is
    # unchanged
    shifts = [-math.frexp(b_maxes[k])[1] if b_maxes[k] < _TINY_RHS else 0 for k in live]
    scaled = [np.ldexp(rhs[k], shift) if shift else rhs[k] for k, shift in zip(live, shifts)]
    # one call for the batch, so that a sector batch factorizes each sector
    # once for all its columns
    for k, shift, b, y in zip(live, shifts, scaled, factor.solve(scaled)):
        # scaling by 2^-e is exact down to the subnormals, whose rounding
        # the gamma term dwarfs in these units, so the backward error is
        # the unscaled one
        y_max = float(np.abs(y).max(initial=0.0))
        e = max(math.frexp(b_maxes[k])[1] + shift,
                math.frexp(a_norm)[1] + math.frexp(y_max)[1])
        b_max = math.ldexp(b_maxes[k], shift - e)
        y_max = math.ldexp(y_max, -e)
        r_max = float(np.abs(op.residual(np.ldexp(b, -e), np.ldexp(y, -e), c)).max())
        # the backward error, not ||r|| / ||b||: stable for the stiff
        # screened systems where ||A|| >> ||b|| / ||y||
        res = r_max / max(b_max, a_norm * y_max)
        bound = op.inverse_norm_bound * (
            r_max + op.residual_rounding * (b_max + a_norm * y_max)
        )
        try:
            bound = math.ldexp(bound, e - shift)
        except OverflowError:
            bound = math.inf
        xs[k] = np.ldexp(y, -shift) if shift else y
        if shift:
            # scaling back rounds each of y and the bound by at most half
            # the smallest subnormal
            bound += math.ldexp(1.0, -1074)
        # the batch's first column made the factor, the others reuse it
        stats[k] = LinearSolveStats(res, bound, factor.kernel, factorized and k == live[0])
        # not ``res > tol``, which a NaN residual would pass
        if not res <= tol:
            raise SolverError(f"direct solve residual {res:.3e} exceeds tol {tol:g}", stats=stats[k])
    return xs, stats


def _grid_values(g: Grid, arr, what: str) -> np.ndarray:
    """The values of ``arr``, a ScalarField or an array shaped like the
    grid's mask; another shape raises a ValueError naming ``what``."""
    vals = arr.values if isinstance(arr, ScalarField) else np.asarray(arr, dtype=float)
    if vals.shape != g.mask.shape:
        raise ValueError(f"{what} must be a full-grid array")
    return vals


def _boundary_flat(g: Grid, op: _GridOperator, boundary_values) -> np.ndarray:
    vals = _grid_values(g, boundary_values, "boundary values")
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
    Returns ``(fields, stats)``, two lists in input order.  A box takes
    the sine transform and factorizes nothing, an interval makes one
    tridiagonal factorization, and any other 2D grid (every disk)
    factorizes each parity sector once for all the columns
    (``_sector_solve``).  Boundary values are matched exactly; the
    discrete maximum principle bounds each result by its boundary
    extremes.
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
    b = op.rhs(bflat)
    if f_int is not None:
        b = b + f_int
    if factor is None:
        factor = Factor()
    factor.use(c_int)
    (x,), (stats,) = _solve_linear(op, factor, [b], tol)
    clamp_within_bound(x, stats.error_bound, "screened solve value",
                       M if f_int is None else None, stats)
    return _assemble_solution(g, op, x, bflat), stats


def clamp_within_bound(x: np.ndarray, bound: float, what: str, high: float | None = None,
                       stats: LinearSolveStats | None = None) -> None:
    """Clamp ``x`` in place to the exact bounds of the solution it
    approximates: 0 <= x, and x <= ``high`` unless that is None.  A value
    past a bound by at most the certified error ``bound`` is rounding and
    is set to the bound (every value <= 0 to +0.0); one further out raises
    a ``SolverError`` that carries ``stats``, its message starting with
    ``what`` and the value."""
    if high is not None:
        top = float(x.max(initial=0.0))
        if top > high + bound:
            raise SolverError(
                f"{what} {top:.3e} exceeds the largest boundary value "
                f"{high:.3e} beyond its certified error bound {bound:.3e}", stats=stats,
            )
        x[x > high] = high
    low = float(x.min(initial=0.0))
    if low < -bound:
        raise SolverError(
            f"{what} {low:.3e} is negative beyond its certified error bound {bound:.3e}",
            stats=stats,
        )
    x[x <= 0.0] = 0.0


def _interior_values(g: Grid, op: _GridOperator, arr, what: str) -> np.ndarray:
    out = _grid_values(g, arr, what).ravel()[op.interior_flat]
    if np.any(out < 0):
        raise ValueError(f"{what} must be nonnegative at interior nodes")
    return out
