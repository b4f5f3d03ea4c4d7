"""Discrete Laplacian and the harmonic / screened Dirichlet kernels."""

import ast
import gc
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from seglimit import (
    DomainSpec,
    NodeClass,
    ScalarField,
    apply_laplacian,
    boundary_points,
    build_grid,
    constant_field,
    solve_epsilon,
    solve_harmonic,
    solve_limit,
    solve_screened,
)
from seglimit import elliptic_core
from seglimit.elliptic_core import DEFAULT_TOL, LinearSolveStats, grid_operator
from seglimit.geometry import Grid
from seglimit.errors import SolverError


def boundary_array(g, fn):
    out = np.zeros(g.mask.shape)
    for p in boundary_points(g):
        v = fn(p)
        if g.ndim == 1:
            out[p.index[0]] = v
        else:
            out[p.index[1], p.index[0]] = v
    return out


def test_laplacian_constant_zero(unit_square_21):
    lap = apply_laplacian(constant_field(unit_square_21, 3.0))
    assert np.all(lap.values == 0.0)


def test_laplacian_quadratic_exact():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 17)
    x = g.axis_coords(0)
    lap = apply_laplacian(ScalarField(g, x**2))
    assert np.allclose(lap.values[g.interior()], 2.0, atol=1e-11)


def test_laplacian_harmonic_quadratic_exact(unit_square_21):
    g = unit_square_21
    X, Y = g.node_coords()
    lap = apply_laplacian(ScalarField(g, X**2 - Y**2))
    assert np.allclose(lap.values[g.interior()], 0.0, atol=1e-11)


def test_harmonic_constant_boundary(unit_square_21):
    g = unit_square_21
    (f,), (stats,) = solve_harmonic(g, [boundary_array(g, lambda p: 2.5)])
    assert np.allclose(f.values[g.in_domain()], 2.5, atol=1e-10)
    assert stats.kernel == "sine" and stats.residual <= DEFAULT_TOL


def test_harmonic_1d_linear_exact():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 33)
    b = np.zeros(33)
    b[0], b[-1] = 1.0, -1.0
    (f,), _ = solve_harmonic(g, [b])
    assert np.allclose(f.values, 1.0 - 2.0 * g.axis_coords(0), atol=1e-12)


def test_harmonic_disk_cosine_oracle(unit_disk_101):
    # exact harmonic extension of cos(theta) on the unit circle is x;
    # the staircase boundary carries O(h) error, measured 0.0099 at n=101
    # and 0.0131 at n=51
    g = unit_disk_101
    (f,), _ = solve_harmonic(g, [boundary_array(g, lambda p: math.cos(p.param))])
    X, _ = g.node_coords()
    err = np.abs(f.values - X)[g.interior()].max()
    assert err <= 0.015


def test_harmonic_interior_residual(unit_disk_101):
    g = unit_disk_101
    (f,), _ = solve_harmonic(g, [boundary_array(g, lambda p: math.cos(p.param))])
    lap = apply_laplacian(f)
    # residual scaled by h^2 (matrix rows carry 1/h^2)
    assert np.abs(lap.values[g.interior()]).max() * g.spacing[0] ** 2 <= 1e-8


@pytest.mark.parametrize("n", [99, 197])
def test_harmonic_extension_exact_on_disk_with_rim_rounding(n):
    # x + 2 is discretely harmonic, so its extension from the boundary
    # nodes is exact up to rounding.  At these n a node on the lattice rim
    # rounds to inside the unit circle; as an interior node it would miss
    # a stencil neighbour, so build_grid makes it a boundary node
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), n)
    X, _ = g.node_coords()
    (f,), _ = solve_harmonic(g, [np.where(g.boundary(), X + 2.0, 0.0)])
    assert np.abs(f.values - (X + 2.0))[g.in_domain()].max() <= 1e-12


def test_screened_reduces_to_harmonic(unit_square_21):
    g = unit_square_21
    b = boundary_array(g, lambda p: abs(p.coord[0]))
    (fh,), _ = solve_harmonic(g, [b])
    fs, _ = solve_screened(g, np.zeros(g.mask.shape), b)
    assert np.allclose(fh.values, fs.values, atol=1e-12)


def test_screened_zero_boundary(unit_square_21):
    g = unit_square_21
    f, stats = solve_screened(g, np.full(g.mask.shape, 5.0), np.zeros(g.mask.shape))
    assert np.all(f.values == 0.0)
    assert stats.kernel == "none" and stats.residual == 0.0


def sinh_error(n: int, k: float) -> float:
    g = build_grid(DomainSpec.interval(0.0, 1.0), n)
    b = np.zeros(n)
    b[0] = 1.0
    u, _ = solve_screened(g, np.full(n, k), b)
    x = g.axis_coords(0)
    exact = np.sinh(math.sqrt(k) * (1.0 - x)) / math.sinh(math.sqrt(k))
    return float(np.abs(u.values - exact).max())


@pytest.mark.parametrize("k", [1.0, 25.0, 400.0])
def test_screened_sinh_second_order(k):
    ratio = sinh_error(101, k) / sinh_error(201, k)
    assert 3.5 <= ratio <= 4.5


def test_screened_rejects_negative_coefficient(unit_square_21):
    g = unit_square_21
    c = np.zeros(g.mask.shape)
    c[10, 10] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        solve_screened(g, c, boundary_array(g, lambda p: 1.0))


def test_screened_rejects_negative_boundary(unit_square_21):
    g = unit_square_21
    with pytest.raises(ValueError, match="nonnegative"):
        solve_screened(g, np.zeros(g.mask.shape), boundary_array(g, lambda p: -1.0))


def test_screened_source_term():
    # -u'' = 2 with zero data: u = x (1 - x), exact for the 3-point stencil;
    # zero boundary data alone must not short-circuit to u = 0
    g = build_grid(DomainSpec.interval(0.0, 1.0), 33)
    x = g.axis_coords(0)
    u, _ = solve_screened(g, np.zeros(33), np.zeros(33), source=np.full(33, 2.0))
    assert np.allclose(u.values, x * (1.0 - x), atol=1e-13)
    with pytest.raises(ValueError, match="source must be nonnegative"):
        solve_screened(g, np.zeros(33), np.zeros(33), source=np.full(33, -1.0))


def test_screened_monotone_in_coefficient(unit_square_21):
    g = unit_square_21
    b = boundary_array(g, lambda p: 1.0 + p.coord[0])
    u1, _ = solve_screened(g, np.full(g.mask.shape, 1.0), b)
    u2, _ = solve_screened(g, np.full(g.mask.shape, 10.0), b)
    assert np.all(u2.values <= u1.values + 1e-12)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_screened_maximum_principle_exact(data):
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 9)
    pts = boundary_points(g)
    bvals = data.draw(st.lists(
        st.floats(0.0, 100.0, allow_nan=False), min_size=len(pts), max_size=len(pts)))
    cval = data.draw(st.floats(0.0, 1e6, allow_nan=False))
    b = np.zeros(g.mask.shape)
    for p, v in zip(pts, bvals):
        b[p.index[1], p.index[0]] = v
    u, _ = solve_screened(g, np.full(g.mask.shape, cval), b)
    M = max(bvals)
    assert np.all(u.values >= 0.0)
    assert np.all(u.values <= M)


@pytest.mark.parametrize("c", [0.0, 1e6])
def test_subnormal_boundary_data_solved(c):
    # a right-hand side down at the subnormals underflows in the solve; it
    # is solved scaled by a power of two and keeps the maximum principle
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 9)
    p = boundary_points(g)[-1]
    b = np.zeros(g.mask.shape)
    b[p.index[1], p.index[0]] = 5e-324
    u, stats = solve_screened(g, np.full(g.mask.shape, c), b)
    assert np.all(u.values >= 0.0) and np.all(u.values <= 5e-324)
    assert stats.residual <= DEFAULT_TOL
    (h,), (hs,) = solve_harmonic(g, [b * 2.0**1000])
    (t,), (ts,) = solve_harmonic(g, [b])
    assert ts.residual == hs.residual
    assert np.all(np.abs(t.values - h.values * 2.0**-1000) <= ts.error_bound)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_harmonic_linearity_and_comparison(data):
    g = build_grid(DomainSpec.interval(0.0, 1.0), 21)
    lo = data.draw(st.lists(st.floats(0, 10), min_size=2, max_size=2))
    hi = [v + data.draw(st.floats(0, 10)) for v in lo]
    a = data.draw(st.floats(-3, 3))
    b = data.draw(st.floats(-3, 3))
    g1 = np.zeros(21)
    g2 = np.zeros(21)
    g1[0], g1[-1] = lo
    g2[0], g2[-1] = hi
    (f1, f2, fc), _ = solve_harmonic(g, [g1, g2, a * g1 + b * g2])
    assert np.allclose(fc.values, a * f1.values + b * f2.values, atol=1e-9)
    # comparison: g1 <= g2 pointwise
    assert np.all(f1.values <= f2.values + 1e-10)


def test_nonconvergence_raises():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 9)
    b = np.zeros(9)
    b[0] = 1.0
    with pytest.raises(SolverError):
        solve_screened(g, np.full(9, 1.0), b, tol=1e-30)


def test_field_shape_checked(unit_square_21):
    with pytest.raises(ValueError):
        ScalarField(unit_square_21, np.zeros(7))


def test_harmonic_batch_equals_single_solves(configs):
    # batching must not change a bit of any column, on the sine-transform
    # grid, the SuperLU one (a multi-column triangular solve on the shared
    # factor did, from the fourth column of a block) and the tridiagonal
    # one; an all-zero column is solved without the kernel.  On the disk
    # each column's fold onto each sector is solved on its own, so even
    # disk_m3's phi_2 (phi_1's mirror image in y) and phi_1 - phi_3 (phi_3
    # is even in y), whose folds tie phi_1's on two sectors up to rounding,
    # do not depend on the other columns of the batch
    for name in ("square_m4", "disk_m3", "line_m3"):
        g = configs[name].grid
        phi = configs[name].data.boundary_arrays(g)
        data = phi + [phi[0] - p for p in phi[1:]] + [np.zeros(g.mask.shape)]
        batch, batch_stats = solve_harmonic(g, data)
        assert len(batch) == len(batch_stats) == len(data)
        for arr, f, st in zip(data, batch, batch_stats):
            (single,), (single_st,) = solve_harmonic(g, [arr])
            assert np.array_equal(f.values, single.values)
            assert st == single_st
        assert np.all(batch[-1].values == 0.0)
        assert batch_stats[-1] == LinearSolveStats(0.0)


def test_harmonic_batch_factorizes_once(factorizations):
    # on a disk the batch factorizes each of its four parity sectors once,
    # for all its columns, and marks one factorizing solve, its first
    # column's; an all-zero batch factorizes nothing
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 21)
    # every parity of x and y has a part of these data, so that every
    # sector has a fold to solve
    data = [boundary_array(g, lambda p, k=k: k + (1 + p.coord[0]) ** 2 * (1 + p.coord[1]) ** 3)
            for k in range(4)]
    fields, stats = solve_harmonic(g, data)
    assert len(factorizations) == 4
    assert len(fields) == len(stats) == 4
    assert all(s.kernel == "superlu" and s.residual <= DEFAULT_TOL for s in stats)
    assert [s.factorized for s in stats] == [True, False, False, False]
    solve_harmonic(g, [np.zeros(g.mask.shape)] * 2)
    assert len(factorizations) == 4


def test_harmonic_batch_residual_check(unit_square_21):
    g = unit_square_21
    data = [np.zeros(g.mask.shape), boundary_array(g, lambda p: 1.0 + p.coord[0] ** 2)]
    with pytest.raises(SolverError, match="direct solve residual .* exceeds tol 1e-30") as exc:
        solve_harmonic(g, data, tol=1e-30)
    st = exc.value.stats
    assert st.kernel == "sine" and st.residual > 1e-30


def test_nan_screening_coefficient_raises():
    # a NaN passes the nonnegativity check on c; the tridiagonal kernel
    # then solves to a NaN residual, which fails the residual check, and
    # SuperLU meets a zero pivot, reported as a SolverError
    line = build_grid(DomainSpec.interval(0.0, 1.0), 41)
    c = np.ones(41)
    c[20] = np.nan
    with pytest.raises(SolverError, match="direct solve residual nan exceeds tol") as exc:
        solve_screened(line, c, boundary_array(line, lambda p: 1.0))
    assert exc.value.stats.kernel == "tridiagonal"
    disk = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 21)
    # at a red node (eliminated) and at a black one (in the Schur complement)
    for node in ((10, 10), (10, 11)):
        c = np.ones(disk.mask.shape)
        c[node] = np.nan
        with pytest.raises(SolverError, match="SuperLU factorization failed"):
            solve_screened(disk, c, boundary_array(disk, lambda p: 1.0))


def test_huge_data_checked_in_units_of_its_norms():
    # at data 1e300, ||A||_inf ||y||_inf overflows a float.  Each column is
    # checked in units of the power of two of its norms, so the residual
    # and the bound are those of the same problem at 2^-1000 times the
    # data, scaled back.  Each solve is on a fresh grid, whose first
    # screened factorization orders it
    def solve(scale):
        g = build_grid(DomainSpec.rectangle(-1.0, 1.0, -1.0, 1.0), 21)
        c = np.zeros(g.mask.shape)
        c[10, 10] = 1e10
        return solve_screened(g, c, np.where(g.boundary(), math.ldexp(1e300, scale), 0.0))

    u, st = solve(0)
    small, small_st = solve(-1000)
    assert st.residual == small_st.residual and 0.0 < st.residual <= DEFAULT_TOL
    assert st.error_bound == math.ldexp(small_st.error_bound, 1000) < math.inf
    assert np.array_equal(u.values, np.ldexp(small.values, 1000))
    # a non-finite residual still fails the check
    line = build_grid(DomainSpec.interval(0.0, 1.0), 41)
    c = np.ones(41)
    c[20] = np.nan
    with pytest.raises(SolverError, match="direct solve residual nan exceeds tol"):
        solve_screened(line, c, boundary_array(line, lambda p: 1e300))


def test_operator_cache_drops_dead_grids():
    gc.collect()
    cached = len(elliptic_core._operator_cache)
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 11)
    grid_operator(g)
    assert len(elliptic_core._operator_cache) == cached + 1
    del g
    gc.collect()
    assert len(elliptic_core._operator_cache) == cached


def stencil_loop_laplacian(u):
    """The per-direction stencil walk apply_laplacian replaced: the reference
    its edge sum must reproduce bit for bit."""
    g = u.grid
    flat = u.values.ravel()
    flat_mask = g.mask.ravel()
    if g.ndim == 1:
        shape = g.dims
        shifts = [((-1,), 1.0 / g.spacing[0] ** 2), ((1,), 1.0 / g.spacing[0] ** 2)]
    else:
        shape = g.dims[::-1]
        cx, cy = (1.0 / h**2 for h in g.spacing)
        shifts = [((0, -1), cx), ((0, 1), cx), ((-1, 0), cy), ((1, 0), cy)]
    idx = np.arange(flat.size).reshape(shape)
    interior = np.nonzero(flat_mask == NodeClass.INTERIOR)[0]
    acc = np.zeros(interior.size)
    for shift, coef in shifts:
        src, dst = elliptic_core._shift_slices(shape, shift)
        p, q = idx[src].ravel(), idx[dst].ravel()
        sel = flat_mask[p] == NodeClass.INTERIOR
        p, q = p[sel], q[sel]
        contrib = np.zeros(flat.size)
        np.add.at(contrib, p, coef * (flat[q] - flat[p]))
        acc += contrib[interior]
    out = np.zeros(flat.size)
    out[interior] = acc
    return out.reshape(u.values.shape)


KERNEL_GRIDS = [
    (DomainSpec.disk(0.1, -0.2, 1.3), 51),
    (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.5), (37, 53)),
    (DomainSpec.interval(-1.0, 2.0), 401),
]


@pytest.mark.parametrize("domain,n", KERNEL_GRIDS)
def test_laplacian_matches_stencil_loop(domain, n):
    g = build_grid(domain, n)
    rng = np.random.default_rng(3)
    for vals in (rng.standard_normal(g.mask.shape) * 1e3, np.full(g.mask.shape, 3.7)):
        u = ScalarField(g, vals)
        assert np.array_equal(apply_laplacian(u).values, stencil_loop_laplacian(u))


def sparse_boundary_coupling(g):
    """The boundary coupling as a sparse matrix from the full grid to the
    interior unknowns: coef at each boundary neighbour of an interior
    node."""
    flat_mask = g.mask.ravel()
    shape = g.mask.shape
    idx = np.arange(flat_mask.size).reshape(shape)
    interior = np.nonzero(flat_mask == NodeClass.INTERIOR)[0]
    unknown = np.full(flat_mask.size, -1)
    unknown[interior] = np.arange(interior.size)
    rows, cols, vals = [], [], []
    for k, h in enumerate(g.spacing):
        for s in (-1, 1):
            shift = [0] * g.ndim
            shift[g.ndim - 1 - k] = s  # the mask axes run opposite to the grid's
            src, dst = elliptic_core._shift_slices(shape, shift)
            p, q = idx[src].ravel(), idx[dst].ravel()
            sel = (flat_mask[p] == NodeClass.INTERIOR) & (flat_mask[q] == NodeClass.BOUNDARY)
            rows.append(unknown[p[sel]])
            cols.append(q[sel])
            vals.append(np.full(sel.sum(), 1.0 / h**2))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(interior.size, flat_mask.size),
    )


def sparse_laplacian(g, c=None):
    """``-Lap + diag(c)`` on the interior unknowns as a CSC matrix (``c`` a
    full-grid array, None for 0): coef on the diagonal for every stencil
    neighbour of an interior node, and -coef off it where the neighbour is
    an interior node too."""
    flat_mask = g.mask.ravel()
    shape = g.mask.shape
    idx = np.arange(flat_mask.size).reshape(shape)
    interior = np.nonzero(flat_mask == NodeClass.INTERIOR)[0]
    unknown = np.full(flat_mask.size, -1)
    unknown[interior] = np.arange(interior.size)
    diag = np.zeros(interior.size) if c is None else c.ravel()[interior].astype(float)
    rows, cols, vals = [], [], []
    for k, h in enumerate(g.spacing):
        for s in (-1, 1):
            shift = [0] * g.ndim
            shift[g.ndim - 1 - k] = s  # the mask axes run opposite to the grid's
            src, dst = elliptic_core._shift_slices(shape, shift)
            p, q = idx[src].ravel(), idx[dst].ravel()
            sel = flat_mask[p] == NodeClass.INTERIOR
            p, q = p[sel], q[sel]
            diag[unknown[p]] += 1.0 / h**2
            sel = flat_mask[q] == NodeClass.INTERIOR
            rows.append(unknown[p[sel]])
            cols.append(unknown[q[sel]])
            vals.append(np.full(sel.sum(), -1.0 / h**2))
    n = interior.size
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def black_unknowns(g):
    """Which interior unknowns are black, ix + iy odd, in their order."""
    iy, ix = np.nonzero(g.mask == NodeClass.INTERIOR)
    return (ix + iy) % 2 == 1


def sector_sizes(g):
    """The unknowns of each parity sector of a 2D grid's harmonic batch, in
    the order it solves them: along each mask axis whose flip leaves the
    interior mask in place, the even sector keeps the nodes with
    2i >= n - 1 and the odd one those with 2i > n - 1."""
    interior = g.interior()
    halves = []
    for axis, n in enumerate(interior.shape):
        i = np.arange(n)
        if np.array_equal(interior, np.flip(interior, axis)):
            halves.append([2 * i >= n - 1, 2 * i > n - 1])
        else:
            halves.append([np.ones(n, dtype=bool)])
    return [int(interior[np.ix_(ky, kx)].sum()) for ky in halves[0] for kx in halves[1]]


def schur_complement(g, c=None):
    """``S = A_bb - A_br A_rr^{-1} A_rb`` of ``A = sparse_laplacian(g, c)``
    on the black unknowns in grid order, by sparse products."""
    A = sparse_laplacian(g, c).tocsr()
    black = black_unknowns(g)
    red = ~black
    inv = sp.diags(1.0 / A.diagonal()[red])
    return (A[black][:, black] - A[black][:, red] @ inv @ A[red][:, black]).tocsc()


@pytest.mark.parametrize("domain,n", KERNEL_GRIDS)
def test_rhs_and_residual_match_sparse_products(domain, n):
    # componentwise within twice the rounding bound of one such sum,
    # op.residual_rounding (|b| + |A| |y|), which the certified error bound
    # assumes; values off the boundary (NaN here) are never read.  The
    # residual matches b - A y with the matrix SuperLU is given, harmonic
    # and screened.
    g = build_grid(domain, n)
    op = grid_operator(g)
    gamma = 2 * op.residual_rounding
    B = sparse_boundary_coupling(g)
    rng = np.random.default_rng(17)
    for _ in range(3):
        vals = rng.standard_normal(g.mask.shape) * 10.0 ** rng.uniform(-30, 30, g.mask.shape)
        vals.ravel()[::7] = -0.0
        b = np.where(g.boundary(), vals, 0.0).ravel()
        rhs = op.rhs(np.where(g.boundary(), vals, np.nan).ravel())
        assert np.all(np.abs(rhs - B @ b) <= gamma * (abs(B) @ np.abs(b)))
        y = rng.standard_normal(op.n_unknowns)
        L = sparse_laplacian(g)
        for c in (None, rng.uniform(0.0, 1e4, op.n_unknowns)):
            A = L if c is None else L + sp.diags(c)
            r = op.residual(rhs, y, c)
            assert np.all(np.abs(r - (rhs - A @ y)) <= gamma * (np.abs(rhs) + abs(A) @ np.abs(y)))


def test_box_harmonic_and_laplacian_build_no_sparse_matrix(monkeypatch):
    # a harmonic batch on a box grid and apply_laplacian run on the stencil
    # arrays alone: every sparse matrix the library builds is built by _csc
    # or for _splu
    def refuse(*args, **kwargs):
        raise AssertionError("sparse matrix assembled")

    monkeypatch.setattr(elliptic_core, "_csc", refuse)
    monkeypatch.setattr(elliptic_core, "_splu", refuse)
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), (31, 45))
    # 1 + x y is harmonic, and the 5-point stencil is exact on it
    (f,), (st,) = solve_harmonic(g, [boundary_array(g, lambda p: 1.0 + p.coord[0] * p.coord[1])])
    assert st.kernel == "sine" and st.residual <= DEFAULT_TOL and st.error_bound > 0
    X, Y = g.node_coords()
    assert np.abs(f.values - (1.0 + X * Y)).max() <= 1e-12
    assert np.abs(apply_laplacian(f).values).max() <= 1e-9
    disk = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 21)
    assert np.all(apply_laplacian(constant_field(disk, 2.0)).values == 0.0)


@pytest.mark.parametrize("domain,n", KERNEL_GRIDS)
def test_kernel_matches_plain_splu(domain, n):
    # the red-black reduction, the cached pattern and the symmetric-mode
    # factorization reproduce a plain default factorization of the same
    # system
    g = build_grid(domain, n)
    op = grid_operator(g)
    rng = np.random.default_rng(11)
    b = np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0)
    interior = g.interior()

    def reference(c):
        return spla.splu(sparse_laplacian(g, c)).solve(op.rhs(b.ravel()))

    (h,), _ = solve_harmonic(g, [b])
    ref = reference(np.zeros(g.mask.shape))
    assert np.abs(h.values[interior] - ref).max() <= 1e-12 * np.abs(ref).max()
    for scale in (1.0, 1e4, 1e8):
        c = rng.uniform(0.0, scale, g.mask.shape)
        u, _ = solve_screened(g, c, b)
        ref = reference(c)
        assert np.abs(u.values[interior] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("domain,n", KERNEL_GRIDS)
def test_error_bound_certifies_solution(domain, n):
    # against the solution refined once with a residual in extended
    # precision, for the harmonic and for stiff screened systems
    g = build_grid(domain, n)
    op = grid_operator(g)
    rng = np.random.default_rng(5)
    b = np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0)
    rhs = op.rhs(b.ravel()).astype(np.longdouble)
    interior = g.interior()
    for scale in (0.0, 1.0, 1e4, 1e8):
        c = rng.uniform(0.0, scale, g.mask.shape)
        u, st = solve_screened(g, c, b)
        A = sparse_laplacian(g, c)
        x = u.values[interior]
        r = rhs - A.astype(np.longdouble) @ x.astype(np.longdouble)
        err = spla.splu(A.tocsc()).solve(r.astype(float))
        assert 0.0 < np.abs(err).max() <= st.error_bound
    # R^2/(2d) is attained in 1D; the computed inverse is good to about 1e-14
    inv_norm = np.abs(spla.inv(sparse_laplacian(g)).toarray()).sum(axis=1).max()
    assert op.inverse_norm_bound >= (1.0 - 1e-10) * inv_norm


def _perturb_kernel_solves(monkeypatch, k):
    """Make every kernel solve add delta = 1e-6 max |y| to entry ``k`` of
    its solution y; returns the list of (b, returned y, delta) it fills."""
    seen = []
    prepare = elliptic_core.Factor.prepare

    def perturbing_prepare(self, op):
        # each solve below makes a fresh Factor, prepared once
        made = prepare(self, op)
        exact = self.solve

        def solve(columns):
            ys = []
            for b, y in zip(columns, exact(columns)):
                y = np.array(y, dtype=float)
                delta = 1e-6 * np.abs(y).max()
                y[k] += delta
                seen.append((b, y, delta))
                ys.append(y)
            return ys

        self.solve = solve
        return made

    monkeypatch.setattr(elliptic_core.Factor, "prepare", perturbing_prepare)
    return seen


def _residual_cases():
    line = build_grid(DomainSpec.interval(0.0, 1.0), 41)
    box = build_grid(DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), (31, 17))
    disk = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 21)
    c_line = 50.0 * (1.0 + line.axis_coords(0))
    X, _ = disk.node_coords()
    c_disk = 1e8 / disk.spacing[0] ** 2 * (0.5 + 0.5 * X**2)
    line_data = boundary_array(line, lambda p: 1.0 + p.coord[0])
    box_data = boundary_array(box, lambda p: 1.0 + p.coord[0] ** 2 + p.coord[1])
    disk_data = boundary_array(disk, lambda p: 2.0 + p.coord[1])
    return [
        ("tridiagonal", line, c_line,
         lambda tol: solve_screened(line, c_line, line_data, tol=tol)[1]),
        ("sine", box, None, lambda tol: solve_harmonic(box, [box_data], tol=tol)[1][0]),
        ("superlu", disk, c_disk,
         lambda tol: solve_screened(disk, c_disk, disk_data, tol=tol)[1]),
    ]


@pytest.mark.parametrize("case", range(3), ids=["tridiagonal", "sine", "superlu"])
def test_residual_is_sup_norm_backward_error(monkeypatch, case):
    # a kernel solve off by delta at one unknown k leaves the residual
    # -delta A e_k, so the recorded residual is
    # ||A delta e_k||_inf / max(||b||_inf, ||A||_inf ||y||_inf)
    kernel, g, c, run = _residual_cases()[case]
    A = sparse_laplacian(g, c).toarray()
    # an unknown in the middle, or the one of the largest c, whose column
    # of A then holds the largest entry of A
    k = A.shape[0] // 2 if c is None else int(np.argmax(np.diag(A)))
    seen = _perturb_kernel_solves(monkeypatch, k)
    st = run(1.0)
    assert st.kernel == kernel and len(seen) == 1
    b, y, delta = seen[0]
    a_norm = np.abs(A).sum(axis=1).max()
    expected = delta * np.abs(A[:, k]).max() / max(np.abs(b).max(), a_norm * np.abs(y).max())
    assert st.residual == pytest.approx(expected, rel=1e-9)
    # the gate reads the same number: it passes at tol = residual, and a
    # tol just below raises
    assert run(st.residual).residual == st.residual
    with pytest.raises(SolverError, match="direct solve residual"):
        run(np.nextafter(st.residual, 0.0))


def test_screened_clamps_within_certified_bound(monkeypatch, unit_square_21):
    # a value below 0, or without a source above the largest boundary
    # value M, is rounding within the solve's error bound and is clamped;
    # one beyond it is a failed solve
    g = unit_square_21
    first = grid_operator(g).interior_flat[0]
    solve_linear = elliptic_core._solve_linear
    shift = []  # (level, multiple of the error bound) set at the first interior node

    def perturbed(op, c, rhs, tol):
        (x,), (st,) = solve_linear(op, c, rhs, tol)
        level, factor = shift[0]
        x[0] = level + factor * st.error_bound
        return [x], [st]

    monkeypatch.setattr(elliptic_core, "_solve_linear", perturbed)
    b = boundary_array(g, lambda p: 1.0 + p.coord[0])
    c = np.full(g.mask.shape, 3.0)
    shift.append((0.0, -0.5))
    u, st = solve_screened(g, c, b)
    assert u.values.ravel()[first] == 0.0 and u.values.min() == 0.0 and st.error_bound > 0
    # -0.0 + -0.0 * bound is -0.0, which comes back as +0.0
    shift[0] = (-0.0, -0.0)
    u, _ = solve_screened(g, c, b)
    assert u.values.ravel()[first] == 0.0 and not np.signbit(u.values).any()
    shift[0] = (0.0, -2.0)
    with pytest.raises(SolverError, match="negative beyond its certified error bound"):
        solve_screened(g, c, b)
    M = float(b[g.boundary()].max())
    shift[0] = (M, 0.5)
    u, _ = solve_screened(g, c, b)
    assert u.values.ravel()[first] == M and u.values.max() == M
    shift[0] = (M, 2.0)
    with pytest.raises(SolverError, match="exceeds the largest boundary value"):
        solve_screened(g, c, b)


def test_factorizations_only_at_the_seams():
    # every SuperLU call lies in _splu and every LAPACK call in
    # _tridiagonal_solver, so the factorizations fixture, which wraps those
    # two, sees every factorization; scipy.sparse.linalg is reached only as
    # spla, not as sp.linalg
    tree = ast.parse(Path(elliptic_core.__file__).read_text())
    uses = {(node.value.id, getattr(top, "name", None))
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("spla", "lapack")}
    assert uses == {("spla", "_splu"), ("lapack", "_tridiagonal_solver")}
    imports = sorted(ast.unparse(node) for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom)) and "scipy" in ast.unparse(node))
    assert imports == ["from scipy.linalg import lapack", "import scipy.sparse as sp",
                       "import scipy.sparse.linalg as spla"]
    assert not any(isinstance(node, ast.Attribute) and node.attr == "linalg" for node in ast.walk(tree))


def test_screened_solve_does_not_depend_on_grid_history():
    # every SuperLU factorization orders itself, so a screened solve gives
    # the same bits on a fresh grid and on one that solved another system
    # first
    domain = DomainSpec.disk(0.0, 0.0, 1.0)
    results = []
    for first in (None, 7.0):
        g = build_grid(domain, 101)
        X, _ = g.node_coords()
        b = np.where(g.boundary(), 1.0 + X, 0.0)
        if first is not None:
            solve_screened(g, np.full(g.mask.shape, first), b)
        u, _ = solve_screened(g, 1e4 * (1.0 + X**2), b)
        results.append(u.values)
    assert np.array_equal(results[0], results[1])


@pytest.mark.parametrize("name", ["line_m3", "disk_m3", "square_m4"])
def test_factorized_marks_every_factorization(factorizations, configs, name):
    # the manifests count factorizations from LinearSolveStats.factorized:
    # over a limit build and the eps solve from it, the solves marked
    # factorized are the tridiagonal and SuperLU factorizations made, but
    # for the disk's harmonic batch, which marks one solve for the SuperLU
    # factorizations of its four sectors; the rectangle's harmonic batch
    # takes the sine transform and makes none, and a chord step reuses the
    # factor of the step before it
    cfg = configs[name]
    g = build_grid(cfg.domain, 31)
    L = solve_limit(g, cfg.data)
    assert sum(st.factorized for st in L.linear_stats) == (0 if name == "square_m4" else 1)
    harmonic = {"line_m3": ["tridiagonal"], "disk_m3": ["superlu"] * 4, "square_m4": []}[name]
    assert [f.kernel for f in factorizations] == harmonic
    r = solve_epsilon(g, cfg.data, 1e-4, limit=L)
    steps = sum(st.factorized for st in r.linear_stats)
    assert [f.kernel for f in factorizations] == harmonic + [
        st.kernel for st in r.linear_stats if st.factorized]
    if g.ndim == 2:
        assert 2 <= steps < r.sweeps


def test_red_black_holds_one_pattern(configs):
    # a harmonic batch builds no red-black reduction; the first screened
    # solve builds S's pattern, in grid order, and every later one reads
    # that same pattern.  Nothing the reduction holds has a SuperLU object
    # as its base, which would keep a factor alive with the grid
    g = build_grid(configs["disk_m3"].domain, 41)
    b = configs["disk_m3"].data.boundary_arrays(g)
    solve_harmonic(g, b)
    assert "red_black" not in vars(grid_operator(g))
    solve_screened(g, np.ones(g.mask.shape), b[0])
    rb = grid_operator(g).red_black
    pattern = rb.pattern
    solve_screened(g, np.full(g.mask.shape, 2.0), b[0])
    assert rb.pattern is pattern
    indices, indptr, _ = pattern
    ref = schur_complement(g, np.ones(g.mask.shape))
    ref.sort_indices()
    assert np.array_equal(indices, ref.indices) and np.array_equal(indptr, ref.indptr)
    held = [a for v in vars(rb).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]
    assert any(a is indices for a in held)
    assert all(a.base is None or isinstance(a.base, np.ndarray) for a in held)


def test_fill_equals_superlu_symmetric_mmd(factorizations, configs):
    # every screened factorization is SuperLU's own symmetric minimum degree
    # on S in grid order: its fill is that of a fresh factorization of S,
    # whatever the grid solved before, a harmonic batch (by the sine
    # transform on the square or by parity sectors on the disk) or another
    # screened system
    for name in ("square_m4", "disk_m3"):
        cfg = configs[name]
        g = build_grid(cfg.domain, 101)
        own = elliptic_core._splu(schur_complement(g, np.ones(g.mask.shape)))
        b = cfg.data.boundary_arrays(g)[0]
        solve_harmonic(g, [b])
        factorizations.clear()
        for c in (1.0, 2.0):
            solve_screened(g, np.full(g.mask.shape, c), b)
        assert [f.nnz for f in factorizations] == [own.nnz] * 2


BOX_GRIDS = [
    (DomainSpec.rectangle(-1.0, 1.0, -1.0, 1.0), 21),  # N = 19
    (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 34),  # N = 32
    (DomainSpec.rectangle(0.0, 1.3, -0.4, 2.1), (24, 37)),  # hx != hy, N = 22, 35
]


def dense_sine_matrix(N):
    """The DST-I as a dense sum: S[k - 1, j - 1] = sin(pi j k / (N + 1)),
    with j k reduced exactly mod 2 (N + 1) so that the arguments stay
    below 2 pi."""
    j = np.arange(1, N + 1)
    return np.sin(np.pi * (np.outer(j, j) % (2 * (N + 1))) / (N + 1))


@pytest.mark.parametrize("domain,n", BOX_GRIDS)
def test_box_kernel_sine_transform(domain, n):
    # the FFT form of the sine transform, the eigenvalues it divides by, and
    # the solution against a plain factorization of the same system
    g = build_grid(domain, n)
    op = grid_operator(g)
    assert op.box_denominators is not None
    rng = np.random.default_rng(13)
    u = np.finfo(float).eps
    for count, h in zip(g.dims, g.spacing):
        N = count - 2
        S = dense_sine_matrix(N)
        a = rng.standard_normal((3, N))
        ref = -2.0 * a @ S.T
        assert np.abs(elliptic_core._dst1(a) - ref).max() <= 1e-14 * np.abs(ref).max()
        coef = 1.0 / h**2
        T = coef * (2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1))
        lam = elliptic_core._sine_eigenvalues(N, coef)
        assert np.abs(T @ S - S * lam).max() <= 16 * u * 4 * coef
        assert np.all(np.diff(lam) > 0) and lam[0] > 0
    b = [np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0) for _ in range(2)]
    fields, stats = solve_harmonic(g, b)
    lu = spla.splu(sparse_laplacian(g))
    for f, st, data in zip(fields, stats, b):
        ref = lu.solve(op.rhs(data.ravel()))
        assert np.abs(f.values[g.interior()] - ref).max() <= 1e-12 * np.abs(ref).max()
        assert st.kernel == "sine" and st.residual <= DEFAULT_TOL and st.error_bound > 0
        assert np.array_equal(f.values[g.boundary()], data[g.boundary()])


def test_box_kernel_only_on_box_grids(monkeypatch):
    # the kernel follows the grid's unknowns: a rectangle takes the sine
    # transform; a disk and a rectangle with one interior node made a
    # Dirichlet node are factorized by SuperLU; an interval takes the
    # tridiagonal kernel
    def is_box(domain, n):
        return grid_operator(build_grid(domain, n)).box_denominators is not None

    assert is_box(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), (9, 12))
    assert not is_box(DomainSpec.disk(0.0, 0.0, 1.0), 21)
    assert not is_box(DomainSpec.interval(0.0, 1.0), 21)
    assert grid_operator(build_grid(DomainSpec.interval(0.0, 1.0), 21)).off_diagonal is not None
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 11)
    mask = g.mask.copy()
    mask[4, 6] = NodeClass.BOUNDARY
    g = Grid(g.domain, g.dims, g.spacing, g.origin, mask)
    op = grid_operator(g)
    assert op.box_denominators is None
    b = np.where(g.boundary(), 1.0, 0.0)
    (f,), _ = solve_harmonic(g, [b])
    assert np.allclose(f.values, 1.0, atol=1e-13)
    # the direct-solve limit refuses a SuperLU factorization, of a disk's
    # harmonic batch or of a screened system in 2D; the sine transform of a
    # box grid and the tridiagonal kernel of an interval take any size
    monkeypatch.setattr(elliptic_core, "DIRECT_SOLVE_LIMIT", 20)
    disk = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 11)
    with pytest.raises(SolverError, match="69 unknowns exceed the direct-solve limit of 20"):
        solve_harmonic(disk, [np.where(disk.boundary(), 1.0, 0.0)])
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 11)
    b = np.where(g.boundary(), 1.0, 0.0)
    with pytest.raises(SolverError, match="81 unknowns exceed the direct-solve limit of 20"):
        solve_screened(g, np.ones(g.mask.shape), b)
    (f,), (st,) = solve_harmonic(g, [b])
    assert st.kernel == "sine" and np.allclose(f.values, 1.0, atol=1e-13)
    line = build_grid(DomainSpec.interval(0.0, 1.0), 51)
    _, st = solve_screened(line, np.ones(51), np.where(line.boundary(), 1.0, 0.0))
    assert st.kernel == "tridiagonal" and st.residual <= DEFAULT_TOL


@pytest.mark.parametrize("n", [401, 2001])
def test_tridiagonal_kernel_matches_plain_splu(n):
    # harmonic and screened solves on an interval, c up to 1e8/h^2, against
    # a plain default SuperLU factorization of the same CSC matrix; the
    # certified bound covers the difference
    g = build_grid(DomainSpec.interval(-1.0, 2.0), n)
    op = grid_operator(g)
    (h,) = g.spacing
    rng = np.random.default_rng(17)
    b = np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0)
    interior = g.interior()
    (f,), (st,) = solve_harmonic(g, [b])
    results = [(np.zeros(g.mask.shape), f, st)]
    for scale in (1.0, 1e4, 1e8):
        c = rng.uniform(0.0, scale / h**2, g.mask.shape)
        results.append((c,) + solve_screened(g, c, b))
    for c, u, st in results:
        ref = spla.splu(sparse_laplacian(g, c)).solve(op.rhs(b.ravel()))
        diff = np.abs(u.values[interior] - ref).max()
        assert st.kernel == "tridiagonal"
        assert diff <= 1e-12 * np.abs(ref).max()
        assert diff <= st.error_bound


def holed_rectangle():
    """A rectangle with hx != hy and one interior node made a Dirichlet
    node, so its harmonic batch is not a box grid's."""
    g = build_grid(DomainSpec.rectangle(0.0, 1.3, -0.4, 2.1), (24, 37))
    mask = g.mask.copy()
    mask[17, 9] = NodeClass.BOUNDARY
    return Grid(g.domain, g.dims, g.spacing, g.origin, mask)


RED_BLACK_GRIDS = [
    lambda: build_grid(DomainSpec.disk(0.1, -0.2, 1.3), 41),
    lambda: build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 101),
    lambda: build_grid(DomainSpec.rectangle(0.0, 1.3, -0.4, 2.1), (24, 37)),
    holed_rectangle,
]


@pytest.mark.parametrize("make_grid", RED_BLACK_GRIDS,
                         ids=["disk_41", "disk_101", "rectangle", "holed_rectangle"])
def test_red_black_kernel_matches_plain_splu(make_grid):
    # screened solves with c up to 1e8/h^2, solved on the Schur complement
    # of the black unknowns, and a harmonic batch (by parity sectors, or by
    # the sine transform on the rectangle), against a plain default SuperLU
    # factorization of the full -Lap + diag(c); the certified bound covers
    # the difference
    g = make_grid()
    op = grid_operator(g)
    h = min(g.spacing)
    rng = np.random.default_rng(19)
    interior = g.interior()
    data = [np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0) for _ in range(2)]
    fields, stats = solve_harmonic(g, data)
    results = [(None, b, f, st) for b, f, st in zip(data, fields, stats)]
    for scale in (1.0, 1e4, 1e8):
        c = rng.uniform(0.0, scale / h**2, g.mask.shape)
        results.append((c, data[0]) + solve_screened(g, c, data[0]))
    for c, b, u, st in results:
        ref = spla.splu(sparse_laplacian(g, c)).solve(op.rhs(b.ravel()))
        diff = np.abs(u.values[interior] - ref).max()
        assert st.kernel == ("sine" if c is None and op.box_denominators is not None else "superlu")
        assert diff <= 1e-12 * np.abs(ref).max()
        assert diff <= st.error_bound


def test_superlu_sees_only_black_unknowns(factorizations):
    # every matrix a screened solve gives SuperLU is a Schur complement, of
    # the order of its grid's black unknowns; a harmonic batch off a box
    # grid gives it one matrix per parity sector, of that sector's unknowns
    expected = []
    for make_grid in RED_BLACK_GRIDS:
        g = make_grid()
        X, Y = g.node_coords()
        # every parity of x and y has a part of these data, so every
        # sector is solved
        b = np.where(g.boundary(), 1.0 + X**2 + 0.5 * X + 0.25 * Y + 0.125 * X * Y, 0.0)
        solve_harmonic(g, [b])
        solve_screened(g, np.full(g.mask.shape, 7.0), b)
        solve_screened(g, np.full(g.mask.shape, 9.0), b)
        if grid_operator(g).box_denominators is None:
            expected += sector_sizes(g)
        expected += [int(black_unknowns(g).sum())] * 2
    assert [f.matrix.shape[0] for f in factorizations] == expected


def one_flip_disk():
    """A disk at even n with two interior nodes, mirror images across the
    x-flip, made Dirichlet nodes: the flip of x leaves it in place, the
    flip of y does not."""
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 40)
    mask = g.mask.copy()
    mask[12, 15] = mask[12, 24] = NodeClass.BOUNDARY
    return Grid(g.domain, g.dims, g.spacing, g.origin, mask)


SECTOR_GRIDS = [
    (lambda: build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 100), 4),
    (lambda: build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 101), 4),
    (one_flip_disk, 2),
    (holed_rectangle, 1),
]


@pytest.mark.parametrize("make_grid,sectors", SECTOR_GRIDS,
                         ids=["disk_100", "disk_101", "one_flip", "no_flip"])
def test_sector_batch_matches_plain_splu(factorizations, make_grid, sectors):
    # the harmonic batch by parity sectors (at n = 100 no node lies on an
    # axis; at n = 101 a row and a column do) against a plain default
    # SuperLU factorization of the full Laplacian, within 1e-12 relative
    # and within the certified bound.  Each sector factorizes one
    # symmetric matrix on its own unknowns, at most a quadrant's where both
    # flips hold
    g = make_grid()
    op = grid_operator(g)
    interior = g.interior()
    rng = np.random.default_rng(23)
    data = [np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0) for _ in range(3)]
    lu = spla.splu(sparse_laplacian(g))
    refs = [lu.solve(op.rhs(b.ravel())) for b in data]
    fields, stats = solve_harmonic(g, data)
    matrices = [f.matrix for f in factorizations]
    assert [A.shape[0] for A in matrices] == sector_sizes(g) and len(matrices) == sectors
    assert sum(sector_sizes(g)) == op.n_unknowns
    assert all(abs(A - A.T).max() == 0.0 for A in matrices)
    if sectors == 4:
        half = [2 * np.arange(n) >= n - 1 for n in interior.shape]
        assert max(A.shape[0] for A in matrices) == interior[np.ix_(*half)].sum()
    for f, st, ref in zip(fields, stats, refs):
        diff = np.abs(f.values[interior] - ref).max()
        assert st.kernel == "superlu" and st.residual <= DEFAULT_TOL
        assert diff <= 1e-12 * np.abs(ref).max()
        assert diff <= st.error_bound


@pytest.mark.parametrize("n", [100, 101])
def test_symmetric_data_give_symmetric_fields(factorizations, n):
    # data that flips leave in place give harmonic fields they leave in
    # place, bit for bit: the folds onto the other sectors are exactly 0,
    # so those sectors are not solved, and mirror nodes read one value of
    # each sector solved
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), n)
    rng = np.random.default_rng(29)
    v = np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0)
    x_even = v + v[:, ::-1]
    y_even = v + v[::-1, :]
    both = x_even + x_even[::-1, :]
    point = v + v[::-1, ::-1]
    for data, flips, solved in ((x_even, [(1,)], 2), (y_even, [(0,)], 2),
                                (both, [(0,), (1,)], 1), (point, [(0, 1)], 2)):
        factorizations.clear()
        (f,), (st,) = solve_harmonic(g, [data])
        assert st.kernel == "superlu" and len(factorizations) == solved
        for axes in flips:
            assert np.array_equal(f.values, np.flip(f.values, axes))


def sector_maps(g):
    """Each parity sector of a 2D grid's harmonic batch, in the order it
    solves them (as ``sector_sizes``): which interior unknowns it keeps,
    their row weights, and the matrix that unfolds a vector on its unknowns
    to every interior unknown.  Along each mask axis whose flip leaves the
    interior mask in place, the sector of sign s keeps the nodes with
    2i >= n - 1 (2i > n - 1 for s = -1), a node i below the axis reads its
    mirror n - 1 - i times s, and the axis node 2i = n - 1 has weight 1/2;
    an unfolded vector is 0 where its mirror is not kept."""
    interior = g.interior()
    axes = []
    for axis, n in enumerate(interior.shape):
        i = np.arange(n)
        if np.array_equal(interior, np.flip(interior, axis)):
            axes.append([(keep, np.maximum(i, n - 1 - i), np.where(2 * i < n - 1, s, 1.0),
                          np.where(2 * i == n - 1, 0.5, 1.0))
                         for s, keep in ((1.0, 2 * i >= n - 1), (-1.0, 2 * i > n - 1))])
        else:
            axes.append([(np.ones(n, dtype=bool), i, np.ones(n), np.ones(n))])
    flat = np.flatnonzero(interior)
    iy, ix = np.divmod(flat, interior.shape[1])
    maps = []
    for keep_y, from_y, sign_y, weight_y in axes[0]:
        for keep_x, from_x, sign_x, weight_x in axes[1]:
            kept = keep_y[iy] & keep_x[ix]
            number = np.full(interior.size, -1)
            number[flat[kept]] = np.arange(kept.sum())
            col = number[from_y[iy] * interior.shape[1] + from_x[ix]]
            has = col >= 0
            unfold = sp.csr_matrix(((sign_y[iy] * sign_x[ix])[has], (np.flatnonzero(has), col[has])),
                                   shape=(flat.size, int(kept.sum())))
            maps.append((kept, (weight_y[iy] * weight_x[ix])[kept], unfold))
    return maps


def uneven_disk():
    """A disk on a 40 x 57 lattice: hx != hy, no column of nodes on the
    y-axis and a row of them on the x-axis."""
    return build_grid(DomainSpec.disk(0.0, 0.0, 1.0), (40, 57))


@pytest.mark.parametrize("make_grid,sectors", SECTOR_GRIDS + [(uneven_disk, 4)],
                         ids=["disk_100", "disk_101", "one_flip", "no_flip", "uneven_disk"])
def test_sector_matrices_are_the_folded_laplacian(factorizations, make_grid, sectors):
    # every sector matrix M that SuperLU is given is the full -Lap applied
    # to the sector's vectors unfolded, on the sector's rows scaled by their
    # weights: M x = weight (L U x) there for random x, componentwise within
    # 1e-14 of weight (|L| |U x|).  Arms that land on one entry are summed:
    # each column's rows are sorted and distinct
    g = make_grid()
    rng = np.random.default_rng(37)
    data = [np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0) for _ in range(2)]
    solve_harmonic(g, data)
    maps = sector_maps(g)
    assert len(factorizations) == len(maps) == sectors
    L = sparse_laplacian(g)
    for M, (kept, weight, unfold) in zip((f.matrix for f in factorizations), maps):
        x = rng.uniform(-1.0, 1.0, M.shape[0])
        y = unfold @ x
        ref = weight * (L @ y)[kept]
        scale = weight * (abs(L) @ np.abs(y))[kept]
        assert M.has_canonical_format
        assert np.all(np.abs(M @ x - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("make_grid", RED_BLACK_GRIDS,
                         ids=["disk_41", "disk_101", "rectangle", "holed_rectangle"])
def test_schur_complements_are_the_sparse_products(factorizations, make_grid):
    # each screened factorization gives SuperLU S in grid order, with the
    # pattern of schur_complement and its values within 1e-14 relative
    g = make_grid()
    rng = np.random.default_rng(41)
    h = min(g.spacing)
    b = np.where(g.boundary(), 1.0, 0.0)
    cs = [rng.uniform(0.0, scale / h**2, g.mask.shape) for scale in (1.0, 1e4)]
    for c in cs:
        solve_screened(g, c, b)
    assert len(factorizations) == len(cs)
    for S, c in zip((f.matrix for f in factorizations), cs):
        ref = schur_complement(g, c)
        ref.sort_indices()
        assert S.has_sorted_indices
        assert np.array_equal(S.indptr, ref.indptr) and np.array_equal(S.indices, ref.indices)
        assert np.all(np.abs(S.data - ref.data) <= 1e-14 * np.abs(ref.data))


def test_red_black_without_black_unknowns(factorizations):
    # a 3 x 3 rectangle has one unknown, a red one: the screened solve is
    # its exact quotient, and SuperLU is not called.  On these data the
    # product with the reciprocal, 0.5, differs from the quotient in the
    # last bit
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 3)
    op = grid_operator(g)
    assert op.n_unknowns == 1 and op.red_black.n_black == 0
    b = np.array([[0.7, 0.3, 0.9], [1.6, 0.0, 0.1], [0.8, 0.4, 0.2]])
    c = 5.0
    u, st = solve_screened(g, np.full(g.mask.shape, c), b)
    assert u.values[1, 1] == op.rhs(b.ravel())[0] / (op.diag[0] + c) == 0.5000000000000001
    assert st.kernel == "superlu" and st.residual <= DEFAULT_TOL
    assert factorizations == []


def test_red_black_with_one_black_unknown(factorizations):
    # a 4 x 3 rectangle has a red and a black unknown: S is 1 x 1
    g = build_grid(DomainSpec.rectangle(0.0, 1.5, 0.0, 1.0), (4, 3))
    op = grid_operator(g)
    assert op.n_unknowns == 2 and op.red_black.n_black == 1
    b = np.where(g.boundary(), np.arange(12.0).reshape(3, 4) / 7, 0.0)
    c = np.array([[0.0] * 4, [0.0, 3.0, 4.0e6, 0.0], [0.0] * 4])
    u, st = solve_screened(g, c, b)
    ref = np.linalg.solve(sparse_laplacian(g, c).toarray(), op.rhs(b.ravel()))
    diff = np.abs(u.values[g.interior()] - ref).max()
    assert diff <= 1e-15 * np.abs(ref).max() and diff <= st.error_bound
    assert st.kernel == "superlu" and [f.matrix.shape for f in factorizations] == [(1, 1)]


def test_interval_solves_make_no_superlu_call(factorizations, configs):
    # on an interval no solve factorizes with SuperLU, orders the grid or
    # builds the red-black reduction
    cfg = configs["line_m2"]
    g = build_grid(cfg.domain, cfg.grid.dims)
    b = cfg.data.boundary_arrays(g)
    _, harmonic_stats = solve_harmonic(g, b)
    _, screened_stats = solve_screened(g, np.ones(g.mask.shape), b[0])
    r = solve_epsilon(g, cfg.data, 1e-4)
    assert {f.kernel for f in factorizations} == {"tridiagonal"}
    assert all(st.kernel == "tridiagonal" for st in harmonic_stats + [screened_stats] + r.linear_stats)
    op = grid_operator(g)
    assert "red_black" not in vars(op)


def test_one_unknown_interval():
    # n = 3 leaves one unknown x, with (2 / h^2 + c) x = (a + b) / h^2 and
    # h = 1/2; LAPACK's wrapper takes no empty off-diagonal, so the kernel
    # divides, and the quotient is exact to the last bit
    g = build_grid(DomainSpec.interval(0.0, 1.0), 3)
    a, b = 0.3, 1.7
    data = np.array([a, 0.0, b])
    (f,), (st,) = solve_harmonic(g, [data])
    assert f.values.tolist() == [a, (a + b) / 2, b]
    assert st.kernel == "tridiagonal" and st.residual <= DEFAULT_TOL
    c = 5.0
    u, st = solve_screened(g, np.full(3, c), data)
    assert u.values.tolist() == [a, (a + b) / (2 + c / 4), b]
    assert st.kernel == "tridiagonal" and st.residual <= DEFAULT_TOL


def test_tridiagonal_kernel_refuses_indefinite_matrix():
    with pytest.raises(SolverError, match="leading minor 2 is not positive"):
        elliptic_core._tridiagonal_solver(np.array([2.0, 1.0]), np.array([-3.0]))
