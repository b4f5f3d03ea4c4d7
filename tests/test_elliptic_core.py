"""Discrete Laplacian and the harmonic / screened Dirichlet kernels."""

import gc
import math

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
    # one; an all-zero column is solved without the kernel
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


def test_harmonic_batch_factorizes_once(monkeypatch):
    # on a grid that is not a box the batch shares one factorization
    calls = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 21)
    data = [boundary_array(g, lambda p, k=k: k + p.coord[0] ** 2) for k in range(4)]
    fields, stats = solve_harmonic(g, data)
    assert len(calls) == 1
    assert len(fields) == len(stats) == 4
    assert all(s.kernel == "superlu" and s.residual <= DEFAULT_TOL for s in stats)
    solve_harmonic(g, [np.zeros(g.mask.shape)] * 2)
    assert len(calls) == 1


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
    c = np.ones(disk.mask.shape)
    c[10, 10] = np.nan
    with pytest.raises(SolverError, match="SuperLU factorization failed"):
        solve_screened(disk, c, boundary_array(disk, lambda p: 1.0))


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
        for c in (None, rng.uniform(0.0, 1e4, op.n_unknowns)):
            A = op.laplacian if c is None else op.laplacian + sp.diags(c)
            r = op.residual(rhs, y, c)
            assert np.all(np.abs(r - (rhs - A @ y)) <= gamma * (np.abs(rhs) + abs(A) @ np.abs(y)))


def test_box_harmonic_and_laplacian_build_no_sparse_matrix(monkeypatch):
    # a harmonic batch on a box grid and apply_laplacian run on the stencil
    # arrays alone; the sparse Laplacian is assembled only for SuperLU
    def refuse(*args, **kwargs):
        raise AssertionError("sparse matrix assembled")

    monkeypatch.setattr(elliptic_core.sp, "csc_matrix", refuse)
    monkeypatch.setattr(elliptic_core.sp, "csr_matrix", refuse)
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
    # the cached ordering, the permuted template and the symmetric-mode
    # factorization reproduce a plain default factorization of the same system
    g = build_grid(domain, n)
    op = grid_operator(g)
    rng = np.random.default_rng(11)
    b = np.where(g.boundary(), rng.uniform(0.0, 2.0, g.mask.shape), 0.0)
    interior = g.interior()

    def reference(c):
        A = op.laplacian + sp.diags(c[interior])
        return spla.splu(A.tocsc()).solve(op.rhs(b.ravel()))

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
        A = op.laplacian + sp.diags(c[interior])
        x = u.values[interior]
        r = rhs - A.astype(np.longdouble) @ x.astype(np.longdouble)
        err = spla.splu(A.tocsc()).solve(r.astype(float))
        assert 0.0 < np.abs(err).max() <= st.error_bound
    # R^2/(2d) is attained in 1D; the computed inverse is good to about 1e-14
    inv_norm = np.abs(spla.inv(op.laplacian.tocsc()).toarray()).sum(axis=1).max()
    assert op.inverse_norm_bound >= (1.0 - 1e-10) * inv_norm


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


def counting_factorizations(monkeypatch) -> list:
    """Patch SuperLU to record the ordering each factorization asks for,
    and the ordering-only pass to fail."""
    factorizations = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        factorizations.append(kwargs.get("permc_spec"))
        return splu(A, *args, **kwargs)

    def no_spilu(*args, **kwargs):
        raise AssertionError("spilu called")

    monkeypatch.setattr(spla, "spilu", no_spilu)
    monkeypatch.setattr(spla, "splu", counting_splu)
    return factorizations


def test_one_ordering_per_grid(monkeypatch, configs):
    # on a disk a limit build followed by Newton orders the grid once, in
    # the harmonic factorization, and every screened factorization takes
    # that ordering as given; a grid whose first solve is screened orders
    # in that solve's factorization
    factorizations = counting_factorizations(monkeypatch)
    cfg = configs["disk_m3"]
    g = build_grid(cfg.domain, 31)
    L = solve_limit(g, cfg.data)
    r = solve_epsilon(g, cfg.data, 1e-4, limit=L)
    # the batched harmonic solve plus one screened factorization per
    # factorizing Newton step (chord steps reuse the last one)
    steps = sum(st.factorized for st in r.linear_stats)
    assert factorizations == ["MMD_AT_PLUS_A"] + ["NATURAL"] * steps
    # every harmonic batch orders within its one factorization, at no
    # extra SuperLU call
    solve_harmonic(g, cfg.data.boundary_arrays(g))
    assert factorizations.count("MMD_AT_PLUS_A") == 2 and len(factorizations) == 2 + steps

    factorizations.clear()
    g = build_grid(cfg.domain, 31)
    b = cfg.data.boundary_arrays(g)[0]
    for _ in range(2):
        solve_screened(g, np.ones(g.mask.shape), b)
    assert factorizations == ["MMD_AT_PLUS_A", "NATURAL"]


def test_box_grid_orders_in_first_screened_solve(monkeypatch, configs):
    # on a box grid the harmonic batches take the sine transform, so the
    # first Newton step's factorization orders the grid
    factorizations = counting_factorizations(monkeypatch)
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 31)
    L = solve_limit(g, cfg.data)
    assert factorizations == []
    r = solve_epsilon(g, cfg.data, 1e-4, limit=L)
    steps = sum(st.factorized for st in r.linear_stats)
    assert steps >= 2
    assert factorizations == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (steps - 1)
    solve_harmonic(g, cfg.data.boundary_arrays(g))
    assert len(factorizations) == steps


def test_stored_ordering_owns_its_data(configs):
    # SuperLU.perm_c is a view whose base is the factor: keeping it would
    # keep the whole factor alive with the grid
    g = build_grid(configs["disk_m3"].domain, 41)
    solve_harmonic(g, configs["disk_m3"].data.boundary_arrays(g))
    op = grid_operator(g)
    assert op.order.base is None
    assert op.factor_pattern().order is op.order


def test_fill_equals_superlu_symmetric_mmd(monkeypatch, configs):
    # the screened template is permuted by the inverse of SuperLU's perm_c;
    # applying perm_c itself (the easy mistake) multiplies the fill more
    # than tenfold
    factors = []
    splu = spla.splu

    def keeping_splu(A, *args, **kwargs):
        factors.append(splu(A, *args, **kwargs))
        return factors[-1]

    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 101)
    op = grid_operator(g)
    own = splu(op.laplacian, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    b = cfg.data.boundary_arrays(g)[0]
    solve_harmonic(g, [b])
    monkeypatch.setattr(spla, "splu", keeping_splu)
    # the first screened solve orders the box grid, the second takes the
    # template
    for _ in range(2):
        solve_screened(g, np.ones(g.mask.shape), b)
    assert [lu.L.nnz + lu.U.nnz for lu in factors] == [own.L.nnz + own.U.nnz] * 2


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
    lu = spla.splu(op.laplacian.tocsc())
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
    # the direct-solve limit refuses a box grid as well
    monkeypatch.setattr(elliptic_core, "DIRECT_SOLVE_LIMIT", 20)
    with pytest.raises(SolverError, match="81 unknowns exceed the direct-solve limit of 20"):
        solve_harmonic(build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 11), [b])


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
        A = (op.laplacian + sp.diags(c[interior])).tocsc()
        ref = spla.splu(A).solve(op.rhs(b.ravel()))
        diff = np.abs(u.values[interior] - ref).max()
        assert st.kernel == "tridiagonal"
        assert diff <= 1e-12 * np.abs(ref).max()
        assert diff <= st.error_bound


def test_interval_solves_make_no_superlu_call(monkeypatch, configs):
    # on an interval no solve factorizes with SuperLU, orders the grid or
    # builds the sparse Laplacian
    factorizations = counting_factorizations(monkeypatch)
    cfg = configs["line_m2"]
    g = build_grid(cfg.domain, cfg.grid.dims)
    b = cfg.data.boundary_arrays(g)
    _, harmonic_stats = solve_harmonic(g, b)
    _, screened_stats = solve_screened(g, np.ones(g.mask.shape), b[0])
    r = solve_epsilon(g, cfg.data, 1e-4)
    assert factorizations == []
    assert all(st.kernel == "tridiagonal" for st in harmonic_stats + [screened_stats] + r.linear_stats)
    op = grid_operator(g)
    assert op.order is None and op._pattern is None and "laplacian" not in vars(op)


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
