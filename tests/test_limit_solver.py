"""Explicit construction of the vanishing-epsilon limit."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from seglimit import (
    CouplingWeights,
    DomainSpec,
    ProblemData,
    apply_laplacian,
    build_grid,
    solve_harmonic,
    solve_limit,
)
from helpers import harmonic_cubic_config, harmonic_cubic_limit, pivot_equivalence_check
from seglimit.elliptic_core import grid_operator
from test_elliptic_core import sparse_laplacian
from test_epsilon_solver import M2, M3, ZERO2, make_data


@pytest.fixture(scope="module")
def g401():
    return build_grid(DomainSpec.interval(0.0, 1.0), 401)


def test_m2_analytic_limit(g401):
    r = solve_limit(g401, M2)
    x = g401.axis_coords(0)
    assert np.abs(r.fields[0].values - np.maximum(1.0 - 2.0 * x, 0.0)).max() <= 1e-10
    assert np.abs(r.fields[1].values - np.maximum(2.0 * x - 1.0, 0.0)).max() <= 1e-10


def test_m3_analytic_limit(g401):
    # third component carries data 0.5 at both ends and the limit is
    # |x - 1/2|; it overlaps each of the other supports but the triple
    # product still vanishes identically
    r = solve_limit(g401, M3)
    x = g401.axis_coords(0)
    assert np.abs(r.fields[0].values - np.maximum(1.0 - 2.0 * x, 0.0)).max() <= 1e-10
    assert np.abs(r.fields[1].values - np.maximum(2.0 * x - 1.0, 0.0)).max() <= 1e-10
    assert np.abs(r.fields[2].values - np.abs(x - 0.5)).max() <= 1e-10


def test_product_exactly_zero_and_nonnegative(configs):
    for name in ("line_m3", "disk_m3", "square_m4"):
        cfg = configs[name]
        g = build_grid(cfg.domain, 81)
        r = solve_limit(g, cfg.data)
        prod = np.ones(g.mask.shape)
        for f in r.fields:
            assert np.all(f.values >= 0.0)
            prod = prod * f.values
        assert np.all(prod == 0.0)


def test_pivot_subharmonic(configs):
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 81)
    for pivot in range(1, 5):
        r = solve_limit(g, cfg.data, pivot=pivot)
        lap = apply_laplacian(r.fields[pivot - 1])
        scale = max(np.abs(f.values).max() for f in r.fields)
        assert lap.values[g.interior()].min() * g.spacing[0] ** 2 >= -10 * 1e-10 * scale


def test_harmonic_envelope_bounds(configs):
    cfg = configs["disk_m3"]
    g = build_grid(cfg.domain, 81)
    r = solve_limit(g, cfg.data)
    phi = cfg.data.boundary_arrays(g)
    his, _ = solve_harmonic(g, phi)
    los, _ = solve_harmonic(
        g, [phi[i] - sum(phi[j] for j in range(len(phi)) if j != i) for i in range(len(phi))]
    )
    for f, hi, lo in zip(r.fields, his, los):
        assert np.all(f.values <= hi.values + 1e-9)
        assert np.all(f.values >= lo.values - 1e-9)


def test_boundary_trace_reproduced(configs):
    # every component takes its boundary data exactly, at every pivot and
    # with unequal weights too
    for name, n, A in (("disk_m3", 101, None), ("square_m4_overlap", 41, None),
                       ("square_m4", 41, [1.0, 1.2, 0.9, 1.1]), ("line_m3", 801, [1.0, 1.0, 1.5])):
        cfg = configs[name]
        g = build_grid(cfg.domain, n)
        data = cfg.data if A is None else ProblemData(
            cfg.data.boundary, CouplingWeights(np.array(A)), cfg.data.exponents
        )
        phi = data.boundary_arrays(g)
        bnd = g.boundary()
        for pivot in range(1, data.m + 1):
            r = solve_limit(g, data, pivot)
            for f, ph in zip(r.fields, phi):
                assert np.array_equal(f.values[bnd], ph[bnd]), (name, pivot)


def test_pivot_equivalence(g401, configs):
    for p, q in ((1, 2), (1, 3), (2, 3)):
        assert pivot_equivalence_check(g401, M3, p, q) <= 1e-10
    weighted = make_data([["end=left: 1"], ["end=right: 1"], ["all: 0.5"]], A=[1.0, 1.3, 0.8])
    for p, q in ((1, 2), (1, 3), (2, 3)):
        assert pivot_equivalence_check(g401, weighted, p, q) <= 1e-10
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 41)
    assert pivot_equivalence_check(g, cfg.data, 1, 3) <= 1e-10
    with pytest.raises(ValueError):
        pivot_equivalence_check(g401, M3, 2, 2)


def test_pivot_out_of_range(g401):
    with pytest.raises(ValueError):
        solve_limit(g401, M3, pivot=4)
    with pytest.raises(ValueError):
        solve_limit(g401, M3, pivot=0)


def test_weighted_limit_rescales(g401):
    # u_i / A_i solves the equal-weight problem with data phi_i / A_i
    A = [1.0, 1.3, 0.8]
    r = solve_limit(g401, make_data([["end=left: 1"], ["end=right: 1"], ["all: 0.5"]], A=A))
    ref = solve_limit(g401, make_data(
        [[f"end=left: {1 / A[0]!r}"], [f"end=right: {1 / A[1]!r}"], [f"all: {0.5 / A[2]!r}"]]
    ))
    for a, f, fr in zip(A, r.fields, ref.fields):
        assert np.abs(f.values - a * fr.values).max() <= 1e-12


def test_zero_data_limit(g401):
    r = solve_limit(g401, ZERO2)
    for f in r.fields:
        assert np.all(f.values == 0.0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
def test_interval_two_component_family(a, b):
    # data a at the left end, b at the right end: the limit difference is
    # the line a - (a + b) x and the interface sits at x = a / (a + b)
    g = build_grid(DomainSpec.interval(0.0, 1.0), 101)
    data = make_data([[f"end=left: {a!r}"], [f"end=right: {b!r}"]])
    r = solve_limit(g, data)
    x = g.axis_coords(0)
    line = a - (a + b) * x
    tol = 1e-9 * max(a, b)
    assert np.abs(r.fields[0].values - np.maximum(line, 0.0)).max() <= tol
    assert np.abs(r.fields[1].values - np.maximum(-line, 0.0)).max() <= tol
    assert pivot_equivalence_check(g, data, 1, 2) <= tol


@pytest.mark.parametrize("n", [2000, 2001])
def test_line_zero_sets_exact(n):
    # line_m2's and line_m3's discrete harmonic fields are linear, so the
    # exact limit puts node i in Z_1 where 2i >= n - 1, in Z_2 where
    # 2i <= n - 1 and in Z_3 where 2i = n - 1.  At n = 2001 the node
    # x = 0.5 is a tie of every difference, which the solve's rounding
    # leaves 2.5e-13 away from 0; at n = 2000 no node is one
    g = build_grid(DomainSpec.interval(0.0, 1.0), n)
    i = np.arange(n)
    exact = [2 * i >= n - 1, 2 * i <= n - 1, 2 * i == n - 1]
    for data in (M2, M3):
        for pivot in range(1, data.m + 1):
            r = solve_limit(g, data, pivot=pivot)
            for f, zero in zip(r.fields, exact):
                assert np.array_equal(f.values == 0, zero)


@pytest.mark.parametrize("n", [100, 101])
def test_ties_up_to_rounding_are_exact(n):
    # disk_m3's arcs: phi_2 is phi_1's mirror image in y and phi_3 is even
    # in y, each up to the rounding of |sin(3 theta / 2)| at theta and
    # 2 pi - theta.  So the exact u_1 and u_2 are mirror images in y, and
    # both vanish on their interface, the row y = 0 at x > 0 (odd n).  The
    # limit zeroes every gap within the certified bounds, so it has these
    # ties exactly at every pivot and any scale of the data, while the
    # harmonic fields keep their accuracy
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), n)
    x, _ = g.node_coords()
    interior = g.interior()
    lu = spla.splu(sparse_laplacian(g))
    arcs = ("[0, 4*pi/3)", "[2*pi/3, 2*pi)", "[4*pi/3, 2*pi + 2*pi/3)")
    for factor in (1.0, 1e-40):
        data = make_data([[f"theta in {arc}: {factor!r} * abs(sin(3*theta/2))"] for arc in arcs])
        phi = data.boundary_arrays(g)
        assert not np.array_equal(phi[0], phi[1][::-1, :])
        for pivot in (1, 2, 3):
            r = solve_limit(g, data, pivot=pivot)
            z1, z2 = ((f.values == 0) & interior for f in r.fields[:2])
            assert np.array_equal(z1, z2[::-1, :])
            if n % 2:
                row = interior[n // 2] & (x[n // 2] > 0)
                assert row.sum() == n // 2 - 1
                assert not r.fields[0].values[n // 2, row].any()
                assert not r.fields[1].values[n // 2, row].any()
            for j, stats in zip((k for k in range(3) if k != pivot - 1), r.linear_stats):
                ref = lu.solve(grid_operator(g).rhs((phi[pivot - 1] - phi[j]).ravel()))
                diff = np.abs(r.w[j][interior] - ref).max()
                assert diff <= 1e-12 * np.abs(ref).max() and diff <= stats.error_bound


def test_limit_reports_its_ties(configs):
    # the tie rule's zeroes of computed values that were not already 0, per
    # component: line_m2's node x = 0.5 for u_1 (a tie of w_2 = 1 - 2x), and
    # disk_m3's row y = 0 (99 nodes at x > 0) for u_2 at pivots 1 and 2;
    # at pivot 3 the computed u_2 is already 0 at 24 of them, and u_1 is
    # not at two of them.  Each window is the component's bound plus
    # the largest one
    expected = {"line_m2": [(1, 0)] * 2, "disk_m3": [(0, 99, 0)] * 2 + [(2, 75, 0)]}
    for name, ties in expected.items():
        cfg = configs[name]
        for pivot, counts in enumerate(ties, 1):
            L = solve_limit(cfg.grid, cfg.data, pivot, cfg.tol_linear)
            assert L.ties == counts
            assert L.tie_windows == tuple(b + max(L.w_bound) for b in L.w_bound)
            assert 0.0 < max(L.tie_windows) < 1e-8


# H_2, .., H_m of harmonic_cubic_config: m = 2, and m = 3 with a triple
# point at the origin
HARMONIC_CUBICS = {
    2: ["x^3 - 3*x*y^2 + 0.2*y"],
    3: ["x + 0.2*(x^3 - 3*x*y^2)", "-0.5*x + 0.866*y + 0.2*(y^3 - 3*x^2*y)"],
}


@pytest.mark.parametrize("n", [51, 101, 201])
@pytest.mark.parametrize("m", [2, 3])
def test_limit_exact_on_harmonic_cubics(tmp_path, m, n):
    # the 5-point stencil is exact on cubics, so the discrete limit is the
    # closed form at every node, at every pivot, up to rounding
    cubics = HARMONIC_CUBICS[m]
    cfg = harmonic_cubic_config(tmp_path / "cubics.cfg", cubics, n)
    g = cfg.grid
    exact = harmonic_cubic_limit(g, cubics)
    M = max(float(arr.max()) for arr in cfg.data.boundary_arrays(g))
    for pivot in range(1, m + 1):
        L = solve_limit(g, cfg.data, pivot, cfg.tol_linear)
        for f, u in zip(L.fields, exact):
            assert np.abs(f.values - u).max() <= 1e-13 * M
