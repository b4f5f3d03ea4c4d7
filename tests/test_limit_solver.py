"""Explicit construction of the vanishing-epsilon limit."""

import numpy as np
import pytest
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
from helpers import pivot_equivalence_check
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
