"""Norms, interface extraction, jump checks, and the rate study."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from seglimit import (
    DomainSpec,
    ScalarField,
    build_grid,
    solve_epsilon,
    solve_limit,
)
from seglimit.analysis import (
    default_zero_threshold,
    extract_supports_and_interfaces,
    jump_condition_check,
    laplacian_measure,
    norm_Lp,
    rate_study,
    solve_vs_limit_distances,
)
from helpers import discrete_energy, segregation_residual
from test_epsilon_solver import M2, M3, ZERO2


@pytest.fixture(scope="module")
def g401():
    return build_grid(DomainSpec.interval(0.0, 1.0), 401)


@pytest.fixture(scope="module")
def limit_m3(g401):
    return solve_limit(g401, M3)


def test_norm_lp_values(g401):
    x = g401.axis_coords(0)
    u = ScalarField(g401, x)
    # int_0^1 x^3 dx = 1/4, endpoint weights cost O(h)
    assert norm_Lp(u, 3.0) == pytest.approx(0.25 ** (1.0 / 3.0), abs=5e-3)
    assert norm_Lp(u, math.inf) == 1.0
    with pytest.raises(ValueError):
        norm_Lp(u, 0.5)


@pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
@pytest.mark.parametrize("domain,n", [
    (DomainSpec.interval(0.0, 1.0), 401),
    (DomainSpec.disk(0.0, 0.0, 1.0), 41),
], ids=["interval", "disk"])
def test_norm_lp_scale_free(domain, n, p):
    # a field scaled by 2^400 or 2^-400 has its norm scaled by the same
    # power of two, where v^p alone would overflow or underflow to 0
    g = build_grid(domain, n)
    X = g.node_coords()[0]
    v = np.where(g.in_domain(), 1.5 + np.sin(7 * X), 0.0)
    base = norm_Lp(ScalarField(g, v), p)
    for s in (400, -400):
        got = norm_Lp(ScalarField(g, np.ldexp(v, s)), p)
        want = math.ldexp(base, s)
        assert math.isfinite(got) and got > 0
        assert abs(got - want) <= 4 * math.ulp(want)


def test_default_zero_threshold(g401):
    h = g401.spacing[0]
    assert default_zero_threshold(g401, 2.0) == pytest.approx(2.0 * h)
    assert default_zero_threshold(g401, 1.0, tol_linear=1.0) == 10.0


def test_segregation_residual_limit_exact_zero(limit_m3):
    max_prod, integrals = segregation_residual(limit_m3.fields, M3.weights)
    assert max_prod == 0.0
    assert all(v == 0.0 for v in integrals)


def test_segregation_residual_positive_at_eps(g401):
    r = solve_epsilon(g401, M2, 1e-2)
    max_prod, integrals = segregation_residual(r.fields, M2.weights)
    assert max_prod > 0.0
    assert all(v > 0.0 for v in integrals)


def test_interface_extraction_m2_counts():
    # nodes whose value sits exactly at the threshold flip with solver
    # noise, so one interface is realized by one to three incident edges,
    # all within grid accuracy of the crossing
    for n in (400, 401):
        g = build_grid(DomainSpec.interval(0.0, 1.0), n)
        r = solve_limit(g, M2)
        delta = default_zero_threshold(g, 1.0)
        I = extract_supports_and_interfaces(r.fields, delta)
        edges = I.pairs[(1, 2)]
        assert 1 <= len(edges) <= 3
        h = g.spacing[0]
        assert np.all(np.abs(edges.midpoint[:, 0] - 0.5) <= 2 * h)
        assert not I.degenerate


def test_interface_extraction_m3_pairs(g401, limit_m3):
    delta = default_zero_threshold(g401, 1.0)
    I = extract_supports_and_interfaces(limit_m3.fields, delta)
    h = g401.spacing[0]
    for pair, edges in I.pairs.items():
        assert edges, pair
        assert np.all(np.abs(edges.midpoint[:, 0] - 0.5) <= 2 * h)
        assert np.allclose(np.linalg.norm(edges.normal, axis=1), 1.0)


def _reference_gradient(vals, g, idx):
    """Per-node gradient: central differences, one-sided at the lattice rim."""
    out = np.zeros(g.ndim)
    for ax in range(g.ndim):
        lo = tuple(idx[a] - (1 if a == ax else 0) for a in range(g.ndim))
        hi = tuple(idx[a] + (1 if a == ax else 0) for a in range(g.ndim))

        def val(j):
            return vals[j[0]] if g.ndim == 1 else vals[j[1], j[0]]

        h = g.spacing[ax]
        if 0 < idx[ax] < g.dims[ax] - 1:
            out[ax] = (val(hi) - val(lo)) / (2 * h)
        elif idx[ax] == 0:
            out[ax] = (val(hi) - val(idx)) / h
        else:
            out[ax] = (val(idx) - val(lo)) / h
    return out


def _lattice(g, flat):
    """Lattice indices (ix[, iy]) of a flat node number; the mask axes run
    opposite to the grid's."""
    return tuple(int(k) for k in np.unravel_index(flat, g.mask.shape)[::-1])


def _reference_edge_geometry(g, d, a, b):
    """Midpoint and unit normal of one edge, computed node by node."""
    ca = [g.origin[ax] + g.spacing[ax] * a[ax] for ax in range(g.ndim)]
    cb = [g.origin[ax] + g.spacing[ax] * b[ax] for ax in range(g.ndim)]
    mid = tuple(0.5 * (x + y) for x, y in zip(ca, cb))
    grad = 0.5 * (_reference_gradient(d, g, a) + _reference_gradient(d, g, b))
    nrm = float(np.linalg.norm(grad))
    if nrm > 0.0:
        return mid, tuple(float(v / nrm) for v in grad)
    axis = 0 if a[0] != b[0] else 1
    return mid, tuple(float(v) for v in np.eye(g.ndim)[axis])


def _assert_edges_match_reference(I, fields):
    for (i, j), edges in I.pairs.items():
        d = fields[i - 1].values - fields[j - 1].values
        for p, q, mid, normal in zip(edges.p, edges.q, edges.midpoint.tolist(),
                                     edges.normal.tolist()):
            a, b = _lattice(I.grid, p), _lattice(I.grid, q)
            assert (tuple(mid), tuple(normal)) == _reference_edge_geometry(I.grid, d, a, b)


def test_interface_geometry_matches_per_edge_reference(configs, g401, limit_m3):
    # the vectorized midpoints and normals must equal the per-edge
    # arithmetic bit for bit (interfaces.csv is compared byte for byte)
    _assert_edges_match_reference(
        extract_supports_and_interfaces(limit_m3.fields, default_zero_threshold(g401, 1.0)),
        limit_m3.fields,
    )
    for name in ("disk_m3", "square_m4_overlap"):
        g = build_grid(configs[name].domain, 81)
        L = solve_limit(g, configs[name].data)
        I = extract_supports_and_interfaces(L.fields, default_zero_threshold(g, 1.0))
        assert sum(len(e) for e in I.pairs.values()) > 50
        _assert_edges_match_reference(I, L.fields)
    # u1 - u2 is flat, so the (1, 2) normal falls back to the edge direction
    g = build_grid(DomainSpec.interval(0.0, 1.0), 5)
    fields = (ScalarField(g, np.full(5, 0.1)), ScalarField(g, np.full(5, 0.2)),
              ScalarField(g, np.array([1.0, 0.0, 1.0, 1.0, 1.0])))
    I = extract_supports_and_interfaces(fields, 0.5)
    assert I.pairs[(1, 2)].normal.tolist() == [[1.0]]
    _assert_edges_match_reference(I, fields)


@pytest.mark.parametrize("name", ["disk_m3", "square_m4_overlap"])
def test_interface_edges_on_flat_node_numbers(configs, name):
    # an edge joins an interior node p to the next node q along its axis,
    # also interior, and its midpoint is the mean of their coordinates
    g = build_grid(configs[name].domain, 81)
    L = solve_limit(g, configs[name].data)
    I = extract_supports_and_interfaces(L.fields, default_zero_threshold(g, 1.0))
    stride = (1, g.dims[0])
    interior = g.interior().ravel()
    coords = np.column_stack([c.ravel() for c in g.node_coords()])
    p, q, axis, midpoint = (np.concatenate([getattr(e, col) for e in I.pairs.values()])
                            for col in ("p", "q", "axis", "midpoint"))
    assert len(p) > 50 and set(axis.tolist()) == {0, 1}
    assert np.array_equal(q, p + np.array(stride)[axis])
    assert interior[p].all() and interior[q].all()
    assert np.array_equal(midpoint, 0.5 * (coords[p] + coords[q]))


def test_interface_degenerate_flag(g401):
    r = solve_limit(g401, ZERO2)
    I = extract_supports_and_interfaces(r.fields, default_zero_threshold(g401, 1.0))
    assert I.degenerate
    with pytest.raises(ValueError):
        extract_supports_and_interfaces(r.fields, 0.0)


def test_laplacian_measure_kink_strength(g401):
    x = g401.axis_coords(0)
    k = np.argmin(np.abs(x - 0.5))
    for vals in (np.maximum(1.0 - 2.0 * x, 0.0), np.abs(x - 0.5)):
        mu = laplacian_measure(ScalarField(g401, vals))
        assert mu.values[k] == pytest.approx(2.0, abs=1e-8)
        away = np.abs(mu.values[g401.interior()])
        away[k - 1] = 0.0
        assert away.max() <= 1e-8


def test_jump_conditions_m3(g401, limit_m3):
    delta = default_zero_threshold(g401, 1.0)
    I = extract_supports_and_interfaces(limit_m3.fields, delta)
    rows = jump_condition_check(limit_m3, I)
    assert rows[:, :2].tolist() == [[1, 2], [1, 3], [2, 3]]
    edges, skipped, max_balance, max_transfer = rows[:, 2:].T
    assert edges[0] >= 1
    assert max_balance[0] <= 1e-8
    assert max_transfer[0] <= 1e-8
    # the third component meets the others only at a point; its pairwise
    # interfaces carry no one-sided trace and are skipped, not faked
    for k in (1, 2):
        assert edges[k] == 0
        assert skipped[k] >= 1


def test_jump_conditions_square(configs):
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 101)
    r = solve_limit(g, cfg.data)
    scale = max(np.abs(f.values).max() for f in r.fields)
    I = extract_supports_and_interfaces(r.fields, default_zero_threshold(g, scale))
    rows = jump_condition_check(r, I)
    evaluated = rows[:, 2].sum()
    assert evaluated > 0
    for _, _, edges, _, max_balance, _ in rows:
        if edges:
            # one-sided 2-point traces are first-order accurate
            assert max_balance <= 20.0 * g.spacing[0] * scale


def jump_check_loop(L, I):
    """The per-edge loop jump_condition_check replaced: the reference its
    array form must reproduce exactly.  It keeps each pair's residuals edge
    by edge and returns the check's rows from their counts and maxima."""
    g = I.grid
    in_domain = g.in_domain()

    def value(f, idx):
        return f.values[idx[0]] if g.ndim == 1 else f.values[idx[1], idx[0]]

    def inside(idx):
        for ax in range(g.ndim):
            if not 0 <= idx[ax] < g.dims[ax]:
                return False
        return bool(in_domain[idx[0]] if g.ndim == 1 else in_domain[idx[1], idx[0]])

    def in_zero(f, idx):
        return inside(idx) and value(f, idx) == 0

    rows = []
    for (i, j), edges in sorted(I.pairs.items()):
        n_edges, skipped, balance, transfer = 0, 0, [], []
        ui = L.fields[i - 1]
        uj = L.fields[j - 1]
        for ep, eq in zip(edges.p, edges.q):
            a, b = _lattice(g, ep), _lattice(g, eq)
            da = value(ui, a) - value(uj, a)
            db = value(ui, b) - value(uj, b)
            if da > db:
                p, q = a, b
            elif db > da:
                p, q = b, a
            else:
                skipped += 1
                continue
            axis = 0 if p[0] != q[0] else 1
            h = g.spacing[axis]
            step = 1 if q[axis] > p[axis] else -1
            p_back = tuple(p[a] - (step if a == axis else 0) for a in range(g.ndim))
            q_fwd = tuple(q[a] + (step if a == axis else 0) for a in range(g.ndim))
            if not (
                in_zero(uj, p) and in_zero(uj, p_back)
                and in_zero(ui, q) and in_zero(ui, q_fwd)
            ):
                skipped += 1
                continue

            def d_p(f):
                return (value(f, p) - value(f, p_back)) / (step * h)

            def d_q(f):
                return (value(f, q_fwd) - value(f, q)) / (step * h)

            balance.append(abs(d_p(ui) + d_q(uj)))
            for k in range(1, len(L.fields) + 1):
                if k in (i, j):
                    continue
                uk = L.fields[k - 1]
                transfer.append(abs((d_p(uk) - d_q(uk)) - d_p(ui)))
            n_edges += 1
        rows.append([i, j, n_edges, skipped, max(balance, default=0.0), max(transfer, default=0.0)])
    return rows


@pytest.mark.parametrize("name", ["line_m3", "disk_m3", "square_m4", "square_m4_overlap"])
def test_jump_check_matches_per_edge_loop(configs, name):
    cfg = configs[name]
    g = cfg.grid
    L = solve_limit(g, cfg.data)
    I = extract_supports_and_interfaces(
        L.fields, default_zero_threshold(g, cfg.data.max_boundary_value(g), cfg.tol_linear)
    )
    rows = jump_condition_check(L, I)
    reference = jump_check_loop(L, I)
    assert rows.tolist() == reference
    assert rows[:, 2].sum() > 0
    assert rows[:, 3].sum() > 0


def test_jump_residuals_refine_on_square_m4(configs):
    # on the exact zero sets the one-sided traces are first order in h, so
    # halving h about halves the largest balance residual; at n = 401 the
    # sine transform solves a batch above the direct-solve limit
    cfg = configs["square_m4"]
    worst = []
    for n in (201, 401):
        L = solve_limit(build_grid(cfg.domain, n), cfg.data)
        rows = jump_condition_check(L, extract_supports_and_interfaces(L.fields, math.ulp(0.0)))
        worst.append(rows[:, 4].max())
    assert worst[1] <= 0.6 * worst[0]


def test_jump_check_skips_unoriented_edges():
    # u1 - u2 is flat, so the (1, 2) edge has no side where u1 lives
    g = build_grid(DomainSpec.interval(0.0, 1.0), 5)
    fields = (ScalarField(g, np.full(5, 0.1)), ScalarField(g, np.full(5, 0.2)),
              ScalarField(g, np.array([1.0, 0.0, 1.0, 1.0, 1.0])))
    L = SimpleNamespace(fields=fields, weights=np.ones(3))
    I = extract_supports_and_interfaces(fields, 0.5)
    rows = jump_condition_check(L, I)
    assert rows.tolist() == jump_check_loop(L, I)
    # the first row is the (1, 2) pair's
    assert rows[0, :4].tolist() == [1, 2, 0, 1]


def test_rate_study_slope_and_failures(g401, limit_m3):
    limit2 = solve_limit(g401, M2)
    t = rate_study(g401, M2, [1e-2, 1e-3, 1e-4], limit2, max_sweeps=5000)
    assert t.slope is not None and t.slope > 0.2
    assert all(not r.failed for r in t.rows)
    assert all(r.sup[0] > 0 for r in t.rows)
    # sup distances shrink along the ladder
    sups = [r.sup[0] for r in t.rows]
    assert sups[-1] < sups[0]
    # one slope per decade between the pivot's L^3 distances; every rung
    # keeps its solve's steps, stop and linear solves
    lmp1 = [r.lmp1[0] for r in t.rows]
    assert t.local_slopes == pytest.approx(-np.diff(np.log10(lmp1)), rel=1e-12)
    assert all(r.stop == "certified" and len(r.linear_stats) == r.sweeps > 0 for r in t.rows)

    single = rate_study(g401, M2, [1e-2], limit2)
    assert single.slope is None and single.local_slopes == []

    capped = rate_study(g401, M2, [1e-4], limit2, max_sweeps=2)
    assert capped.rows[0].failed
    assert capped.slope is None

    with pytest.raises(ValueError):
        rate_study(g401, M2, [1e-3, 1e-2], limit2)
    # two rungs of one log10 would give the slope fit a zero step
    with pytest.raises(ValueError, match="log10 of the epsilon list must be strictly decreasing"):
        rate_study(g401, M2, [1e-2, 9.999999999999999e-3], limit2)
    with pytest.raises(ValueError):
        rate_study(g401, M2, [1e-2, -1.0], limit2)
    with pytest.raises(ValueError, match="finite reciprocals"):
        rate_study(g401, M2, [1e-2, 1e-310], limit2)


@pytest.mark.parametrize("name", ["disk_m3", "square_m4"])
def test_rate_rung_matches_standalone_solve(configs, name):
    # a rung of the ladder solves its system on a grid that solved the
    # rungs before it, yet gives the distances of the same solve on a
    # fresh grid bit for bit: every factorization orders itself
    cfg = configs[name]
    tols = dict(tol_fp=cfg.tol_fp, max_sweeps=cfg.max_sweeps, tol_linear=cfg.tol_linear)

    def fresh():
        g = build_grid(cfg.domain, 61)
        return g, solve_limit(g, cfg.data, tol_linear=cfg.tol_linear)

    g, L = fresh()
    rung = rate_study(g, cfg.data, [1e-2, 1e-3, 1e-4], L, **tols).rows[-1]
    g, L = fresh()
    lmp1, sup = solve_vs_limit_distances(solve_epsilon(g, cfg.data, 1e-4, limit=L, **tols), L)
    assert not rung.failed
    assert rung.lmp1 == lmp1
    assert rung.sup == sup


def test_discrete_energy_values(g401):
    assert discrete_energy(ScalarField(g401, np.zeros(401))) == 0.0
    x = g401.axis_coords(0)
    assert discrete_energy(ScalarField(g401, x)) == pytest.approx(1.0, rel=1e-10)
    r = solve_limit(g401, M2)
    # each component has slope 2 on half the interval: total energy 4
    assert discrete_energy(r.fields) == pytest.approx(4.0, rel=0.05)


def test_solve_vs_limit_distances(g401):
    limit2 = solve_limit(g401, M2)
    r = solve_epsilon(g401, M2, 1e-4, max_sweeps=5000)
    lmp1, sup = solve_vs_limit_distances(r, limit2)
    # one distance of each kind per component, in component order
    assert len(lmp1) == len(sup) == 2
    for a, b in zip(lmp1, sup):
        assert 0.0 < a <= b + 1e-12
        assert b < 0.2
