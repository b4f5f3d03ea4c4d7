"""Acceptance gate: one check per numbered criterion, one line printed each.

Criterion 3 checks an interleaved two-sided monotonicity of the sweep
iterates.  The fully lagged variant of the iteration satisfies it exactly,
but the shipped scheme averages a fresh and a lagged coefficient and only
the relations among the first few iterates survive; the check is kept as
stated and is expected to fail honestly on the pointwise-violation bound.
"""

import math
import time

import numpy as np
import pytest

from seglimit import (
    ScalarField,
    boundary_points,
    build_grid,
    solve_epsilon,
    solve_harmonic,
    solve_limit,
)
from seglimit.analysis import (
    default_zero_threshold,
    extract_supports_and_interfaces,
    jump_condition_check,
    rate_study,
    segregation_residual,
)
from seglimit.epsilon_solver import initialize, sweep
from seglimit.limit_solver import pivot_equivalence_check
from test_elliptic_core import sinh_error
from test_epsilon_solver import M2, M3


def crit(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def max_boundary(cfg, g):
    return cfg.data.max_boundary_value(g)


def test_criterion_01_limit_m2_analytic():
    from seglimit import DomainSpec

    t0 = time.perf_counter()
    g = build_grid(DomainSpec.interval(0.0, 1.0), 401)
    r = solve_limit(g, M2)
    x = g.axis_coords(0)
    e1 = np.abs(r.fields[0].values - np.maximum(1.0 - 2.0 * x, 0.0)).max()
    e2 = np.abs(r.fields[1].values - np.maximum(2.0 * x - 1.0, 0.0)).max()
    dt = time.perf_counter() - t0
    ok = e1 <= 1e-10 and e2 <= 1e-10 and dt < 1.0
    crit(1, ok, f"m=2 sup errors ({e1:.2e}, {e2:.2e}) <= 1e-10, {dt:.2f}s < 1s")


def test_criterion_02_limit_m3_analytic_and_jumps():
    from seglimit import DomainSpec

    t0 = time.perf_counter()
    g = build_grid(DomainSpec.interval(0.0, 1.0), 401)
    r = solve_limit(g, M3)
    x = g.axis_coords(0)
    e3 = np.abs(r.fields[2].values - np.abs(x - 0.5)).max()
    I = extract_supports_and_interfaces(r.fields, default_zero_threshold(g, 1.0))
    reports = jump_condition_check(r, I)
    worst = max(max(rep.max_balance, rep.max_transfer) for rep in reports.values())
    dt = time.perf_counter() - t0
    ok = e3 <= 1e-10 and worst <= 1e-8 and dt < 1.0
    crit(2, ok, f"u3 sup error {e3:.2e} <= 1e-10, jump residuals {worst:.2e} <= 1e-8, {dt:.2f}s < 1s")


def test_criterion_03_monotone_sandwich(configs):
    t0 = time.perf_counter()
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 101)
    M = max_boundary(cfg, g)
    bound = 10.0 * cfg.tol_linear * M
    states = [initialize(g, cfg.data)]
    for _ in range(10):
        states.append(sweep(states[-1], 1e-4, cfg.data))
    worst = 0.0
    for k in range(len(states) - 2):
        for fa, fb in zip(states[k].fields, states[k + 2].fields):
            v = fb.values - fa.values if k % 2 == 0 else fa.values - fb.values
            worst = max(worst, float(v.max()))
    gaps = [
        max(
            np.abs(a.values - b.values).max()
            for a, b in zip(states[2 * k].fields, states[2 * k + 1].fields)
        )
        for k in range(5)
    ]
    gaps_ok = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    dt = time.perf_counter() - t0
    ok = worst <= bound and gaps_ok and dt < 60.0
    crit(3, ok, f"sandwich violation {worst:.3e} (bound {bound:.1e}), "
                f"gap nonincreasing {gaps_ok}, {dt:.1f}s < 60s")


def test_criterion_04_maximum_principle_bounds(configs):
    eps = 1e-4  # the criterion pins no epsilon; chosen for runtime
    # the envelope budget 10*tol_linear*M demands a fixed-point gap well
    # below the default: the distance to the fixed point is roughly ten
    # times the even/odd gap at stopping
    tol_fp = 1e-11
    worst_env = 0.0
    iterates_ok = True
    for name, cfg in configs.items():
        g = cfg.grid
        M = max_boundary(cfg, g)
        phi = cfg.data.boundary_arrays(g)
        s_even = initialize(g, cfg.data)
        s_odd = sweep(s_even, eps, cfg.data)
        for _ in range(20000):
            for s in (s_even, s_odd):
                for f in s.fields:
                    iterates_ok &= bool(np.all(f.values >= 0.0) and np.all(f.values <= M))
            gap = max(
                np.abs(a.values - b.values).max()
                for a, b in zip(s_even.fields, s_odd.fields)
            )
            if gap <= tol_fp * M:
                break
            s_even = sweep(s_odd, eps, cfg.data)
            s_odd = sweep(s_even, eps, cfg.data)
        m = cfg.data.m
        # the solver output is the midpoint of the bracketing even/odd pair
        mid = [0.5 * (a.values + b.values) for a, b in zip(s_even.fields, s_odd.fields)]
        his, _ = solve_harmonic(g, phi, cfg.tol_linear)
        los, _ = solve_harmonic(
            g, [phi[i] - sum(phi[j] for j in range(m) if j != i) for i in range(m)],
            cfg.tol_linear,
        )
        for i, (hi, lo) in enumerate(zip(his, los)):
            u = mid[i]
            hat = u - sum(mid[j] for j in range(m) if j != i)
            worst_env = max(
                worst_env,
                float((u - hi.values).max()) / M,
                float((lo.values - hat).max()) / M,
            )
    env_ok = worst_env <= 10.0 * 1e-10
    crit(4, iterates_ok and env_ok,
         f"iterate bounds exact {iterates_ok}, envelope excess {worst_env:.2e} <= 1e-9 (rel)")


def test_criterion_05_convergence_rates():
    from seglimit import DomainSpec

    t0 = time.perf_counter()
    g = build_grid(DomainSpec.interval(0.0, 1.0), 2001)
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    slopes = {}
    for name, data, need in (("m2", M2, 1.0 / 3.0 - 0.1), ("m3", M3, 0.25 - 0.1)):
        L = solve_limit(g, data)
        t = rate_study(g, data, eps_list, L, max_sweeps=20000)
        slopes[name] = (t.slope, need)
    dt = time.perf_counter() - t0
    ok = all(s is not None and s >= need for s, need in slopes.values()) and dt < 300.0
    crit(5, ok, f"slopes m2={slopes['m2'][0]:.3f} (>= {slopes['m2'][1]:.3f}), "
                f"m3={slopes['m3'][0]:.3f} (>= {slopes['m3'][1]:.3f}), {dt:.0f}s < 300s")


def test_criterion_06_solver_vs_limit(configs):
    t0 = time.perf_counter()
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 101)
    M = max_boundary(cfg, g)
    L = solve_limit(g, cfg.data, tol_linear=cfg.tol_linear)
    r = solve_epsilon(g, cfg.data, 1e-8, cfg.tol_fp, 20000, cfg.tol_linear)
    dist = max(
        float(np.abs(a.values - b.values).max())
        for a, b in zip(r.fields, L.fields)
    )
    bound = max(1e-3, 5.0 * max(g.spacing) * M)
    dt = time.perf_counter() - t0
    ok = dist <= bound and dt < 600.0
    crit(6, ok, f"sup distance {dist:.3e} <= {bound:.3e} at eps=1e-8, "
                f"{r.sweeps} sweeps, {dt:.0f}s < 600s")


def test_criterion_07_segregation(configs):
    products_ok = True
    for name, cfg in configs.items():
        g = cfg.grid
        L = solve_limit(g, cfg.data, tol_linear=cfg.tol_linear)
        max_prod, _ = segregation_residual(L.fields, cfg.data.weights, cfg.data.exponents)
        products_ok &= max_prod == 0.0
    decreasing_ok = True
    cases = [("line_m2", None), ("line_m3", None), ("square_m4", 101)]
    for name, n in cases:
        cfg = configs[name]
        g = build_grid(cfg.domain, n) if n else cfg.grid
        prev = None
        for eps in (1e-2, 1e-4, 1e-6):
            r = solve_epsilon(g, cfg.data, eps, cfg.tol_fp, 20000, cfg.tol_linear)
            _, integrals = segregation_residual(r.fields, cfg.data.weights, cfg.data.exponents)
            if prev is not None:
                decreasing_ok &= all(b < a for a, b in zip(prev, integrals))
            prev = integrals
    ok = products_ok and decreasing_ok
    crit(7, ok, f"limit products exactly 0 {products_ok}, "
                f"reaction integrals decreasing {decreasing_ok}")


def test_criterion_08_pivot_invariance(configs):
    worst = 0.0
    for name, cfg in configs.items():
        g = cfg.grid
        M = max_boundary(cfg, g)
        m = cfg.data.m
        for p in range(1, m + 1):
            for q in range(p + 1, m + 1):
                d = pivot_equivalence_check(g, cfg.data, p, q, cfg.tol_linear)
                worst = max(worst, d / (10.0 * cfg.tol_linear * M))
    ok = worst <= 1.0
    crit(8, ok, f"worst pivot discrepancy {worst:.3f} of the 10*tol*M budget")


def test_criterion_09_uniqueness_proxy():
    from seglimit import DomainSpec

    g = build_grid(DomainSpec.interval(0.0, 1.0), 2001)
    eps, tol_fp = 1e-4, 1e-8
    r1 = solve_epsilon(g, M2, eps, tol_fp=tol_fp, max_sweeps=20000)
    L = solve_limit(g, M2)
    seeded = tuple(
        ScalarField(g, 0.5 * f.values + 0.5 * lf.values)
        for f, lf in zip(initialize(g, M2).fields, L.fields)
    )
    r2 = solve_epsilon(g, M2, eps, tol_fp=tol_fp, max_sweeps=20000, initial=seeded)
    gap = max(
        float(np.abs(a.values - b.values).max())
        for a, b in zip(r1.fields, r2.fields)
    )
    ok = gap <= 10.0 * tol_fp * 1.0
    crit(9, ok, f"two starts agree within {gap:.2e} <= {10 * tol_fp:.0e}")


def test_criterion_10_figure_reproduction(configs):
    # disk: three pairwise interfaces, radii toward theta 0, 2pi/3, 4pi/3
    cfg = configs["disk_m3"]
    g = build_grid(cfg.domain, 201)
    h = max(g.spacing)
    L = solve_limit(g, cfg.data, tol_linear=cfg.tol_linear)
    M = max_boundary(cfg, g)
    I = extract_supports_and_interfaces(
        L.fields, default_zero_threshold(g, M, cfg.tol_linear)
    )
    expected = {(1, 2): 0.0, (2, 3): 2.0 * math.pi / 3.0, (1, 3): 4.0 * math.pi / 3.0}
    thetas = np.array([p.param for p in boundary_points(g)])
    disk_ok = True
    details = []
    inner = []
    for pair, target in expected.items():
        edges = I.pairs[pair]
        if not edges:
            disk_ok = False
            details.append(f"{pair}: no edges")
            continue
        radii = [math.hypot(*e.midpoint) for e in edges]
        outer = edges[int(np.argmax(radii))]
        inner.append(np.array(edges[int(np.argmin(radii))].midpoint))
        # the outermost edge must sit within 2 boundary nodes of the
        # expected contact angle
        ang = math.atan2(outer.midpoint[1], outer.midpoint[0]) % (2 * math.pi)
        k_edge = int(np.argmin(np.minimum(np.abs(thetas - ang),
                                          2 * math.pi - np.abs(thetas - ang))))
        k_target = int(np.argmin(np.minimum(np.abs(thetas - target),
                                            2 * math.pi - np.abs(thetas - target))))
        nb = len(thetas)
        steps = min((k_edge - k_target) % nb, (k_target - k_edge) % nb)
        touches = max(radii) >= 1.0 - 3.0 * h
        disk_ok &= touches and steps <= 2
        details.append(f"{pair}: contact offset {steps} nodes, touches {touches}")
    if len(inner) == 3:
        c = np.mean(inner, axis=0)
        meet = max(float(np.linalg.norm(p - c)) for p in inner)
        disk_ok &= meet <= 5.0 * h
        details.append(f"meet radius {meet:.3f} <= {5 * h:.3f}")

    # square: four single-component support regions, each against its side
    from scipy import ndimage

    cfg4 = configs["square_m4"]
    g4 = build_grid(cfg4.domain, 201)
    L4 = solve_limit(g4, cfg4.data, tol_linear=cfg4.tol_linear)
    M4 = max_boundary(cfg4, g4)
    I4 = extract_supports_and_interfaces(
        L4.fields, default_zero_threshold(g4, M4, cfg4.tol_linear)
    )
    interior = g4.interior()
    # component i carries data on side: 1 top, 2 right, 3 bottom, 4 left
    side_rows = {
        1: interior[-2, :], 2: interior[:, -2],
        3: interior[1, :], 4: interior[:, 1],
    }
    side_slices = {
        1: (slice(-2, -1), slice(None)), 2: (slice(None), slice(-2, -1)),
        3: (slice(1, 2), slice(None)), 4: (slice(None), slice(1, 2)),
    }
    square_ok = True
    for i in range(1, 5):
        support = interior & ~I4.zero_sets[i - 1]
        labels, ncomp = ndimage.label(support)
        single = ncomp == 1
        adjacent = bool(support[side_slices[i]].any())
        square_ok &= single and adjacent
        details.append(f"u{i}: regions {ncomp}, touches own side {adjacent}")
    ok = disk_ok and square_ok
    crit(10, ok, "; ".join(details))


def test_criterion_11_kernel_regression():
    ratios = {k: sinh_error(101, k) / sinh_error(201, k) for k in (1.0, 25.0, 400.0)}
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    crit(11, ok, "grid-doubling error ratios " +
         ", ".join(f"{k:g}: {r:.2f}" for k, r in ratios.items()) + " in [3.5, 4.5]")
