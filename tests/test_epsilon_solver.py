"""Fixed-point iteration for the coupled system at positive epsilon."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seglimit import (
    BoundaryDatum,
    CouplingWeights,
    DomainSpec,
    Exponents,
    Piece,
    ProblemData,
    ScalarField,
    apply_laplacian,
    build_grid,
    solve_epsilon,
    solve_harmonic,
    solve_screened,
)
from seglimit import elliptic_core, epsilon_solver
from seglimit.elliptic_core import DEFAULT_TOL
from seglimit.epsilon_solver import (
    _reaction,
    initialize,
    sweep,
)
from seglimit.errors import SolverError
from seglimit.limit_solver import recover, solve_limit
from helpers import segregation_residual


def make_data(pieces_per_comp, A=None, alphas=None):
    m = len(pieces_per_comp)
    boundary = tuple(
        BoundaryDatum(i + 1, tuple(Piece.parse(p) for p in pieces))
        for i, pieces in enumerate(pieces_per_comp)
    )
    weights = CouplingWeights(np.array(A if A is not None else [1.0] * m))
    exps = Exponents(tuple(alphas if alphas is not None else [1.0] * m))
    return ProblemData(boundary, weights, exps)


M2 = make_data([["end=left: 1"], ["end=right: 1"]])
M3 = make_data([["end=left: 1"], ["end=right: 1"], ["all: 0.5"]])
ZERO2 = make_data([["all: 0"], ["all: 0"]])


@pytest.fixture(scope="module")
def g401():
    return build_grid(DomainSpec.interval(0.0, 1.0), 401)


@pytest.fixture(scope="module")
def g101():
    return build_grid(DomainSpec.interval(0.0, 1.0), 101)


def test_initialize_zero_data(g101):
    s = initialize(g101, ZERO2)
    for f in s:
        assert np.all(f.values == 0.0)


def test_initialize_harmonic_extensions(g101):
    # both components pinned to 1 at one endpoint: linear extensions
    data = make_data([["end=left: 1"], ["end=right: 1"]])
    s = initialize(g101, data)
    x = g101.axis_coords(0)
    assert np.allclose(s[0].values, 1.0 - x, atol=1e-12)
    assert np.allclose(s[1].values, x, atol=1e-12)


def test_sweep_vanishing_component_restores_harmonic(g101):
    data = make_data([["end=left: 1"], ["all: 0"], ["end=right: 1"]])
    s = initialize(g101, data)
    s2 = sweep(s, 1e-3, data)
    # u_2 harmonic extension of 0 is 0; its factor kills every coupling
    x = g101.axis_coords(0)
    assert np.allclose(s2[0].values, 1.0 - x, atol=1e-10)
    assert np.all(s2[1].values == 0.0)
    assert np.allclose(s2[2].values, x, atol=1e-10)


def test_sweep_huge_epsilon_identity(g101):
    s = initialize(g101, M2)
    s2 = sweep(s, 1e12, M2)
    for a, b in zip(s, s2):
        assert np.allclose(a.values, b.values, atol=1e-9)


def test_sweep_coefficient_hand_assembly(g101):
    # first half-step for component 1 from U0 = (1-x, x):
    # c1 = (A1 / 2 eps) (x + x) = x / eps
    eps = 1e-2
    s = initialize(g101, M2)
    s2 = sweep(s, eps, M2)
    x = g101.axis_coords(0)
    b = np.zeros(101)
    b[0] = 1.0
    expected, _ = solve_screened(g101, x / eps, b)
    assert np.allclose(s2[0].values, expected.values, atol=1e-12)


def test_solve_zero_data_one_sweep(g101):
    r = solve_epsilon(g101, ZERO2, 1e-4)
    assert r.sweeps == 1
    for f in r.fields:
        assert np.all(f.values == 0.0)


def test_solve_zero_component_fixed_point(g101):
    data = make_data([["end=left: 1"], ["all: 0"], ["end=right: 1"]])
    r = solve_epsilon(g101, data, 1e-4)
    x = g101.axis_coords(0)
    assert np.all(r.fields[1].values == 0.0)
    assert np.allclose(r.fields[0].values, 1.0 - x, atol=1e-9)
    assert np.allclose(r.fields[2].values, x, atol=1e-9)


def difference_harmonicity(r) -> float:
    """Max interior |Lap(u_1 - u_{i+1})| over i: the difference identity
    for equal weights."""
    g = r.fields[0].grid
    interior = g.interior()
    return max(
        float(np.abs(apply_laplacian(ScalarField(g, r.fields[0].values - f.values))
                     .values[interior]).max(initial=0.0))
        for f in r.fields[1:]
    )


def test_solve_m2_approaches_limit(g401):
    x = g401.axis_coords(0)
    limit1 = np.maximum(1.0 - 2.0 * x, 0.0)
    errs = []
    for eps in (1e-4, 1e-6):
        r = solve_epsilon(g401, M2, eps, max_sweeps=5000)
        errs.append(np.abs(r.fields[0].values - limit1).max())
        # difference of components is discretely harmonic: equals 1 - 2x
        d = r.fields[0].values - r.fields[1].values
        assert np.allclose(d, 1.0 - 2.0 * x, atol=1e-6)
        assert difference_harmonicity(r) * g401.spacing[0] ** 2 <= 1e-6
    assert errs[1] < errs[0]
    assert errs[1] < 0.02


def test_monotone_sandwich_first_sweeps(g101):
    # the semi-implicit averaged coefficient only preserves the ordering
    # relations among the first iterates; the full interleaved chain
    # u^0 >= u^2 >= ... >= u^3 >= u^1 holds for the fully lagged variant
    # but not for this scheme (see notes on the acceptance gate)
    s = initialize(g101, M3)
    eps = 1e-4
    tol_bound = 10 * 1e-10 * 1.0
    states = [s]
    for _ in range(4):
        states.append(sweep(states[-1], eps, M3))
    for hi, lo in ((0, 1), (0, 2), (2, 1), (2, 3), (3, 1), (4, 3)):
        for fh, fl in zip(states[hi], states[lo]):
            assert (fl.values - fh.values).max() <= tol_bound


def test_even_odd_gap_nonincreasing(g101):
    s = initialize(g101, M3)
    states = [s]
    for _ in range(10):
        states.append(sweep(states[-1], 1e-4, M3))
    gaps = [
        max(
            np.abs(a.values - b.values).max()
            for a, b in zip(states[2 * k], states[2 * k + 1])
        )
        for k in range(5)
    ]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-12


def test_global_bounds_and_harmonic_envelope(g101):
    r = solve_epsilon(g101, M3, 1e-4, max_sweeps=5000)
    M = 1.0
    s0 = initialize(g101, M3)
    for i, f in enumerate(r.fields):
        assert np.all(f.values >= 0.0)
        assert np.all(f.values <= M)
        assert np.all(f.values <= s0[i].values + 1e-8)
    # lower bound: u_i - sum_{j != i} u_j >= harmonic ext of
    # phi_i - sum_{j != i} phi_j
    phi = M3.boundary_arrays(g101)
    lows, _ = solve_harmonic(
        g101, [phi[i] - sum(phi[j] for j in range(3) if j != i) for i in range(3)]
    )
    for i, H in enumerate(lows):
        hat = r.fields[i].values - sum(
            r.fields[j].values for j in range(3) if j != i
        )
        assert np.all(hat >= H.values - 1e-8)


def test_uniqueness_from_perturbed_start(g401):
    eps = 1e-4
    tol_fp = 1e-8
    r1 = solve_epsilon(g401, M2, eps, tol_fp=tol_fp, max_sweeps=5000)
    L = solve_limit(g401, M2)
    seeded = tuple(
        type(f)(g401, 0.5 * f.values + 0.5 * lf.values)
        for f, lf in zip(initialize(g401, M2), L.fields)
    )
    r2 = solve_epsilon(g401, M2, eps, tol_fp=tol_fp, max_sweeps=5000, initial=seeded)
    gap = max(
        np.abs(a.values - b.values).max() for a, b in zip(r1.fields, r2.fields)
    )
    assert gap <= 10 * tol_fp * 1.0


def test_reaction_integral_decreases(g101):
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        r = solve_epsilon(g101, M2, eps, max_sweeps=5000)
        _, integrals = segregation_residual(r.fields, M2.weights)
        if prev is not None:
            assert integrals[0] < prev
        prev = integrals[0]


def test_max_sweeps_exceeded_raises(g101):
    with pytest.raises(SolverError, match="Newton") as exc:
        solve_epsilon(g101, M2, 1e-6, max_sweeps=3)
    err = exc.value
    assert err.gap is not None and err.gap > 0
    # one update norm per Newton step; from the first step on the iterates
    # decrease monotonically, so the updates shrink
    assert len(err.history) == 3 and err.history[-1] == err.gap
    assert err.history[2] <= err.history[1]


def test_newton_stall_raises_early(configs):
    # below its rounding floor Newton's updates rise again (2.3e-13 M at
    # step 8, then 3.2e-13 and 4.3e-13 on line_m3 at eps 1e-2); two steps
    # without a new least update end the solve instead of 5000 more
    cfg = configs["line_m3"]
    with pytest.raises(SolverError, match="Newton stalled") as exc:
        solve_epsilon(cfg.grid, cfg.data, 1e-2, tol_fp=1e-15, max_sweeps=5000)
    h = exc.value.history
    assert len(h) <= 12 and exc.value.gap == h[-1]
    assert min(h[1:-2]) <= min(h[-2:])


def test_invalid_arguments(g101):
    with pytest.raises(ValueError):
        solve_epsilon(g101, M2, 0.0)
    with pytest.raises(ValueError, match="finite reciprocal"):
        solve_epsilon(g101, M2, 5e-309)
    with pytest.raises(ValueError):
        solve_epsilon(g101, M2, 1e-4, tol_fp=0.0)


def test_general_exponents_converge(g101):
    data = make_data([["end=left: 1"], ["end=right: 1"]], alphas=[2.0, 1.5])
    r = solve_epsilon(g101, data, 1e-3, max_sweeps=5000)
    assert np.all(r.fields[0].values >= 0.0)
    assert np.all(r.fields[0].values <= 1.0)
    assert r.gap <= 1e-8


def sweep_oracle(g, data, eps, max_sweeps=20000):
    """The decoupled sweep iteration from the harmonic extensions: stops
    when the sup gap of an even/odd pair of sweeps falls below 1e-11 M and
    returns the midpoint of that pair, one array per component."""
    tol = 1e-11 * data.max_boundary_value(g)
    s = initialize(g, data, DEFAULT_TOL)
    for k in range(1, max_sweeps + 1):
        prev, s = s, sweep(s, eps, data, DEFAULT_TOL)
        # an odd sweep closes an even/odd pair
        if k % 2 == 1 and max(
            np.abs(a.values - b.values).max() for a, b in zip(prev, s)
        ) <= tol:
            return [0.5 * (a.values + b.values) for a, b in zip(prev, s)]
    raise AssertionError(f"sweep oracle not converged after {max_sweeps} sweeps")


def check_against_oracle(g, data, eps):
    """Newton agrees with the sweep oracle and keeps the exact bounds:
    nonnegativity, u_i <= H(phi_i) (u_i is subharmonic) and
    u_i - sum_{j != i} u_j >= H(phi_i - sum_{j != i} phi_j) (superharmonic
    under the coupling assumption), with H the harmonic extension."""
    M = data.max_boundary_value(g)
    tol = 1e-8 * M
    r = solve_epsilon(g, data, eps)
    ref = sweep_oracle(g, data, eps)
    phi = data.boundary_arrays(g)
    m = data.m
    his, _ = solve_harmonic(g, phi)
    los, _ = solve_harmonic(
        g, [phi[i] - sum(phi[j] for j in range(m) if j != i) for i in range(m)]
    )
    for i, (hi, lo) in enumerate(zip(his, los)):
        u = r.fields[i].values
        assert np.abs(u - ref[i]).max() <= tol
        assert u.min() >= 0.0
        hat = u - sum(r.fields[j].values for j in range(m) if j != i)
        assert np.all(u <= hi.values + tol)
        assert np.all(hat >= lo.values - tol)


@st.composite
def segregated_line(draw):
    """Endpoint data on the unit interval with at least one zero datum per
    end, and weights meeting the coupling assumption."""
    m = draw(st.integers(2, 3))
    pieces = [[] for _ in range(m)]
    for end in ("left", "right"):
        zero = draw(st.integers(0, m - 1))
        for i in range(m):
            value = 0.0 if i == zero else draw(st.sampled_from([0.0, 0.3, 1.0, 1.7]))
            pieces[i].append(f"end={end}: {value!r}")
    if m == 2:
        A = [draw(st.floats(0.5, 2.0))] * 2
    else:
        A = [draw(st.floats(0.7, 1.3)) for _ in range(m)]
    return make_data(pieces, A=A)


G41 = build_grid(DomainSpec.interval(0.0, 1.0), 41)


@settings(max_examples=20, deadline=None)
@given(data=segregated_line(), eps=st.sampled_from([1e-1, 1e-2, 1e-3]))
# u_2 has zero data; a fixed clamp of 1e-14 M left it at -6.0e-15 with M = 0.3
@example(
    data=make_data([["end=left: 0.3", "end=right: 0.3"], ["end=left: 0.0", "end=right: 0.0"]],
                   A=[0.51, 0.51]),
    eps=1e-1,
)
def test_newton_matches_sweep_oracle_1d(data, eps):
    assume(data.max_boundary_value(G41) > 0)
    check_against_oracle(G41, data, eps)


@settings(max_examples=20, deadline=None)
@given(data=segregated_line(), eps=st.sampled_from([1e-1, 1e-2, 1e-3]), draw=st.data())
def test_newton_pivot_invariance(data, eps, draw):
    # Newton on the fields of a pivot-p limit and of a pivot-q limit
    # solves one system
    M = data.max_boundary_value(G41)
    assume(M > 0)
    p, q = draw.draw(st.permutations(range(1, data.m + 1)))[:2]
    rp = solve_epsilon(G41, data, eps, limit=solve_limit(G41, data, p))
    rq = solve_epsilon(G41, data, eps, limit=solve_limit(G41, data, q))
    for a, b in zip(rp.fields, rq.fields):
        assert np.abs(a.values - b.values).max() <= 1e-8 * M


@settings(max_examples=20, deadline=None)
@given(data=segregated_line(), eps=st.sampled_from([1e-1, 1e-2, 1e-3]))
def test_segregation_residual_matches_reduced_reaction(data, eps):
    # the product of the recovered components is F(v) of the reduced
    # equation, recomputed from v = u_p/A_p and the limit's harmonic w_j
    M = data.max_boundary_value(G41)
    assume(M > 0)
    L = solve_limit(G41, data)
    r = solve_epsilon(G41, data, eps, limit=L)
    A = data.weights.values
    F, _ = _reaction(r.fields[L.pivot - 1].values / A[L.pivot - 1], L.w, A, data.exponents.alphas)
    max_product, integrals = segregation_residual(r.fields, data.weights, data.exponents)
    tol = 1e-12 * (A.max() * M) ** data.m
    inside = G41.in_domain()
    assert abs(max_product - F[inside].max()) <= tol
    for a, integral in zip(A, integrals):
        assert abs(integral - G41.spacing[0] * a * F[inside].sum()) <= tol


@pytest.mark.parametrize("name,n,eps,max_steps", [
    ("square_m4", 101, 1e-4, 6),
    ("disk_m3", 101, 1e-4, 6),
    ("line_m2", None, 1e-8, 5),
])
def test_limit_start_sandwich(configs, name, n, eps, max_steps):
    # Newton starts from the subsolution v_lim <= v*; its first iterate is a
    # supersolution >= v* and the later updates shrink.  Each component
    # u_j = A_j (v - w_j) inherits the order of v.
    cfg = configs[name]
    g = build_grid(cfg.domain, n) if n else cfg.grid
    L = solve_limit(g, cfg.data)
    r = solve_epsilon(g, cfg.data, eps, limit=L)
    first = solve_epsilon(g, cfg.data, eps, tol_fp=1e300, max_sweeps=1, limit=L)
    # the cap counts factorizing steps; chord steps on a held factor are extra
    assert sum(st.factorized for st in r.linear_stats) <= max_steps
    tol = max(s.error_bound for s in L.linear_stats + r.linear_stats + first.linear_stats)
    for lim, u, u1 in zip(L.fields, r.fields, first.fields):
        assert np.all(lim.values <= u.values + tol)
        assert np.all(u.values <= u1.values + tol)
    updates = r.gap_history[1:]
    assert all(b <= a for a, b in zip(updates, updates[1:]))


@pytest.mark.parametrize("n,eps", [
    (41, 1e-16), (41, 1e-20), (41, 1e-24), (61, 1e-16), (61, 1e-20), (61, 1e-24),
    (101, 1e-20), (101, 1e-24),
])
def test_newton_keeps_above_the_limit_at_tiny_eps(configs, n, eps):
    # an iterate that rounds 1 ulp below v_lim has F = F' = 0 there, so
    # unlifted the node turns harmonic, rises, and is pinned back by the
    # next factorizing step, a 2-cycle that stalls Newton.  Lifted to
    # v_lim, the iterates keep v >= v_lim and Newton converges, each
    # component at or above the limit's within the solves' bounds
    cfg = configs["disk_m3"]
    g = build_grid(cfg.domain, n)
    L = solve_limit(g, cfg.data, tol_linear=cfg.tol_linear)
    r = solve_epsilon(g, cfg.data, eps, cfg.tol_fp, cfg.max_sweeps, cfg.tol_linear, limit=L)
    assert r.stop in ("certified", "update")
    tol = max(s.error_bound for s in L.linear_stats + r.linear_stats)
    for lim, u in zip(L.fields, r.fields):
        assert np.all(lim.values <= u.values + tol)


def test_recover_makes_zeros_positive(g101):
    # pivot 1 of M2: w_2 = 1 - 2x and v_lim = max(0, w_2).  At x = 1/2,
    # w_2 = 0.0 and v = -0.0, as np.max may leave where it meets +0.0 and
    # -0.0: both v - w_1 and v - w_2 are -0.0 there, and every returned
    # zero is +0.0
    x = g101.axis_coords(0)
    w = [np.zeros(101), 1.0 - 2.0 * x]
    assert w[1][50] == 0.0
    v = np.maximum(w[1], 0.0)
    v[50] = -0.0
    u = recover(g101, v, w, M2.weights.values, M2.boundary_arrays(g101))
    assert u[0].values[50] == u[1].values[50] == 0.0
    assert not any(np.signbit(f.values).any() for f in u)


def test_newton_matches_sweep_oracle_2d(configs):
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 21)
    data = ProblemData(
        cfg.data.boundary, CouplingWeights(np.array([1.0, 1.2, 0.9, 1.1])), cfg.data.exponents
    )
    check_against_oracle(g, data, 1e-3)


def test_newton_general_exponents_stiff(g101):
    # the sweep loop stalls here at an even/odd gap near 0.24; Newton
    # converges and the discrete equations hold to rounding
    data = make_data(
        [["end=left: 1"], ["end=right: 1"], ["all: 0.5"]], alphas=[1.0, 3.0, 1.2]
    )
    eps = 1e-5
    r = solve_epsilon(g101, data, eps)
    assert r.sweeps <= 15
    F = np.prod([np.power(f.values, a) for f, a in zip(r.fields, data.exponents.alphas)], axis=0)
    interior = g101.interior()
    laps = [apply_laplacian(f).values[interior] for f in r.fields]
    scale = max(np.abs(lap).max() for lap in laps)
    residual = max(np.abs(lap - F[interior] / eps).max() for lap in laps) / scale
    assert residual <= 1e-9


def newton_iterates(g, data, eps, L, v, steps):
    """``steps`` plain Newton steps on the reduced equation from ``v``, on
    the limit's difference fields, each with its own factorization and
    lifted to the limit's v_lim as ``solve_epsilon`` lifts its iterates:
    the iterates and their updates."""
    A = data.weights.values
    v_boundary = data.boundary_arrays(g)[L.pivot - 1] / A[L.pivot - 1]
    iterates, updates = [], []
    for _ in range(steps):
        F, dF = _reaction(v, L.w, A, data.exponents.alphas)
        nxt, _ = solve_screened(g, dF / eps, v_boundary, source=np.maximum(dF * v - F, 0.0) / eps)
        updates.append(A.max() * np.abs(nxt.values - v).max())
        v = np.maximum(nxt.values, L.scaled_pivot.values)
        iterates.append(v)
    return iterates, updates


CERTIFICATE_GRIDS = [("disk_m3", 41), ("square_m4", 41), ("line_m3", 401)]


@pytest.mark.parametrize("name,n", CERTIFICATE_GRIDS)
def test_certificate_bounds_the_error(configs, name, n):
    # at a certified stop the residual certificate bounds the fields'
    # distance to the solution, taken as 8 more Newton steps from the
    # returned iterate, which reach the rounding floor of the solves
    cfg = configs[name]
    g = build_grid(cfg.domain, n)
    L = solve_limit(g, cfg.data)
    A = cfg.data.weights.values
    interior = g.interior()
    stops = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        r = solve_epsilon(g, cfg.data, eps, limit=L)
        stops.append(r.stop)
        assert r.stop in ("certified", "update")
        assert r.gap <= 1e-8 * cfg.data.max_boundary_value(g)
        if r.stop != "certified":
            continue
        v = r.fields[L.pivot - 1].values / A[L.pivot - 1]
        iterates, updates = newton_iterates(g, cfg.data, eps, L, v, 8)
        assert max(updates[-3:]) <= 1e-13
        error = max(
            np.abs(f.values - a * (iterates[-1] - wj))[interior].max()
            for f, a, wj in zip(r.fields, A, L.w)
        )
        assert error <= r.gap
    assert "certified" in stops


@pytest.mark.parametrize("name", ["square_m4", "disk_m3"])
def test_certificate_stops_before_the_update_rule(configs, name):
    # plain Newton stopped by the update rule factorizes 6 times here; the
    # certificate, checked after every solve, stops chord-accelerated Newton
    # with fewer factorizations
    cfg = configs[name]
    g = build_grid(cfg.domain, 101)
    L = solve_limit(g, cfg.data)
    tol = 1e-8 * cfg.data.max_boundary_value(g)
    r = solve_epsilon(g, cfg.data, 1e-4, limit=L)
    _, updates = newton_iterates(g, cfg.data, 1e-4, L, L.scaled_pivot.values, 8)
    plain = next(k for k, d in enumerate(updates, start=1) if d <= tol)
    factorizations = sum(st.factorized for st in r.linear_stats)
    assert r.stop == "certified" and r.gap <= tol
    assert factorizations < plain and factorizations < r.sweeps


@pytest.mark.parametrize("name,eps", [("square_m4", 1e-4), ("disk_m3", 1e-4), ("disk_m3", 1e-8)])
def test_chord_iterates_decrease_to_the_solution(monkeypatch, configs, name, eps):
    # every iterate from the first on, chord iterates included, is at or
    # below the one before and at or above the last, within the solves'
    # certified bounds; the first factor (made at the subsolution v_lim,
    # below the iterates) takes no chord step
    cfg = configs[name]
    g = build_grid(cfg.domain, 41)
    L = solve_limit(g, cfg.data)
    iterates = []

    def recording(*args, **kwargs):
        field, st = solve_screened(*args, **kwargs)
        iterates.append(field.values)
        return field, st

    monkeypatch.setattr(epsilon_solver, "solve_screened", recording)
    r = solve_epsilon(g, cfg.data, eps, limit=L)
    made = [st.factorized for st in r.linear_stats]
    assert made[:2] == [True, True] and not all(made)
    assert all(st.kernel == "superlu" for st in r.linear_stats)
    tol = max(st.error_bound for st in r.linear_stats)
    for prev, v in zip(iterates, iterates[1:]):
        assert np.all(v <= prev + tol)
        assert np.all(v >= iterates[-1] - tol)


def test_chord_steps_run_while_they_contract(configs):
    # after a factorizing step j from the second on, with rho its update
    # over the factorizing step's before it, a chord step follows only if
    # rho < 1; each chord step but the last of a run is positive and at
    # most rho times the update before it, and a run that the stop does not
    # end hands over to a factorizing step at the chord step that is not
    handovers = 0
    for name in ("square_m4", "disk_m3"):
        cfg = configs[name]
        for n in (41, 61):
            g = build_grid(cfg.domain, n)
            L = solve_limit(g, cfg.data)
            for eps in (1e-2, 1e-4, 1e-6):
                r = solve_epsilon(g, cfg.data, eps, limit=L)
                h = r.gap_history
                made = [st.factorized for st in r.linear_stats]
                assert all(st.kernel == "superlu" for st in r.linear_stats)
                # the v_lim factor serves no chord step
                assert made[:2] == [True, True] and not all(made)
                newton = [k for k, f in enumerate(made) if f]
                for before, j, end in zip(newton, newton[1:], newton[2:] + [len(h)]):
                    rho = h[j] / h[before]
                    run = range(j + 1, end)
                    if run:
                        assert rho < 1, (name, n, eps, j)
                    elif end < len(h):
                        assert not rho < 1, (name, n, eps, j)
                    for k in run[:-1]:
                        assert 0 < h[k] <= rho * h[k - 1], (name, n, eps, k)
                    if run and end < len(h):
                        assert not 0 < h[end - 1] <= rho * h[end - 2], (name, n, eps, end)
                        handovers += 1
    assert handovers


def test_zero_chord_update_hands_over(monkeypatch, configs):
    # a chord step whose update is exactly 0 measures no contraction: the
    # next step factorizes at the current iterate
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 41)
    L = solve_limit(g, cfg.data)
    last, forced = [None], []

    def stalling(*args, **kwargs):
        field, st = solve_screened(*args, **kwargs)
        if not st.factorized and not forced:
            # the first chord step returns the iterate it started from
            forced.append(True)
            field = last[0]
        last[0] = field
        return field, st

    monkeypatch.setattr(epsilon_solver, "solve_screened", stalling)
    r = solve_epsilon(g, cfg.data, 1e-4, limit=L)
    made = [st.factorized for st in r.linear_stats]
    k = made.index(False)
    assert r.gap_history[k] == 0.0 and made[k + 1]
    assert r.stop == "certified"


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_newton_dip_below_the_limit_within_its_bound(monkeypatch, configs, scale):
    # an iterate below v_lim by at most the bounds of its solve and of v_lim
    # is rounding and lifted to v_lim; one further below raises
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 41)
    L = solve_limit(g, cfg.data)
    v_lim = L.scaled_pivot.values
    node = np.unravel_index(np.argmax(np.where(g.interior(), v_lim, 0.0)), v_lim.shape)
    slacks = []

    def dipping(*args, **kwargs):
        field, st = solve_screened(*args, **kwargs)
        if not slacks:
            slacks.append(st.error_bound + max(L.w_bound))
            values = field.values.copy()
            values[node] = v_lim[node] - scale * slacks[0]
            field = ScalarField(g, values)
        return field, st

    monkeypatch.setattr(epsilon_solver, "solve_screened", dipping)
    if scale < 1:
        assert solve_epsilon(g, cfg.data, 1e-4, limit=L).stop == "certified"
    else:
        with pytest.raises(SolverError, match="Newton step 1: the iterate lies .* below v_lim"):
            solve_epsilon(g, cfg.data, 1e-4, limit=L)
    assert slacks[0] > 0.0


def test_interval_solves_take_no_chord_step(configs):
    # a tridiagonal factor costs no more than a solve: every Newton step on
    # an interval factorizes
    for name in ("line_m2", "line_m3"):
        cfg = configs[name]
        r = solve_epsilon(cfg.grid, cfg.data, 1e-4, limit=solve_limit(cfg.grid, cfg.data))
        assert all(st.factorized and st.kernel == "tridiagonal" for st in r.linear_stats)


def test_at_most_one_superlu_factor_alive(monkeypatch, configs):
    # the held factor is freed before the next one is made and when the
    # solve returns; the limit build's harmonic batch frees each parity
    # sector's factor before the next sector's is made, and each of those
    # factors has at most a quadrant's unknowns
    live, peak, sizes = [0], [0], []
    splu = elliptic_core._splu

    # SuperLU objects take no weak references, so a proxy counts them
    class Tracked:
        def __init__(self, lu):
            self.lu = lu
            live[0] += 1
            peak[0] = max(peak[0], live[0])

        def solve(self, b):
            return self.lu.solve(b)

        def __del__(self):
            live[0] -= 1

    def tracked_splu(A):
        sizes.append(A.shape[0])
        return Tracked(splu(A))

    monkeypatch.setattr(elliptic_core, "_splu", tracked_splu)
    cfg = configs["disk_m3"]
    g = build_grid(cfg.domain, 41)
    r = solve_epsilon(g, cfg.data, 1e-4)
    assert sum(st.factorized for st in r.linear_stats) < len(r.linear_stats)
    assert peak[0] == 1 and live[0] == 0
    interior = g.interior()
    half = [2 * np.arange(n) >= n - 1 for n in interior.shape]
    quadrant = int(interior[np.ix_(*half)].sum())
    assert len(sizes) > 4 and max(sizes[:4]) == quadrant and quadrant < interior.sum() / 3
