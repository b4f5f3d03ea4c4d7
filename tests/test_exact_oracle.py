"""An exact oracle for the linear kernels and the limit's tie rule.

Every float is a dyadic rational, so ``fractions.Fraction`` solves the
stored systems exactly: the unknowns are the interior nodes, the matrix
has the diagonal ``op.diag + c`` and the off-diagonal ``-coef`` of each
stencil arm between two interior nodes, with every entry the float
``_GridOperator`` holds (or the caller's c), and the right-hand side is
the float ``op.rhs`` of the boundary values.  The elimination runs in
natural order without pivoting, which the SPD M-matrix allows.

Each solve's certified ``error_bound`` must hold the exact error
max |y - x_exact| of every column, through each kernel: tridiagonal on
intervals, the sine transform on rectangles, SuperLU's parity sectors on
disks and its red-black Schur complement on every screened 2D system.
Screened 2D systems stay near 100 unknowns, or take c from a few values,
as the denominators grow with every distinct c.
"""

from fractions import Fraction

import numpy as np
import pytest

from seglimit import DomainSpec, build_grid
from seglimit.elliptic_core import grid_operator, solve_harmonic, solve_screened
from seglimit.limit_solver import solve_limit


def exact_solve(op, c, columns: list[np.ndarray]) -> list[list[Fraction]]:
    """The exact solutions of ``(laplacian + diag(c)) x = b`` for each b in
    ``columns``, in the order of the interior unknowns; ``c`` None means
    0."""
    n = op.n_unknowns
    number = np.full(op.interior.size, -1)
    number[op.interior_flat] = np.arange(n)
    number = number.reshape(op.interior.shape)
    rows = [{i: Fraction(d)} for i, d in enumerate(op.diag.tolist())]
    if c is not None:
        for i, ci in enumerate(c.tolist()):
            rows[i][i] += Fraction(ci)
    for src, dst, coef in op._stencil:
        for p, q in zip(number[src].ravel().tolist(), number[dst].ravel().tolist()):
            if p >= 0 and q >= 0:
                rows[p][q] = -Fraction(coef)
    rhs = [[Fraction(v) for v in b.tolist()] for b in columns]
    # the pattern stays symmetric, so the rows below k with an entry in
    # column k are the columns right of k in row k
    for k in range(n):
        pivot = rows[k]
        for j in [j for j in pivot if j > k]:
            factor = rows[j].pop(k) / pivot[k]
            for col, v in pivot.items():
                if col > k:
                    rows[j][col] = rows[j].get(col, 0) - factor * v
            for b in rhs:
                b[j] -= factor * b[k]
    xs = []
    for b in rhs:
        x = [Fraction(0)] * n
        for k in reversed(range(n)):
            row = rows[k]
            x[k] = (b[k] - sum(v * x[col] for col, v in row.items() if col > k)) / row[k]
        xs.append(x)
    return xs


def exact_error(op, field, x: list[Fraction]) -> Fraction:
    y = field.values.ravel()[op.interior_flat].tolist()
    return max((abs(Fraction(a) - b) for a, b in zip(y, x)), default=Fraction(0))


def check_bounds(op, fields, stats, c, columns, kernel: str) -> None:
    """Assert each solve's kernel and certified bound against the exact
    error."""
    for f, st, x in zip(fields, stats, exact_solve(op, c, columns)):
        assert st.kernel == kernel
        err = exact_error(op, f, x)
        assert err <= Fraction(st.error_bound), (float(err), st.error_bound)


def boundary_data(g, rng, count: int) -> list[np.ndarray]:
    """``count`` full-grid arrays of random values in [0, 1) on the
    boundary nodes, 0 elsewhere."""
    return [np.where(g.boundary(), rng.random(g.mask.shape), 0.0) for _ in range(count)]


HARMONIC = {
    "tridiagonal": [
        (DomainSpec.interval(0.0, 1.0), 9),
        (DomainSpec.interval(-3.0, 5.0), 31),
        (DomainSpec.interval(0.1, 0.7), 64),
    ],
    "sine": [
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 9),
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 11),
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 9),
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), (9, 7)),
        (DomainSpec.rectangle(-1.0, 2.0, 0.5, 1.0), (11, 7)),
        (DomainSpec.rectangle(0.0, 3.0, 0.0, 1.0), (13, 8)),
    ],
    "superlu": [
        (DomainSpec.disk(0.0, 0.0, 1.0), 9),
        (DomainSpec.disk(0.0, 0.0, 1.0), 11),
        (DomainSpec.disk(0.0, 0.0, 1.0), 13),
        (DomainSpec.disk(0.3, -0.2, 1.0), 9),
        (DomainSpec.disk(2.0, 1.0, 0.5), 11),
        (DomainSpec.disk(-1.0, 3.0, 2.0), 13),
    ],
}

# (domain, n, the distinct values c takes): a single value is constant, a
# pair or more are scattered over the interior at random
SCREENED = {
    "tridiagonal": [
        (DomainSpec.interval(0.0, 1.0), 9, [1.0]),
        (DomainSpec.interval(0.0, 2.0), 17, [1e8]),
        (DomainSpec.interval(0.0, 1.0), 21, "random"),
        (DomainSpec.interval(-1.0, 1.0), 41, [0.0, 3.0, 1e8]),
    ],
    "superlu": [
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 9, [1.0]),
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0), 9, [0.5, 1e8]),
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 11, [1e-2, 1e4, 1e8]),
        (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), (11, 8), "random"),
        (DomainSpec.disk(0.0, 0.0, 1.0), 9, [1e8]),
        (DomainSpec.disk(0.3, -0.2, 1.0), 11, [0.0, 1e8]),
        (DomainSpec.disk(0.0, 0.0, 1.0), 13, [2.0, 7e7]),
    ],
}


def params(table: dict) -> list:
    """One pytest parameter per case of ``table``, named by its kernel, its
    domain kind and its place in the kernel's list."""
    return [pytest.param(kernel, *case, id=f"{kernel}-{case[0].kind}-{k}")
            for kernel, cases in table.items() for k, case in enumerate(cases)]


@pytest.mark.parametrize("kernel,spec,n", params(HARMONIC))
def test_harmonic_bounds_hold_the_exact_error(kernel, spec, n):
    g = build_grid(spec, n)
    op = grid_operator(g)
    data = boundary_data(g, np.random.default_rng(n if isinstance(n, int) else sum(n)), 2)
    fields, stats = solve_harmonic(g, data)
    check_bounds(op, fields, stats, None, [op.rhs(b.ravel()) for b in data], kernel)


@pytest.mark.parametrize("kernel,spec,n,c_values", params(SCREENED))
def test_screened_bounds_hold_the_exact_error(kernel, spec, n, c_values):
    g = build_grid(spec, n)
    op = grid_operator(g)
    rng = np.random.default_rng(op.n_unknowns)
    (bvals,) = boundary_data(g, rng, 1)
    if c_values == "random":
        c_int = 10.0 ** rng.uniform(-2, 8, op.n_unknowns)
    else:
        c_int = rng.choice(np.array(c_values), op.n_unknowns)
    c = np.zeros(g.mask.size)
    c[op.interior_flat] = c_int
    f, st = solve_screened(g, c.reshape(g.mask.shape), bvals)
    check_bounds(op, [f], [st], c_int, [op.rhs(bvals.ravel())], kernel)


@pytest.mark.parametrize("name,n", [("line_m2", 21), ("disk_m3", 11)])
def test_tie_rule_zeroes_exactly_the_exact_zeros(configs, name, n):
    """At every pivot: each interior node where the limit's u_j is 0 has an
    exact gap V - W_j within its window, and each node where the exact gap
    is 0 has u_j = 0; W_j are the exact solutions of the limit's stored
    systems and V = max(0, max_k W_k)."""
    cfg = configs[name]
    g = build_grid(cfg.domain, n)
    op = grid_operator(g)
    A = cfg.data.weights.values
    scaled = [arr / a for arr, a in zip(cfg.data.boundary_arrays(g), A)]
    for pivot in range(1, cfg.data.m + 1):
        L = solve_limit(g, cfg.data, pivot)
        columns = [scaled[pivot - 1] - s for j, s in enumerate(scaled, 1) if j != pivot]
        W = exact_solve(op, None, [op.rhs(b.ravel()) for b in columns])
        W.insert(pivot - 1, [Fraction(0)] * op.n_unknowns)
        V = [max(0, *w) for w in zip(*W)]
        for f, w, window in zip(L.fields, W, L.tie_windows):
            u = f.values.ravel()[op.interior_flat]
            gaps = [v - wj for v, wj in zip(V, w)]
            assert all(gap <= Fraction(window) for gap, uj in zip(gaps, u) if uj == 0)
            assert all(uj == 0 for gap, uj in zip(gaps, u) if gap == 0)
            assert any(gap == 0 for gap in gaps)
