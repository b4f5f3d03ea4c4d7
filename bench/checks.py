"""Output checks made apart from seglimit.

The checks use the benchmark's own node classification, its own evaluation
of each generated config's boundary expressions and its own 3/5-point
stencil; they import nothing from the package.  Fields are read from the
``%.17g`` CSVs the CLI writes, so they are the exact doubles the program
computed.  No check compares against a stored copy of earlier output.

Tolerances are tied to the config: ``tol_fp`` for the fixed-eps solution,
``tol_linear`` for the harmonic solves behind the limit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# the PDE residual of a fixed-eps solution, relative to |Lap u_i|, must stay
# below RESIDUAL_FACTOR * tol_fp
RESIDUAL_FACTOR = 1e4
# sup distance between an equal-weight eps-solution and its limit:
# at most LIMIT_BOUND_FACTOR * M * eps^(1/(m+1))
LIMIT_BOUND_FACTOR = 2.0

_FUNCS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "abs": abs, "pi": math.pi}


class CheckFailed(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def require(cond, check: str, message: str) -> None:
    if not cond:
        raise CheckFailed(check, message)


def _compile(expr: str):
    return compile(expr.strip().replace("^", "**"), "<expr>", "eval")


def _eval(code, **env) -> float:
    return float(eval(code, {"__builtins__": {}}, {**_FUNCS, **env}))  # noqa: S307 - own configs


class Lattice:
    """Node classes (I/B/E), coordinates and boundary parameters of a
    config's grid, built from the config alone."""

    def __init__(self, spec):
        n = spec.n
        if spec.kind == "interval":
            a, b = spec.domain_value("bounds")
            h = (b - a) / (n - 1)
            self.spacing = (h,)
            self.coords = (a + h * np.arange(n),)
            self.cls = np.full(n, "I")
            self.cls[[0, -1]] = "B"
            self.bnodes = [((0,), {"x": a}, ("end", "left")),
                           ((n - 1,), {"x": b}, ("end", "right"))]
            return
        if spec.kind == "rectangle":
            ax, bx, ay, by = spec.domain_value("bounds")
            origin, span = (ax, ay), (bx - ax, by - ay)
        elif spec.kind == "disk":
            (cx, cy), r = spec.domain_value("center"), spec.domain_value("radius")[0]
            origin, span = (cx - r, cy - r), (2 * r, 2 * r)
        else:
            raise ValueError(f"unknown domain kind {spec.kind!r}")
        hx, hy = span[0] / (n - 1), span[1] / (n - 1)
        self.spacing = (hx, hy)
        x = origin[0] + hx * np.arange(n)
        y = origin[1] + hy * np.arange(n)
        X, Y = np.meshgrid(x, y)
        self.coords = (X, Y)
        self.bnodes = []
        if spec.kind == "rectangle":
            self.cls = np.full((n, n), "I")
            self.cls[[0, -1], :] = "B"
            self.cls[:, [0, -1]] = "B"
            # corner ownership: bottom owns both of its corners, right the
            # top-right one, top the top-left one
            for iy, ix in zip(*np.nonzero(self.cls == "B")):
                if iy == 0:
                    side, pt = "bottom", (x[ix], ay)
                elif ix == n - 1:
                    side, pt = "right", (bx, y[iy])
                elif iy == n - 1:
                    side, pt = "top", (x[ix], by)
                else:
                    side, pt = "left", (ax, y[iy])
                self.bnodes.append(((iy, ix), {"x": pt[0], "y": pt[1]}, ("side", side)))
        else:
            inside = (X - cx) ** 2 + (Y - cy) ** 2 < r**2
            ring = np.zeros_like(inside)
            ring[1:, :] |= inside[:-1, :]
            ring[:-1, :] |= inside[1:, :]
            ring[:, 1:] |= inside[:, :-1]
            ring[:, :-1] |= inside[:, 1:]
            ring &= ~inside
            self.cls = np.where(inside, "I", np.where(ring, "B", "E"))
            # boundary values are read at the radial projection onto the circle
            for iy, ix in zip(*np.nonzero(ring)):
                theta = math.atan2(Y[iy, ix] - cy, X[iy, ix] - cx) % (2 * math.pi)
                env = {"x": cx + r * math.cos(theta), "y": cy + r * math.sin(theta), "theta": theta}
                self.bnodes.append(((iy, ix), env, ("theta", theta)))

    @property
    def shape(self):
        return self.cls.shape

    @property
    def interior(self):
        return self.cls == "I"

    def op_norm(self) -> float:
        """Infinity norm of the negative discrete Laplacian on interior rows."""
        return 2.0 * sum(2.0 / h**2 for h in self.spacing)


def _selector(sel: str):
    """Predicate on a boundary node's parameter for one piece selector."""
    if sel == "all":
        return lambda param: True
    if sel.startswith("end="):
        return lambda param: param == ("end", sel[4:].strip())
    if sel.startswith("side="):
        return lambda param: param == ("side", sel[5:].strip())
    if sel.startswith("theta in"):
        lo_s, _, hi_s = sel[len("theta in"):].strip()[1:-1].partition(",")
        lo, hi = _eval(_compile(lo_s)), _eval(_compile(hi_s))

        def in_range(param):
            if param[0] != "theta":
                return False
            t = param[1] % (2 * math.pi)
            if hi <= 2 * math.pi:
                return lo <= t < hi
            return t >= lo or t < hi - 2 * math.pi  # wraps past 2*pi

        return in_range
    raise ValueError(f"unknown selector {sel!r}")


def boundary_data(spec, lat: Lattice) -> np.ndarray:
    """(m, *shape) array: each component's boundary expression at boundary
    nodes (first matching piece wins, 0 where none does), 0 elsewhere."""
    out = np.zeros((spec.m,) + lat.shape)
    for i, comp in enumerate(spec.pieces):
        pieces = [(_selector(sel), _compile(expr)) for sel, expr in comp]
        for idx, env, param in lat.bnodes:
            for matches, code in pieces:
                if matches(param):
                    out[(i,) + idx] = _eval(code, **env)
                    break
    return out


def laplacian(u: np.ndarray, lat: Lattice) -> np.ndarray:
    """Centered 3/5-point Laplacian at interior nodes, 0 elsewhere."""
    out = np.zeros_like(u)
    if u.ndim == 1:
        (h,) = lat.spacing
        out[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
    else:
        hx, hy = lat.spacing
        c = u[1:-1, 1:-1]
        out[1:-1, 1:-1] = ((u[1:-1, :-2] - 2.0 * c + u[1:-1, 2:]) / hx**2
                           + (u[:-2, 1:-1] - 2.0 * c + u[2:, 1:-1]) / hy**2)
    out[~lat.interior] = 0.0
    return out


def _amax(a) -> float:
    return float(np.abs(a).max(initial=0.0))


# ---------------------------------------------------------------------------
# reading outputs


def read_fields(path: Path, lat: Lattice, m: int) -> np.ndarray:
    """(m, *shape) field values from a CSV with x[,y],u1..um columns."""
    nd = len(lat.shape)
    require(path.exists(), "files", f"missing {path.name}")
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    cols = ["x", "y"][:nd] + [f"u{i + 1}" for i in range(m)]
    require(header == cols, "format", f"{path.name} header {header} != {cols}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape == (lat.cls.size, nd + m), "format",
            f"{path.name} has shape {data.shape}, expected {(lat.cls.size, nd + m)}")
    for k in range(nd):
        require(np.allclose(data[:, k], lat.coords[k].ravel(), rtol=0, atol=1e-12),
                "format", f"{path.name} column {cols[k]} does not match the grid")
    return np.ascontiguousarray(data[:, nd:].T).reshape((m,) + lat.shape)


def read_manifest(out: Path) -> dict:
    path = out / "manifest.json"
    require(path.exists(), "files", "missing manifest.json")
    manifest = json.loads(path.read_text())
    for name in manifest.get("files", []):
        require((out / name).exists(), "files", f"manifest lists missing {name}")
    return manifest


def limit_file(manifest: dict) -> str:
    """The limit field file the manifest lists, whatever its label."""
    names = [f for f in manifest["files"] if f.endswith("_fields.csv") and f != "solve_fields.csv"]
    require(len(names) == 1, "files", f"expected one limit field file, got {names}")
    return names[0]


def read_pairs(path: Path) -> dict[tuple[int, int], int]:
    """Interface edge count per pair from interfaces.csv."""
    counts: dict[tuple[int, int], int] = {}
    with path.open() as fh:
        next(fh)
        for line in fh:
            if line.startswith("#"):
                continue
            i, j = (int(v) for v in line.split(",", 2)[:2])
            counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks each operation's outputs against the generated configs.

    ``limits`` keeps the pivot-1 limit fields a ``limit`` call emitted, for
    the pivot and Laplacian-measure checks of later calls in the round.
    """

    def __init__(self, specs: dict):
        self.specs = specs
        self.grids = {name: Lattice(s) for name, s in specs.items()}
        self.phi = {name: boundary_data(s, self.grids[name]) for name, s in specs.items()}
        self.limits: dict[str, np.ndarray] = {}

    def check(self, op, out: Path, rc: int) -> None:
        require(rc == 0, "exit", f"exit code {rc}")
        manifest = read_manifest(out)
        require(manifest.get("subcommand") == op.sub, "files", "manifest names another subcommand")
        if op.sub != "rate":
            self._check_grid_file(op.config, out)
        getattr(self, f"_check_{op.sub}")(op, out, manifest)

    # -- shared pieces

    def _ctx(self, config):
        spec, lat, phi = self.specs[config], self.grids[config], self.phi[config]
        return spec, lat, phi, float(phi.max())

    def _check_grid_file(self, config: str, out: Path) -> None:
        lat = self.grids[config]
        rows = (out / "grid.txt").read_text().splitlines()[1:]
        mask = np.array([list(r) for r in rows]).reshape(lat.shape)
        require(np.array_equal(mask, lat.cls), "grid", "grid.txt node classes differ from the config's grid")

    def _check_admissible(self, config: str, u: np.ndarray, what: str) -> None:
        """Nonnegative, 0 outside the domain, equal to the data on the boundary."""
        _, lat, phi, M = self._ctx(config)
        require(u.min() >= 0.0, "nonnegative", f"{what}: min {u.min():.3e} < 0")
        require(not u[:, lat.cls == "E"].any(), "exterior", f"{what}: nonzero outside the domain")
        bnd = lat.cls == "B"
        err = _amax(u[:, bnd] - phi[:, bnd])
        require(err <= 1e-12 * M, "boundary", f"{what}: boundary data off by {err:.3e}")

    def _check_eps_solution(self, config: str, u: np.ndarray) -> None:
        spec, lat, _, _ = self._ctx(config)
        self._check_admissible(config, u, "solve_fields")
        interior = lat.interior
        laps = [laplacian(ui, lat) for ui in u]
        scale = max(_amax(lap[interior]) for lap in laps)
        prod = np.prod([np.power(ui, a) for ui, a in zip(u, spec.alpha)], axis=0)
        bound = RESIDUAL_FACTOR * spec.tol_fp
        for i, lap in enumerate(laps):
            res = _amax((lap - (spec.A[i] / spec.epsilon) * prod)[interior]) / scale
            require(res <= bound, "pde-residual", f"u{i + 1}: relative residual {res:.3e} > {bound:.1e}")
        if len(set(spec.A)) == 1 and set(spec.alpha) == {1.0}:
            for j in range(1, spec.m):
                res = _amax((laps[0] - laps[j])[interior]) / scale
                require(res <= bound, "difference-harmonic",
                        f"Lap(u1 - u{j + 1}) relative {res:.3e} > {bound:.1e}")

    def _check_limit_fields(self, config: str, u: np.ndarray, pivot: int) -> None:
        spec, lat, _, M = self._ctx(config)
        self._check_admissible(config, u, "limit fields")
        require(not np.prod(u, axis=0).any(), "product", "limit fields have a nonzero nodal product")
        if len(set(spec.A)) > 1:
            return  # with unequal weights u_p - u_j need not be harmonic
        bound = 10.0 * spec.tol_linear * lat.op_norm() * M
        for j in range(spec.m):
            if j + 1 != pivot:
                res = _amax(laplacian(u[pivot - 1] - u[j], lat)[lat.interior])
                require(res <= bound, "difference-harmonic",
                        f"Lap(u{pivot} - u{j + 1}) = {res:.3e} > {bound:.3e}")

    def _check_interfaces_file(self, config: str, out: Path) -> dict:
        m = self.specs[config].m
        pairs = read_pairs(out / "interfaces.csv")
        require(all(1 <= i < j <= m for i, j in pairs), "interfaces", f"bad pairs {sorted(pairs)}")
        if self.specs[config].source == "disk_m3":
            require(set(pairs) == {(1, 2), (1, 3), (2, 3)}, "interfaces",
                    f"disk_m3 needs all three interface pairs, got {sorted(pairs)}")
        return pairs

    # -- per subcommand

    def _check_validate(self, op, out: Path, manifest: dict) -> None:
        report = (out / "report.txt").read_text()
        require("segregation violations: 0\n" in report and "coupling violations: 0\n" in report,
                "validate", "report.txt lists assumption violations")
        require(manifest.get("valid") is True, "validate", "manifest does not mark the config valid")

    def _check_solve(self, op, out: Path, manifest: dict) -> None:
        spec = self.specs[op.config]
        self._check_eps_solution(op.config, read_fields(out / "solve_fields.csv", self.grids[op.config], spec.m))

    def _check_limit(self, op, out: Path, manifest: dict) -> None:
        spec, lat, _, M = self._ctx(op.config)
        pivot = int(op.args[1]) if op.args[:1] == ("--pivot",) else 1
        u = read_fields(out / limit_file(manifest), lat, spec.m)
        self._check_limit_fields(op.config, u, pivot)
        self._check_interfaces_file(op.config, out)
        if pivot == 1:
            self.limits[op.config] = u
        else:
            ref = self.limits.get(op.config)
            require(ref is not None, "pivot", "no pivot-1 limit in this round to compare with")
            gap, bound = _amax(u - ref), 10.0 * spec.tol_linear * M
            require(gap <= bound, "pivot", f"pivot 1 and {pivot} differ by {gap:.3e} > {bound:.3e}")

    def _check_compare(self, op, out: Path, manifest: dict) -> None:
        spec, lat, phi, M = self._ctx(op.config)
        u = read_fields(out / "solve_fields.csv", lat, spec.m)
        lim = read_fields(out / limit_file(manifest), lat, spec.m)
        self._check_eps_solution(op.config, u)
        self._check_limit_fields(op.config, lim, 1)
        if spec.source == "line_m2":
            x0, x1 = spec.domain_value("bounds")
            a, b = phi[0][0], phi[1][-1]
            w = a - (a + b) * (lat.coords[0] - x0) / (x1 - x0)
            exact = np.stack([np.maximum(w, 0.0), np.maximum(-w, 0.0)])
            err, bound = _amax(lim - exact), 10.0 * spec.tol_linear * M
            require(err <= bound, "closed-form", f"line_m2 limit off the closed form by {err:.3e} > {bound:.1e}")
        # distance.csv must equal the distances recomputed from the two field files
        rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1, ndmin=2)
        require(rows.shape == (spec.m, 3), "distance", f"distance.csv has shape {rows.shape}")
        inside = lat.cls != "E"
        p = spec.m + 1
        vol = float(np.prod(lat.spacing))
        for i in range(spec.m):
            d = np.abs(u[i] - lim[i])[inside]
            lmp1 = (vol * float((d**p).sum())) ** (1.0 / p)
            sup = float(d.max(initial=0.0))
            require(math.isclose(rows[i, 1], lmp1, rel_tol=1e-9, abs_tol=1e-300)
                    and math.isclose(rows[i, 2], sup, rel_tol=1e-12, abs_tol=1e-300),
                    "distance", f"u{i + 1}: distance.csv ({rows[i, 1]:.6e}, {rows[i, 2]:.6e}) "
                    f"!= recomputed ({lmp1:.6e}, {sup:.6e})")
        # the emitted limit must lie within the equal-weight bound of the eps-solution
        bound = LIMIT_BOUND_FACTOR * M * spec.epsilon ** (1.0 / (spec.m + 1))
        sup = _amax(u - lim)
        require(sup <= bound, "limit-bound", f"sup distance to the emitted limit {sup:.3e} > {bound:.3e}")

    def _check_rate(self, op, out: Path, manifest: dict) -> None:
        spec = self.specs[op.config]
        lines = (out / "rate.csv").read_text().splitlines()
        require(lines[0] == "epsilon,comp,lmp1_dist,sup_dist", "format", "rate.csv header")
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        require(all(r[2] != "failed" for r in rows), "rate", "an eps solve failed")
        table = np.array(rows, dtype=float)
        eps = np.unique(table[:, 0])[::-1]
        require(eps.size >= 2 and table.shape[0] == eps.size * spec.m, "rate", "incomplete rate table")
        for i in range(1, spec.m + 1):
            sel = table[table[:, 1] == i]
            sel = sel[np.argsort(-sel[:, 0])]
            require(np.all(np.diff(sel[:, 2]) < 0) and np.all(np.diff(sel[:, 3]) < 0), "rate",
                    f"u{i}: distances do not decrease with eps")
        slope_line = [ln for ln in lines if ln.startswith("# slope=")]
        require(slope_line, "rate", "no slope line")
        slope = float(slope_line[0].split()[1].split("=")[1])
        floor = 1.0 / (spec.m + 1) - 0.1
        require(slope >= floor, "rate", f"slope {slope:.4f} < {floor:.4f}")

    def _check_interfaces(self, op, out: Path, manifest: dict) -> None:
        spec, lat, _, M = self._ctx(op.config)
        pairs = self._check_interfaces_file(op.config, out)
        ref = self.limits.get(op.config)
        require(ref is not None, "measure", "no pivot-1 limit in this round to compare with")
        meas = read_fields(out / "laplacian_measure.csv", lat, spec.m)
        expect = np.stack([lat.spacing[0] * laplacian(ui, lat) for ui in ref])
        err, bound = _amax(meas - expect), 1e-12 * lat.spacing[0] * lat.op_norm() * M
        require(err <= bound, "measure", f"laplacian_measure.csv off h*Lap(limit) by {err:.3e} > {bound:.3e}")
        lines = (out / "jump_report.csv").read_text().splitlines()[1:]
        for ln in lines:
            i, j, edges, skipped = (int(v) for v in ln.split(",")[:4])
            require(edges + skipped == pairs.get((i, j), 0), "jump",
                    f"pair ({i},{j}): {edges}+{skipped} checked edges != {pairs.get((i, j), 0)} interface edges")
