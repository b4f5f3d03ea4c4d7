"""Boundary data, coupling weights, and exponents.

Boundary data are piecewise closed-form expressions in the boundary
parameter (theta on disks, x/y on rectangle sides, constants on interval
endpoints).  The expression grammar is deliberately small: arithmetic on
``x``, ``y``, ``theta`` and ``pi`` with ``sin``, ``cos``, ``abs``,
``sqrt`` and powers (``^`` is accepted as a synonym for ``**``).

Validation covers the two structural assumptions on the data: the partial
segregation of the boundary values (their product vanishes on the whole
boundary) and the coupling-weight inequalities 0 < A_i <= sum_{j!=i} A_j.
"""

from __future__ import annotations

import ast
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import RECT_SIDES, BoundaryPoint, Grid, boundary_points

_TWO_PI = 2 * math.pi

_FUNCS = {"sin": math.sin, "cos": math.cos, "abs": abs, "sqrt": math.sqrt}
_CONSTS = {"pi": math.pi}
_VARS = ("x", "y", "theta")

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _check_expr_node(node: ast.AST, text: str) -> None:
    if isinstance(node, ast.Expression):
        _check_expr_node(node.body, text)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _check_expr_node(node.left, text)
        _check_expr_node(node.right, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _check_expr_node(node.operand, text)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS) or node.keywords:
            raise ConfigError(f"unsupported function call in expression {text!r}")
        if len(node.args) != 1:
            raise ConfigError(f"functions take one argument in expression {text!r}")
        _check_expr_node(node.args[0], text)
    elif isinstance(node, ast.Name):
        if node.id not in _VARS and node.id not in _CONSTS:
            raise ConfigError(f"unknown name {node.id!r} in expression {text!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric constant in expression {text!r}")
    else:
        raise ConfigError(f"unsupported syntax in expression {text!r}")


def compile_expression(text: str):
    """Compile an expression from the boundary-data grammar to a callable
    taking keyword variables (x, y, theta)."""
    source = text.replace("^", "**").strip()
    if not source:
        raise ConfigError("empty expression")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from None
    _check_expr_node(tree, text)
    # every number is a float, so a power that leaves the float range
    # raises OverflowError instead of building an unbounded integer
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            node.value = float(node.value)
    code = compile(tree, "<boundary-expr>", "eval")

    def evaluate(**env) -> float:
        scope = dict(_FUNCS)
        scope.update(_CONSTS)
        scope.update(env)
        try:
            return float(eval(code, {"__builtins__": {}}, scope))  # noqa: S307 - ast-whitelisted
        except Exception as exc:
            # the message is the last argument; an OverflowError puts an
            # errno before it
            msg = exc.args[-1] if exc.args else exc
            raise ConfigError(f"failed to evaluate {text!r}: {msg}") from None

    return evaluate


# ---------------------------------------------------------------------------
# piece selectors
#
# Each selector belongs to one domain kind (``kind``; None for ``all``) and
# ``matches`` the boundary parameter of that kind only (see
# ``BoundaryPoint.param``): a parameter of another kind never matches.


@dataclass(frozen=True)
class ThetaRange:
    """Half-open angular range [lo, hi); hi may exceed 2*pi to wrap."""

    lo: float
    hi: float
    kind = "disk"

    def matches(self, param) -> bool:
        if not isinstance(param, float):
            return False
        t = param % _TWO_PI
        if self.hi <= _TWO_PI:
            return self.lo <= t < self.hi
        return t >= self.lo or t < self.hi - _TWO_PI


@dataclass(frozen=True)
class SideSelector:
    side: str
    kind = "rectangle"

    def matches(self, param) -> bool:
        return isinstance(param, tuple) and param[0] == self.side


@dataclass(frozen=True)
class EndSelector:
    end: str
    kind = "interval"

    def matches(self, param) -> bool:
        return param == self.end


@dataclass(frozen=True)
class AllSelector:
    kind = None

    def matches(self, param) -> bool:
        return True


def parse_selector(text: str):
    text = text.strip()
    if text == "all":
        return AllSelector()
    if text.startswith("side="):
        side = text[5:].strip()
        if side not in RECT_SIDES:
            raise ConfigError(f"unknown side {side!r} (expected one of {RECT_SIDES})")
        return SideSelector(side)
    if text.startswith("end="):
        end = text[4:].strip()
        if end not in ("left", "right"):
            raise ConfigError(f"unknown endpoint {end!r} (expected left or right)")
        return EndSelector(end)
    if text.startswith("theta in"):
        rng = text[len("theta in"):].strip()
        if not (rng.startswith("[") and rng.endswith(")")):
            raise ConfigError(f"theta range must be half-open [lo, hi): {text!r}")
        lo_s, _, hi_s = rng[1:-1].partition(",")
        if not _:
            raise ConfigError(f"theta range needs two bounds: {text!r}")
        lo = compile_expression(lo_s)()
        hi = compile_expression(hi_s)()
        if not (0 <= lo < _TWO_PI and lo < hi <= 2 * _TWO_PI):
            raise ConfigError(f"theta range out of order: {text!r}")
        return ThetaRange(lo, hi)
    raise ConfigError(f"cannot parse piece selector {text!r}")


@dataclass(frozen=True)
class Piece:
    selector: object
    expr_text: str
    expr: object = field(compare=False)

    @staticmethod
    def parse(text: str) -> "Piece":
        sel_s, sep, expr_s = text.partition(":")
        if not sep:
            raise ConfigError(f"piece needs the form '<selector>: <expr>': {text!r}")
        expr_s = expr_s.strip()
        return Piece(parse_selector(sel_s), expr_s, compile_expression(expr_s))


@dataclass(frozen=True)
class BoundaryDatum:
    """Piecewise boundary values for one component; 0 outside all pieces."""

    component: int
    pieces: tuple[Piece, ...]

    def piece_for(self, p: BoundaryPoint) -> Piece | None:
        """First piece whose selector matches; None means the default 0."""
        return next((piece for piece in self.pieces if piece.selector.matches(p.param)), None)


def eval_boundary(d: BoundaryDatum, p: BoundaryPoint) -> float:
    """Evaluate a boundary datum at a boundary point.

    Negative values are a configuration error, never clamped.
    """
    piece = d.piece_for(p)
    if piece is None:
        return 0.0
    env = {"x": p.coord[0]}
    if len(p.coord) > 1:
        env["y"] = p.coord[1]
    if isinstance(p.param, float):
        env["theta"] = p.param
    value = piece.expr(**env)
    if not math.isfinite(value):
        raise ConfigError(f"boundary expression {piece.expr_text!r} is not finite at {p.coord}")
    if value < 0:
        raise ConfigError(
            f"boundary datum {d.component} is negative ({value:g}) at {p.coord}; "
            "boundary data must be nonnegative"
        )
    return value


def boundary_value_array(d: BoundaryDatum, g: Grid) -> np.ndarray:
    """Full-grid array with the datum evaluated at boundary nodes, 0 elsewhere."""
    out = np.zeros(g.mask.shape)
    for p in boundary_points(g):
        # array axes run (y, x) in 2D, the reverse of the node index
        out[p.index[::-1]] = eval_boundary(d, p)
    return out


@dataclass(frozen=True)
class Exponents:
    """Reaction exponents alpha_i, one per component, each >= 1."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        for i, a in enumerate(self.alphas, start=1):
            if not a >= 1:
                raise ConfigError(f"alpha_{i} = {a} violates alpha_i >= 1")


@dataclass(frozen=True, eq=False)
class CouplingWeights:
    """Constant per-component weights A_i, one number each: ``values`` has
    shape (m,).  The difference identity behind the limit and the Newton
    solve needs constant weights, so any other shape is a ``ConfigError``."""

    values: np.ndarray

    def __post_init__(self):
        if np.ndim(self.values) != 1:
            raise ConfigError(
                f"coupling weights need shape (m,), got {np.shape(self.values)}"
            )

    @property
    def m(self) -> int:
        return self.values.shape[0]


def validate_coupling(w: CouplingWeights) -> list[dict]:
    """One entry per weight violating 0 < A_i or A_i <= sum_{j != i} A_j."""
    report: list[dict] = []
    # dominance in units of 2^e, with e the binary exponent of the largest
    # weight, so that the sum cannot overflow; the scaling is exact
    e = math.frexp(float(np.abs(w.values).max()))[1]
    scaled = np.ldexp(w.values, -e)
    total = scaled.sum()
    for i, (a, s) in enumerate(zip(w.values, scaled)):
        if not a > 0:
            report.append({"component": i + 1, "kind": "positivity", "value": float(a)})
        if s > total - s:
            report.append({"component": i + 1, "kind": "dominance", "value": float(a)})
    return report


def validate_scale(w: CouplingWeights, M: float, g: Grid) -> list[dict]:
    """One entry per positive weight A_i for which (M / A_i) 4 sum_k 1/h_k^2
    is not a finite float, with M the largest boundary value: the limit
    divides the data by the weights (``limit_solver.harmonic_differences``)
    and the grid Laplacian, whose row sums are at most 4 sum_k 1/h_k^2 in
    magnitude, multiplies the quotient."""
    norm = 4 * sum(1 / float(h) ** 2 for h in g.spacing)
    return [{"component": i, "value": a} for i, a in enumerate(w.values.tolist(), start=1)
            if a > 0 and not math.isfinite(M / a * norm)]


def _segregation_report(arrays, g: Grid) -> list[tuple[BoundaryPoint, float]]:
    """Boundary nodes where the relative product prod_k(u_k / M) of the
    boundary data exceeds 1e-12, with M the largest boundary value (a
    scale-aware zero test), each with its relative product; empty when the
    partial segregation assumption holds on the discrete boundary."""
    if len(arrays) < 2:
        raise ConfigError("partial segregation needs at least 2 components")
    pts = boundary_points(g)
    # array axes run (y, x) in 2D, the reverse of the node index
    at = tuple(np.array(axis, dtype=np.intp) for axis in zip(*(p.index[::-1] for p in pts)))
    values = np.array([arr[at] for arr in arrays])
    M = float(values.max(initial=0.0))
    if M == 0:
        return []
    # each ratio is at most 1, so the product cannot overflow, and a
    # flagged one is above 1e-12, so it is not 0
    relative = (values / M).prod(axis=0)
    return [(pts[k], float(relative[k])) for k in np.nonzero(relative > 1e-12)[0]]


@dataclass(frozen=True)
class ProblemData:
    """Validated problem data bundle: boundary data, weights, exponents."""

    boundary: tuple[BoundaryDatum, ...]
    weights: CouplingWeights
    exponents: Exponents
    # the boundary arrays per grid, evaluated on first use
    _arrays: "weakref.WeakKeyDictionary[Grid, tuple[np.ndarray, ...]]" = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )

    @property
    def m(self) -> int:
        return len(self.boundary)

    def __post_init__(self):
        if not (self.m == self.weights.m == len(self.exponents.alphas)):
            raise ConfigError(
                f"component count mismatch: {self.m} boundary data, "
                f"{self.weights.m} weights, {len(self.exponents.alphas)} exponents"
            )

    def boundary_arrays(self, g: Grid) -> list[np.ndarray]:
        """One full-grid array per datum (``boundary_value_array``), read-only;
        each grid's are evaluated once."""
        arrays = self._arrays.get(g)
        if arrays is None:
            arrays = tuple(boundary_value_array(d, g) for d in self.boundary)
            for arr in arrays:
                arr.flags.writeable = False
            self._arrays[g] = arrays
        return list(arrays)

    def max_boundary_value(self, g: Grid) -> float:
        b = g.boundary()
        return max(float(arr[b].max(initial=0.0)) for arr in self.boundary_arrays(g))

    def validate(self, g: Grid) -> dict:
        """Run both assumption checks and the scale check of the weights;
        empty lists mean valid."""
        return {
            "segregation": _segregation_report(self.boundary_arrays(g), g),
            "coupling": validate_coupling(self.weights),
            "scale": validate_scale(self.weights, self.max_boundary_value(g), g),
        }
