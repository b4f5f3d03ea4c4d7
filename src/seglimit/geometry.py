"""Structured grids over intervals, rectangles, and masked disks.

Every grid is a uniform lattice on the domain's bounding box whose nodes
are classified interior, boundary, or exterior.  Intervals and rectangles
use all lattice nodes, the rim as boundary; disks are masked out of the
box: interior nodes lie strictly inside the circle, measured from the
lattice centre so that the mask is symmetric, and off the lattice rim (a
rim node that rounds to inside the circle is not interior), and
the boundary ring is the first layer of other nodes adjacent to an
interior node (staircase approximation).  So every interior node has its
whole stencil on the lattice and in the domain; ``Grid`` refuses a mask
where one has not.  Boundary values on a disk are read off the radial
projection of the boundary node onto the circle, so
``BoundaryPoint.coord`` is the projected point there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import ConfigError


class NodeClass(IntEnum):
    INTERIOR = 0
    BOUNDARY = 1
    EXTERIOR = 2


# export character of each node class, indexed by its code
_EXPORT_CHAR = np.frombuffer(b"IBE", dtype=np.uint8)

# fixed corner ownership for rectangles; see boundary_points
RECT_SIDES = ("bottom", "right", "top", "left")


@dataclass(frozen=True)
class DomainSpec:
    """Geometric domain description.

    kind/params:
      interval:  (a, b)
      rectangle: (ax, bx, ay, by)
      disk:      (cx, cy, radius)
    """

    kind: str
    params: tuple[float, ...]

    @staticmethod
    def interval(a: float, b: float) -> "DomainSpec":
        return DomainSpec("interval", (float(a), float(b)))

    @staticmethod
    def rectangle(ax: float, bx: float, ay: float, by: float) -> "DomainSpec":
        return DomainSpec("rectangle", (float(ax), float(bx), float(ay), float(by)))

    @staticmethod
    def disk(cx: float, cy: float, radius: float) -> "DomainSpec":
        return DomainSpec("disk", (float(cx), float(cy), float(radius)))


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable structured grid with node classification.

    ``mask`` holds :class:`NodeClass` codes, shape ``(nx,)`` in 1D and
    ``(ny, nx)`` (row-major in y) in 2D.  No interior node lies on the
    lattice rim or next to an exterior node, so every stencil neighbour of
    an interior node is a lattice node in the domain.
    """

    domain: DomainSpec
    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]
    mask: np.ndarray

    def __post_init__(self):
        # the nodes beyond the rim are outside the domain
        if np.any(self.interior() & _next_to(self.mask == NodeClass.EXTERIOR, beyond=True)):
            raise ValueError("interior node on the lattice rim or next to an exterior node")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def node_coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays shaped like ``mask`` (X, then Y in 2D)."""
        return tuple(np.meshgrid(*(self.axis_coords(k) for k in range(self.ndim))))

    def interior(self) -> np.ndarray:
        return self.mask == NodeClass.INTERIOR

    def boundary(self) -> np.ndarray:
        return self.mask == NodeClass.BOUNDARY

    def in_domain(self) -> np.ndarray:
        return self.mask != NodeClass.EXTERIOR

    @cached_property
    def _boundary_points(self) -> tuple["BoundaryPoint", ...]:
        return _walk_boundary(self)


def _next_to(nodes: np.ndarray, beyond: bool) -> np.ndarray:
    """The lattice nodes with a neighbour, one node away along an axis, in
    ``nodes``; the nodes beyond the lattice rim count as ``beyond``."""
    # a shift by one node along an axis brings each node's neighbour to it
    padded = np.pad(nodes, 1, constant_values=beyond)
    core = (slice(1, -1),) * nodes.ndim
    return np.logical_or.reduce(
        [np.roll(padded, s, axis)[core] for axis in range(nodes.ndim) for s in (-1, 1)]
    )


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary node together with its boundary parameterization.

    ``param`` is the angle theta in [0, 2*pi) for disks, and the selector
    text of the node's part elsewhere: ``"side=bottom"``, ``"side=right"``,
    ``"side=top"`` or ``"side=left"`` on rectangles and ``"end=left"`` or
    ``"end=right"`` on intervals.  For disks ``coord`` is the radial
    projection of the node onto the circle.
    """

    index: tuple[int, ...]
    coord: tuple[float, ...]
    param: object


def _as_axis_counts(n, ndim: int) -> tuple[int, ...]:
    if isinstance(n, (tuple, list)):
        counts = tuple(int(v) for v in n)
        if len(counts) != ndim:
            raise ConfigError(f"expected {ndim} node counts, got {len(counts)}")
    else:
        counts = (int(n),) * ndim
    for c in counts:
        if c < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got {c}")
    return counts


def build_grid(domain: DomainSpec, n) -> Grid:
    """Build a classified grid with ``n`` nodes per axis on the domain's
    bounding box."""
    p = domain.params
    if domain.kind in ("interval", "rectangle"):
        origin = p[0::2]
        extent = tuple(b - a for a, b in zip(p[0::2], p[1::2]))
    elif domain.kind == "disk":
        cx, cy, r = p
        origin, extent = (cx - r, cy - r), (2 * r, 2 * r)
    else:
        raise ConfigError(f"unknown domain kind {domain.kind!r}")
    if not all(e > 0 for e in extent):
        raise ConfigError(f"degenerate {domain.kind} {p}")
    dims = _as_axis_counts(n, len(extent))
    spacing = tuple(e / (c - 1) for e, c in zip(extent, dims))
    # the operators divide by h^2 and the disk test squares distances
    # across the box, so h^2, 1/h^2 and the squared extent (which bounds
    # h^2) must be finite positive floats
    if not (all(h * h > 0 and 1 / (h * h) < math.inf for h in spacing)
            and sum(e * e for e in extent) < math.inf):
        raise ConfigError(f"{domain.kind} spacing {spacing} is out of range: h^2, 1/h^2 or "
                          "the squared extent is not a finite positive float")
    # the node coordinates, as ``Grid.axis_coords`` gives them, must be
    # distinct floats: where |origin| / h is above 2^52 neighbours round
    # together, and at 1e300 every node would sit at one point
    axes = [o + h * np.arange(c) for o, h, c in zip(origin, spacing, dims)]
    for k, x in enumerate(axes):
        if not np.all(np.diff(x) > 0):
            raise ConfigError(f"{domain.kind} axis {k}: origin {origin[k]!r} and spacing "
                              f"{spacing[k]!r} give node coordinates that are not distinct")
    # mask axes run opposite to the grid's
    rim = _next_to(np.zeros(dims[::-1], dtype=bool), beyond=True)
    if domain.kind != "disk":
        mask = np.where(rim, NodeClass.BOUNDARY, NodeClass.INTERIOR).astype(np.int8)
        return Grid(domain, dims, spacing, origin, mask)
    # each node's offset to the lattice centre, (2i - (n - 1)) h/2: nodes i
    # and n - 1 - i get offsets of equal magnitude in floating point, so the
    # mask is invariant under both axis flips (and under the transpose when
    # hx = hy), which splits the disk's harmonic batch into four parity
    # sectors (``elliptic_core``)
    dx, dy = ((2 * np.arange(c) - (c - 1)) * (h / 2) for h, c in zip(spacing, dims))
    # a rim node can round to inside, but has no neighbour beyond the rim
    inside = (dx[None, :] ** 2 + dy[:, None] ** 2 < r**2) & ~rim
    if not inside.any():
        raise ConfigError("degenerate disk: no interior nodes at this resolution")
    mask = np.full(rim.shape, NodeClass.EXTERIOR, dtype=np.int8)
    # the boundary ring: the other nodes next to an interior node
    mask[_next_to(inside, beyond=False)] = NodeClass.BOUNDARY
    mask[inside] = NodeClass.INTERIOR
    return Grid(domain, dims, spacing, origin, mask)


def boundary_points(g: Grid) -> tuple[BoundaryPoint, ...]:
    """All boundary nodes with their parameters, in perimeter order.

    Intervals return (left, right).  Rectangles walk bottom, right, top,
    left; every corner belongs to exactly one side in that fixed order.
    Disks are sorted by increasing theta.  The walk is made once per grid.
    """
    return g._boundary_points


def _walk_boundary(g: Grid) -> tuple[BoundaryPoint, ...]:
    if g.domain.kind == "interval":
        a, b = g.domain.params
        return (
            BoundaryPoint((0,), (a,), "end=left"),
            BoundaryPoint((g.dims[0] - 1,), (b,), "end=right"),
        )

    if g.domain.kind == "rectangle":
        ax, bx, ay, by = g.domain.params
        nx, ny = g.dims
        # Python floats, so the points print as plain numbers
        x = g.axis_coords(0).tolist()
        y = g.axis_coords(1).tolist()
        pts: list[BoundaryPoint] = []
        for ix in range(nx):  # bottom owns both of its corners
            pts.append(BoundaryPoint((ix, 0), (x[ix], ay), "side=bottom"))
        for iy in range(1, ny):  # right owns the top-right corner
            pts.append(BoundaryPoint((nx - 1, iy), (bx, y[iy]), "side=right"))
        for ix in range(nx - 2, -1, -1):  # top owns the top-left corner
            pts.append(BoundaryPoint((ix, ny - 1), (x[ix], by), "side=top"))
        for iy in range(ny - 2, 0, -1):
            pts.append(BoundaryPoint((0, iy), (ax, y[iy]), "side=left"))
        return tuple(pts)

    if g.domain.kind == "disk":
        cx, cy, r = g.domain.params
        X, Y = g.node_coords()
        iys, ixs = np.nonzero(g.boundary())
        pts = []
        for ix, iy in zip(ixs, iys):
            theta = math.atan2(Y[iy, ix] - cy, X[iy, ix] - cx) % (2 * math.pi)
            coord = (cx + r * math.cos(theta), cy + r * math.sin(theta))
            pts.append(BoundaryPoint((int(ix), int(iy)), coord, theta))
        pts.sort(key=lambda p: p.param)
        return tuple(pts)

    raise ConfigError(f"unknown domain kind {g.domain.kind!r}")


def format_grid(g: Grid) -> str:
    """Serialize the grid: header line then one node-class character per
    node, row-major (one text line per grid row)."""
    dims = ",".join(str(d) for d in g.dims)
    h = ",".join(repr(float(s)) for s in g.spacing)
    origin = ",".join(repr(float(o)) for o in g.origin)
    rows = g.mask.reshape(-1, g.dims[0])
    text = np.full((rows.shape[0], rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = _EXPORT_CHAR[rows]
    return f"# dims={dims} h={h} origin={origin}\n" + text.tobytes().decode("ascii")
