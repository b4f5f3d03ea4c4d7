"""Grid construction, node classification, and boundary parameterization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglimit import DomainSpec, Grid, NodeClass, boundary_points, build_grid
from seglimit.errors import ConfigError
from seglimit.geometry import format_grid


def test_interval_nodes_and_classes():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 5)
    assert np.allclose(g.axis_coords(0), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.mask[0] == NodeClass.BOUNDARY
    assert g.mask[-1] == NodeClass.BOUNDARY
    assert np.all(g.mask[1:-1] == NodeClass.INTERIOR)


def test_rectangle_counts():
    g = build_grid(DomainSpec.rectangle(-1.0, 1.0, -1.0, 1.0), 5)
    assert int(g.interior().sum()) == 9
    assert int(g.boundary().sum()) == 16
    assert not np.any(g.mask == NodeClass.EXTERIOR)


def test_disk_interior_fraction():
    # interior nodes fill the inscribed circle: pi/4 of the bounding box,
    # up to a perimeter band of strictly-inside misses (about 1.8 points
    # at n=101)
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 101)
    frac = g.interior().sum() / g.mask.size
    assert abs(frac - math.pi / 4) < 0.02


def test_disk_interior_matches_bruteforce():
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 101)
    X, Y = g.node_coords()
    inside = X**2 + Y**2 < 1.0
    assert np.array_equal(g.interior(), inside)


def test_degenerate_domains_rejected():
    with pytest.raises(ConfigError):
        build_grid(DomainSpec.interval(1.0, 1.0), 5)
    with pytest.raises(ConfigError):
        build_grid(DomainSpec.rectangle(0.0, 1.0, 2.0, 2.0), 5)
    with pytest.raises(ConfigError):
        build_grid(DomainSpec.disk(0.0, 0.0, 0.0), 5)
    with pytest.raises(ConfigError):
        build_grid(DomainSpec.interval(0.0, 1.0), 2)


@pytest.mark.parametrize("domain,axis", [
    (DomainSpec.disk(1e300, 1e300, 1.0), 0),
    (DomainSpec.disk(0.0, 1e300, 1.0), 1),
    (DomainSpec.rectangle(1e17, 1e17 + 64, 0.0, 1.0), 0),
    (DomainSpec.interval(1e17, 1e17 + 64), 0),
], ids=["disk", "disk-y", "rectangle", "interval"])
def test_node_coordinates_must_be_distinct(domain, axis):
    # where |origin| / h is above 2^52 neighbouring lattice coordinates
    # round together (at 1e300 all of them); every node off the rim of such
    # a disk would test inside its circle
    with pytest.raises(ConfigError, match=rf"^{domain.kind} axis {axis}: origin \S+ and spacing "
                                          r"\S+ give node coordinates that are not distinct$"):
        build_grid(domain, 21)


def test_interval_boundary_points():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 11)
    pts = boundary_points(g)
    assert [p.param for p in pts] == ["end=left", "end=right"]
    assert pts[0].coord == (0.0,)
    assert pts[1].coord == (1.0,)


def test_rectangle_corner_ownership():
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 5)
    pts = boundary_points(g)
    # every boundary node appears exactly once
    assert len(pts) == int(g.boundary().sum())
    assert len({p.index for p in pts}) == len(pts)
    corners = {p.index: p.param for p in pts if p.index in
               {(0, 0), (4, 0), (4, 4), (0, 4)}}
    assert corners == {(0, 0): "side=bottom", (4, 0): "side=bottom",
                       (4, 4): "side=right", (0, 4): "side=top"}


def test_disk_boundary_thetas_sorted_unique():
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 101)
    pts = boundary_points(g)
    thetas = [p.param for p in pts]
    assert all(0.0 <= t < 2 * math.pi for t in thetas)
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    assert len(pts) == int(g.boundary().sum())


def test_boundary_param_roundtrip():
    # the stored coordinate is recoverable from the parameter within h/2;
    # a rectangle node's parameter names its side, whose bound it lies on
    for spec, n in [
        (DomainSpec.interval(0.0, 2.0), 9),
        (DomainSpec.rectangle(-1.0, 1.0, 0.0, 3.0), 9),
        (DomainSpec.disk(0.5, -0.5, 2.0), 41),
    ]:
        g = build_grid(spec, n)
        h = max(g.spacing)
        for p in boundary_points(g):
            if spec.kind == "disk":
                cx, cy, r = spec.params
                c = (cx + r * math.cos(p.param), cy + r * math.sin(p.param))
            elif spec.kind == "interval":
                c = (spec.params[0],) if p.param == "end=left" else (spec.params[1],)
            else:
                ax, bx, ay, by = spec.params
                axis, bound = {
                    "side=bottom": (1, ay),
                    "side=right": (0, bx),
                    "side=top": (1, by),
                    "side=left": (0, ax),
                }[p.param]
                assert p.coord[axis] == bound
                continue
            assert math.dist(c, p.coord) <= h / 2 + 1e-12


def test_interior_stencil_neighbors_never_exterior():
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 41)
    m = g.mask
    ii = np.argwhere(m == NodeClass.INTERIOR)
    for iy, ix in ii:
        for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            assert m[iy + dy, ix + dx] != NodeClass.EXTERIOR


@pytest.mark.parametrize("domain", [DomainSpec.disk(0.0, 0.0, 1.0), DomainSpec.disk(0.1, -0.2, 1.3)],
                         ids=["unit", "off_centre"])
def test_disk_interior_off_the_lattice_rim(domain):
    # a rim node can round to inside the circle (the unit disk at n = 99,
    # 197, ..., the off-centre one at n = 275, ...); it has no neighbour
    # beyond the rim, so it is never interior
    for n in range(3, 402):
        interior = build_grid(domain, n).interior()
        assert not (interior[[0, -1]].any() or interior[:, [0, -1]].any()), n


def test_grid_refuses_interior_node_without_its_stencil():
    # an interior node on the lattice rim, or next to an exterior node
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 5)
    mask = g.mask.copy()
    mask[0, 2] = NodeClass.INTERIOR
    with pytest.raises(ValueError, match="lattice rim or next to an exterior node"):
        Grid(g.domain, g.dims, g.spacing, g.origin, mask)
    d = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 11)
    mask = d.mask.copy()
    assert mask[1, 2] == NodeClass.BOUNDARY and mask[1, 1] == NodeClass.EXTERIOR
    mask[1, 2] = NodeClass.INTERIOR
    with pytest.raises(ValueError, match="lattice rim or next to an exterior node"):
        Grid(d.domain, d.dims, d.spacing, d.origin, mask)


def test_disk_mask_symmetry():
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 81)
    m = np.asarray(g.mask)
    assert np.array_equal(m, m[::-1, :])
    assert np.array_equal(m, m[:, ::-1])
    assert np.array_equal(m, m.T)


@settings(max_examples=60, deadline=None)
@given(
    cx=st.floats(-50, 50, allow_nan=False),
    cy=st.floats(-50, 50, allow_nan=False),
    r=st.floats(0.05, 20, allow_nan=False),
    n=st.one_of(st.integers(5, 120), st.tuples(st.integers(5, 60), st.integers(5, 60))),
)
def test_disk_mask_symmetric_by_construction(cx, cy, r, n):
    # the mask is classified from exact offsets to the lattice centre, so
    # wherever the disk sits it equals both of its flips, and its transpose
    # when hx = hy (the harmonic batch solves one parity sector at a time
    # where a flip leaves the mask in place)
    try:
        g = build_grid(DomainSpec.disk(cx, cy, r), n)
    except ConfigError:
        return
    m = np.asarray(g.mask)
    assert np.array_equal(m, m[::-1, :])
    assert np.array_equal(m, m[:, ::-1])
    if g.spacing[0] == g.spacing[1]:
        assert np.array_equal(m, m.T)


def test_format_grid_export():
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 3)
    text = format_grid(g)
    lines = text.splitlines()
    assert lines[0] == "# dims=3,3 h=0.5,0.5 origin=0.0,0.0"
    assert lines[1] == "BBB"
    assert lines[2] == "BIB"
    assert lines[3] == "BBB"

    g1 = build_grid(DomainSpec.interval(0.0, 1.0), 5)
    lines1 = format_grid(g1).splitlines()
    assert lines1[0] == "# dims=5 h=0.25 origin=0.0"
    assert lines1[1] == "BIIIB"

    # every node class, row by row, against a per-node lookup
    g2 = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 41)
    char = {NodeClass.INTERIOR: "I", NodeClass.BOUNDARY: "B", NodeClass.EXTERIOR: "E"}
    body = format_grid(g2).split("\n", 1)[1]
    assert body == "".join("".join(char[NodeClass(c)] for c in row) + "\n" for row in g2.mask)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    width=st.floats(1e-3, 20, allow_nan=False),
    n=st.integers(3, 200),
)
def test_interval_grid_invariants(a, width, n):
    g = build_grid(DomainSpec.interval(a, a + width), n)
    assert g.spacing[0] > 0
    assert g.dims == (n,)
    counts = {c: int((g.mask == c).sum()) for c in NodeClass}
    assert counts[NodeClass.BOUNDARY] == 2
    assert counts[NodeClass.INTERIOR] == n - 2
    assert counts[NodeClass.EXTERIOR] == 0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 80), r=st.floats(0.3, 5.0, allow_nan=False))
def test_disk_grid_invariants(n, r):
    g = build_grid(DomainSpec.disk(0.0, 0.0, r), n)
    m = np.asarray(g.mask)
    # boundary nodes lie outside the circle or on the lattice rim, and touch
    # an interior node.  The rim lies on or outside the circle, but a rim
    # node can round to inside it; it is never interior.  Inside is read
    # off the nodes' offsets to the lattice centre, as build_grid takes them
    X, Y = np.meshgrid(*((2 * np.arange(c) - (c - 1)) * (h / 2)
                         for h, c in zip(g.spacing, g.dims)))
    bnd = g.boundary()
    rim = np.ones_like(bnd)
    rim[1:-1, 1:-1] = False
    assert np.all(X[bnd & ~rim] ** 2 + Y[bnd & ~rim] ** 2 >= r**2)
    interior = g.interior()
    assert not np.any(interior & rim)
    touched = np.zeros_like(interior)
    touched[1:, :] |= interior[:-1, :]
    touched[:-1, :] |= interior[1:, :]
    touched[:, 1:] |= interior[:, :-1]
    touched[:, :-1] |= interior[:, 1:]
    assert np.all(touched[bnd])
    # and every other node next to an interior node is a boundary node
    assert np.array_equal(bnd, touched & ~interior)
