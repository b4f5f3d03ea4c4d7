"""Boundary data evaluation, expression grammar, and assumption checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglimit import (
    BoundaryDatum,
    CouplingWeights,
    DomainSpec,
    Exponents,
    Piece,
    ProblemData,
    build_grid,
)
from seglimit.errors import ConfigError
from seglimit.geometry import BoundaryPoint, boundary_points
from seglimit.problem_data import (
    AllSelector,
    PartSelector,
    ThetaRange,
    boundary_value_array,
    compile_expression,
    eval_boundary,
    validate_coupling,
)


def disk_point(theta: float) -> BoundaryPoint:
    return BoundaryPoint((0, 0), (math.cos(theta), math.sin(theta)), theta)


def sine_arc(lo: str, hi: str) -> Piece:
    return Piece.parse(f"theta in [{lo}, {hi}): abs(sin(3*theta/2))")


PHI1 = BoundaryDatum(1, (sine_arc("0", "4*pi/3"),))
PHI2 = BoundaryDatum(2, (sine_arc("2*pi/3", "2*pi"),))
PHI3 = BoundaryDatum(3, (sine_arc("4*pi/3", "2*pi + 2*pi/3"),))


def segregation(data, g):
    """The segregation report of the boundary data ``data`` on ``g``."""
    m = len(data)
    problem = ProblemData(tuple(data), CouplingWeights(np.ones(m)), Exponents((1.0,) * m))
    return problem.validate(g)["segregation"]


def test_disk_example_values():
    assert eval_boundary(PHI1, disk_point(math.pi / 3)) == pytest.approx(1.0)
    assert eval_boundary(PHI1, disk_point(3 * math.pi / 2)) == 0.0
    # wrapped arc of the third component covers small angles
    assert eval_boundary(PHI3, disk_point(math.pi / 3)) == pytest.approx(1.0)
    assert eval_boundary(PHI3, disk_point(math.pi)) == 0.0


def test_square_example_value():
    phi2 = BoundaryDatum(2, (Piece.parse("side=right: 2*(1 - y^2)"),))
    p = BoundaryPoint((4, 2), (1.0, 0.0), "side=right")
    assert eval_boundary(phi2, p) == pytest.approx(2.0)


def test_theta_range_half_open_and_wrap():
    r = ThetaRange(0.0, 4 * math.pi / 3)
    assert r.matches(0.0)
    assert not r.matches(4 * math.pi / 3)
    wrap = ThetaRange(4 * math.pi / 3, 2 * math.pi + 2 * math.pi / 3)
    assert wrap.matches(0.0)
    assert wrap.matches(5.0)
    assert not wrap.matches(math.pi)


def test_selectors_match_only_their_domain_kind():
    # the boundary parameter of a disk, a rectangle and an interval
    params = (0.5, "side=top", "end=left")
    side, end = PartSelector("side=top"), PartSelector("end=left")
    for sel, expected in (
        (ThetaRange(0.0, math.pi), [True, False, False]),
        (side, [False, True, False]),
        (end, [False, False, True]),
        (AllSelector(), [True, True, True]),
    ):
        assert [sel.matches(p) for p in params] == expected, sel
    assert (ThetaRange.kind, side.kind, end.kind, AllSelector.kind) == (
        "disk", "rectangle", "interval", None)


def test_piece_selection_first_match_then_default():
    d = BoundaryDatum(1, (
        Piece.parse("theta in [0, pi): 1"),
        Piece.parse("theta in [0, 2*pi): 2"),
    ))
    assert eval_boundary(d, disk_point(1.0)) == 1.0
    assert eval_boundary(d, disk_point(4.0)) == 2.0


def test_negative_boundary_value_rejected():
    d = BoundaryDatum(1, (Piece.parse("all: x - 10"),))
    p = BoundaryPoint((0,), (0.0,), "end=left")
    with pytest.raises(ConfigError, match="negative"):
        eval_boundary(d, p)


def test_expression_grammar_rejections():
    for bad in (
        "__import__('os')",
        "open('x')",
        "x.real",
        "min(x, 1)",
        "lambda: 1",
        "'str'",
        "z + 1",
        "",
    ):
        with pytest.raises(ConfigError):
            compile_expression(bad)


def test_expression_caret_power():
    f = compile_expression("1 - x^2")
    assert f(x=0.5) == pytest.approx(0.75)
    g = compile_expression("sqrt(abs(cos(pi)))")
    assert g() == pytest.approx(1.0)
    assert compile_expression("-x + 1")(x=0.25) == 0.75


def test_segregation_disk_triple_valid():
    g = build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 51)
    assert segregation([PHI1, PHI2, PHI3], g) == []


def test_segregation_all_ones_fails_everywhere():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 9)
    ones = [BoundaryDatum(i, (Piece.parse("all: 1"),)) for i in (1, 2)]
    report = segregation(ones, g)
    assert len(report) == len(boundary_points(g))


def test_segregation_square_quadruple_valid(configs):
    cfg = configs["square_m4"]
    g = build_grid(cfg.domain, 41)
    assert cfg.data.validate(g)["segregation"] == []


def test_coupling_valid_and_invalid():
    assert validate_coupling(CouplingWeights(np.array([1.0, 1.0, 1.0]))) == []
    bad = validate_coupling(CouplingWeights(np.array([1.0, 2.0])))
    assert bad and all(v["component"] == 2 and v["kind"] == "dominance" for v in bad)
    # equality case of the dominance inequality is allowed
    assert validate_coupling(CouplingWeights(np.array([1.0, 1.0, 1.0, 3.0]))) == []
    nonpos = validate_coupling(CouplingWeights(np.array([0.0, 1.0])))
    assert any(v["kind"] == "positivity" for v in nonpos)
    # weights near the float maximum: their sum overflows, the dominance
    # test must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = validate_coupling(CouplingWeights(np.array([1.7e308, 1e308])))
        assert huge == [{"component": 1, "kind": "dominance", "value": 1.7e308}]
        assert validate_coupling(CouplingWeights(np.array([1e308, 1e308]))) == []


@pytest.mark.parametrize("values", [np.ones((2, 9)), np.array(1.0)], ids=["per-node", "0-d"])
def test_coupling_weights_must_be_constants(values):
    with pytest.raises(ConfigError, match=r"shape \(m,\)"):
        CouplingWeights(values)


def test_exponents_validated():
    assert Exponents((1.0, 2.5)).alphas == (1.0, 2.5)
    with pytest.raises(ConfigError):
        Exponents((0.5, 1.0))


def test_problem_data_component_mismatch():
    with pytest.raises(ConfigError, match="mismatch"):
        ProblemData(
            (PHI1, PHI2, PHI3),
            CouplingWeights(np.array([1.0, 1.0])),
            Exponents((1.0, 1.0, 1.0)),
        )


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0, 2 * math.pi, exclude_max=True, allow_nan=False))
def test_disk_example_segregation_pointwise(theta):
    # at every boundary angle at least one of the three data vanishes
    p = disk_point(theta)
    product = 1.0
    for d in (PHI1, PHI2, PHI3):
        product *= eval_boundary(d, p)
    assert product <= 1e-12


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0, 2 * math.pi, exclude_max=True), lo=st.floats(0, 6.2),
       width=st.floats(1e-6, 2 * math.pi))
def test_theta_range_wrap_consistency(t, lo, width):
    r = ThetaRange(lo, lo + width)
    expected = (t - lo) % (2 * math.pi) < width
    assert r.matches(t) == expected


@pytest.mark.parametrize("domain,n", [
    (DomainSpec.disk(0.0, 0.0, 1.0), 41),
    (DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0), (9, 7)),
    (DomainSpec.interval(0.0, 1.0), 9),
])
def test_boundary_arrays_once_per_grid_and_validate_unchanged(domain, n):
    # the arrays are evaluated once per grid, shared read-only, and the
    # segregation report derived from them equals the point-by-point one
    g = build_grid(domain, n)
    data = ProblemData(
        (BoundaryDatum(1, (Piece.parse("all: 1.5 + x"),)),
         BoundaryDatum(2, (Piece.parse("all: 3 - x*x/2"),))),
        CouplingWeights(np.array([1.0, 1.0])), Exponents((1.0, 1.0)),
    )
    first, again = data.boundary_arrays(g), data.boundary_arrays(g)
    assert all(a is b and not a.flags.writeable for a, b in zip(first, again))
    for arr, d in zip(first, data.boundary):
        assert np.array_equal(arr, boundary_value_array(d, g))
    pts = boundary_points(g)
    values = np.array([[eval_boundary(d, p) for p in pts] for d in data.boundary])
    relative = (values / values.max()).prod(axis=0)
    expected = [(pts[k], float(relative[k])) for k in np.nonzero(relative > 1e-12)[0]]
    assert len(expected) == len(pts)
    assert data.validate(g)["segregation"] == expected
