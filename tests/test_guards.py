"""The library's refusals of a call that breaks its contract: each raises
its exception with its message."""

import numpy as np
import pytest

from seglimit import DomainSpec, build_grid, solve_epsilon, solve_harmonic, solve_limit
from seglimit.errors import ConfigError
from seglimit.problem_data import BoundaryDatum, CouplingWeights, Exponents, Piece, ProblemData


def line_grid():
    return build_grid(DomainSpec.interval(0.0, 1.0), 9)


def line_data(m):
    """m components, pinned to 1 at the left and right ends in turn."""
    ends = ("end=left: 1", "end=right: 1")
    return ProblemData(
        tuple(BoundaryDatum(i + 1, (Piece.parse(ends[i % 2]),)) for i in range(m)),
        CouplingWeights(np.ones(m)), Exponents((1.0,) * m),
    )


def nonfinite_boundary():
    b = np.zeros(9)
    b[0] = np.inf
    solve_harmonic(line_grid(), [b])


def limit_of_another_grid():
    data = line_data(2)
    solve_epsilon(line_grid(), data, 1e-2, limit=solve_limit(line_grid(), data))


# (call, exception, message)
GUARDS = {
    "full-grid-array": (lambda: solve_harmonic(line_grid(), [np.zeros(5)]), ValueError,
                        "boundary values must be a full-grid array"),
    "finite-boundary": (nonfinite_boundary, ValueError, "boundary values must be finite"),
    "limit-grid": (limit_of_another_grid, ValueError, "the limit was built on another grid"),
    "node-counts": (lambda: build_grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), (5, 5, 5)),
                    ConfigError, "expected 2 node counts, got 3"),
    "domain-kind": (lambda: build_grid(DomainSpec("ellipse", (0.0, 0.0, 1.0)), 5), ConfigError,
                    "unknown domain kind 'ellipse'"),
    "components": (lambda: line_data(1).validate(line_grid()), ConfigError,
                   "partial segregation needs at least 2 components"),
}


@pytest.mark.parametrize("call,exception,message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_refuses_with_its_message(call, exception, message):
    with pytest.raises(exception) as exc:
        call()
    assert str(exc.value) == message
