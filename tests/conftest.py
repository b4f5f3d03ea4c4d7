"""Shared fixtures: shipped configs, small grids, cached solves, and the
record of every factorization."""

from pathlib import Path
from typing import NamedTuple

import pytest

from seglimit import DomainSpec, build_grid, elliptic_core
from seglimit.cli import parse_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

CONFIG_NAMES = ["line_m2", "line_m3", "disk_m3", "square_m4", "square_m4_overlap"]


def config_path(name: str) -> Path:
    return CONFIG_DIR / f"{name}.cfg"


@pytest.fixture(scope="session")
def configs():
    return {name: parse_config(config_path(name)) for name in CONFIG_NAMES}


@pytest.fixture(scope="session")
def unit_interval_401():
    return build_grid(DomainSpec.interval(0.0, 1.0), 401)


@pytest.fixture(scope="session")
def unit_square_21():
    return build_grid(DomainSpec.rectangle(-1.0, 1.0, -1.0, 1.0), 21)


@pytest.fixture(scope="session")
def unit_disk_101():
    return build_grid(DomainSpec.disk(0.0, 0.0, 1.0), 101)


class Factorization(NamedTuple):
    """One factorization the library made: its ``kernel``, ``superlu`` or
    ``tridiagonal``; the ``matrix``, a copy of the CSC matrix SuperLU was
    given, or the diagonal and off-diagonal ``(d, e)``; and the factor's
    fill (``SuperLU.nnz``), None for the tridiagonal kernel."""

    kernel: str
    matrix: object
    nnz: int | None


@pytest.fixture
def factorizations(monkeypatch) -> list[Factorization]:
    """Every factorization made while the test runs, in call order,
    recorded at the library's two seams, ``elliptic_core._splu`` and
    ``elliptic_core._tridiagonal_solver``.  No record keeps a factor
    alive."""
    records = []
    splu, tridiagonal = elliptic_core._splu, elliptic_core._tridiagonal_solver

    def recording_splu(A):
        # SuperLU sums duplicates in place, so the copy is taken first
        matrix = A.copy()
        lu = splu(A)
        records.append(Factorization("superlu", matrix, lu.nnz))
        return lu

    def recording_tridiagonal(d, e):
        solve = tridiagonal(d, e)
        records.append(Factorization("tridiagonal", (d.copy(), e.copy()), None))
        return solve

    monkeypatch.setattr(elliptic_core, "_splu", recording_splu)
    monkeypatch.setattr(elliptic_core, "_tridiagonal_solver", recording_tridiagonal)
    return records
