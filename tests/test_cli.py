"""Config parsing, subcommand runs, output schemas, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from seglimit import (
    DomainSpec,
    ScalarField,
    analysis,
    build_grid,
    elliptic_core,
    epsilon_solver,
    geometry,
    limit_solver,
    problem_data,
    solve_limit,
)
from seglimit.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SOLVER,
    _stats_summary,
    main,
    parse_config,
    write_distance_csv,
    write_fields_csv,
    write_interfaces_csv,
    write_jump_report,
    write_rate_csv,
)
from seglimit.elliptic_core import LinearSolveStats
from seglimit.errors import ConfigError
from conftest import CONFIG_NAMES, config_path
from helpers import default_zero_threshold

LINE_M2 = str(config_path("line_m2"))
LINE_M3 = str(config_path("line_m3"))

BASE = """\
[domain]
kind = interval
bounds = 0 1
n = 51

[system]
m = 2
{system_extra}
[boundary.1]
piece = "{left}"

[boundary.2]
piece = "end=right: {right}"

[solver]
{solver}
"""


def make_cfg(tmp_path, system_extra="", left="end=left: 1", right="1",
             solver="max_sweeps = 5000"):
    p = tmp_path / "case.cfg"
    p.write_text(BASE.format(
        system_extra=system_extra, left=left, right=right, solver=solver))
    return p


def manifest_of(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_shipped_configs_parse(configs):
    ms = {"line_m2": 2, "line_m3": 3, "disk_m3": 3,
          "square_m4": 4, "square_m4_overlap": 4}
    kinds = {"line_m2": "interval", "line_m3": "interval", "disk_m3": "disk",
             "square_m4": "rectangle", "square_m4_overlap": "rectangle"}
    for name, cfg in configs.items():
        assert cfg.data.m == ms[name]
        assert cfg.domain.kind == kinds[name]
        assert cfg.epsilon == 1e-8
        assert cfg.tol_linear == 1e-10
        assert cfg.tol_fp == 1e-8
        assert len(cfg.config_hash) == 64


def test_defaults_applied(tmp_path):
    cfg = parse_config(make_cfg(tmp_path, solver=""))
    assert cfg.epsilon == 1e-8
    assert cfg.tol_linear == 1e-10
    assert cfg.tol_fp == 1e-8
    assert cfg.max_sweeps == 500
    assert cfg.data.exponents.alphas == (1.0, 1.0)
    assert np.array_equal(cfg.data.weights.values, [1.0, 1.0])


def test_hash_ignores_comments_and_spacing(tmp_path):
    a = make_cfg(tmp_path)
    b = tmp_path / "b.cfg"
    b.write_text("# extra comment\n" + a.read_text().replace(
        "bounds = 0 1", "bounds   =   0    1  # inline"))
    assert parse_config(a).config_hash == parse_config(b).config_hash
    c = tmp_path / "c.cfg"
    c.write_text(a.read_text().replace("n = 51", "n = 53"))
    assert parse_config(a).config_hash != parse_config(c).config_hash


def test_alias_sections(tmp_path):
    # alpha and A are given in [system] only; the old standalone sections
    # are unknown sections
    for section, key in (("coupling", "A"), ("exponents", "alpha")):
        p = tmp_path / f"{section}.cfg"
        p.write_text(BASE.format(system_extra="", left="end=left: 1", right="1", solver="") +
                     f"\n[{section}]\n{key} = [1, 1]\n")
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            parse_config(p)


def test_coupling_dominance_rejected(tmp_path):
    with pytest.raises(ConfigError, match="coupling"):
        parse_config(make_cfg(tmp_path, system_extra="A = [1, 3]\n"))


def test_segregation_violation_reports_nodes(tmp_path):
    with pytest.raises(ConfigError, match="segregation") as exc:
        parse_config(make_cfg(tmp_path, left="all: 1", right="x"))
    # the right endpoint is the only overlap; its coordinate is listed
    assert any("(1.0,)" in p for p in exc.value.problems)


def test_negative_boundary_rejected(tmp_path):
    with pytest.raises(ConfigError, match="negative"):
        parse_config(make_cfg(tmp_path, right="x - 2"))


def test_negative_rectangle_data_message_plain_numbers(tmp_path):
    # a rectangle point prints its coordinates as plain numbers
    text = config_path("square_m4").read_text()
    text = re.sub(r"^bounds = .*$", "bounds = 0 3 0 1", text, flags=re.MULTILINE)
    text = re.sub(r"^n = .*$", "n = 21", text, flags=re.MULTILINE)
    p = tmp_path / "wide.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError, match="negative") as exc:
        parse_config(p)
    message = "\n".join(exc.value.problems)
    assert "(2.85, 1.0)" in message and "np.float64" not in message


def test_errors_aggregated(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(
        "[domain]\nkind = hexagon\nn = 1\nbogus = 3\n"
        "[system]\nm = 1\n"
        "[nosuch]\nk = v\n"
        "[solver]\nmax_sweeps = soon\nmax_sweeps = 2\n"
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    text = "\n".join(exc.value.problems)
    for frag in ("kind", "n >= 3", "unknown key", "unknown section",
                 "m >= 2", "duplicate", "max_sweeps"):
        assert frag in text, frag


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/file.cfg")


@pytest.mark.parametrize("kind,why", [("directory", "Is a directory"), ("latin-1", "can't decode")],
                         ids=["directory", "latin-1"])
def test_unreadable_config_exit_2(tmp_path, capsys, kind, why):
    # a directory, or a file that is not UTF-8 text, is a config error that
    # names the path, not an internal error
    path = tmp_path / "bad.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[domain]\nkind = interval # \xff\n")
    with pytest.raises(ConfigError, match=f"cannot read config file {path}: .*{why}"):
        parse_config(path)
    assert main(["validate", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: cannot read config file {path}" in capsys.readouterr().err


def test_validate_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["validate", LINE_M2, "--out", str(out)]) == EXIT_OK
    assert (out / "report.txt").read_text() == (
        "m = 2\nsegregation violations: 0\ncoupling violations: 0\n"
    )
    assert (out / "grid.txt").exists()
    assert manifest_of(out)["valid"] is True


def test_validate_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(BASE.format(system_extra="", left="all: 1", right="x", solver=""))
    assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "segregation" in err


def test_solve_subcommand_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", LINE_M2, "--out", str(out), "--epsilon", "1e-2"])
    assert rc == EXIT_OK
    header = (out / "solve_fields.csv").read_text().splitlines()[0]
    assert header == "x,u1,u2"
    man = manifest_of(out)
    assert man["stages"]["solve"]["epsilon"] == 1e-2
    assert sorted(man["files"]) == ["grid.txt", "solve_fields.csv"]
    assert man["subcommand"] == "solve"


def test_solver_failure_exit_3(tmp_path, capsys):
    p = make_cfg(tmp_path, solver="max_sweeps = 3")
    rc = main(["solve", str(p), "--out", str(tmp_path / "o"), "--epsilon", "1e-6"])
    assert rc == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure" in err and "Newton not converged after 3 steps" in err
    assert not (tmp_path / "o").exists()


# the eps solve's F overflows at data 1e160 and warns so (ROADMAP item 9);
# those warnings stay warnings until it is solved in units of the data
@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_huge_boundary_data(tmp_path, capsys):
    # M^m = 1e320 overflows a float: the segregation test scales the data
    # by M instead, so the config validates and its limit is built.  The
    # limit's interface normals are unit vectors, as each edge's gradient is
    # scaled before it is squared, and no overflow is warned of.  Its eps
    # solve overflows to a NaN residual, which is refused, not passed on
    p = make_cfg(tmp_path, left="end=left: 1e160", right="1e160")
    assert main(["validate", str(p), "--out", str(tmp_path / "v")]) == EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["limit", str(p), "--out", str(tmp_path / "l")]) == EXIT_OK
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = (tmp_path / "l" / "interfaces.csv").read_text().splitlines()
    assert rows[0] == "pair_i,pair_j,x,nx" and len(rows) > 1
    assert all(abs(float(row.split(",")[3])) == 1.0 for row in rows[1:])
    capsys.readouterr()
    assert main(["solve", str(p), "--out", str(tmp_path / "s")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure" in err and "direct solve residual nan exceeds tol" in err


def test_huge_disk_data_validates_without_warnings(tmp_path):
    # two data overlap on an arc of disk_m3; at 1e250 their product
    # overflows, which the segregation check must not compute off the
    # flagged nodes
    p = scaled_config(tmp_path, "disk_m3", 1e250)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = parse_config(p)
    assert cfg.data.max_boundary_value(cfg.grid) > 1e249


def test_huge_power_in_expression_exit_2(tmp_path):
    # the numbers of an expression are floats, so 9^9^9 overflows at once
    # instead of building an integer with hundreds of millions of digits
    p = make_cfg(tmp_path, left="end=left: 9^9^9")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-m", "seglimit.cli", "validate", str(p), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert run.returncode == EXIT_CONFIG
    # the expression as written, and the error's message, not its errno tuple
    assert "failed to evaluate '9^9^9'" in run.stderr
    assert "(34," not in run.stderr


@pytest.mark.parametrize("name,line,rc", [
    ("line_m2", "bounds = 0 1e-300", EXIT_CONFIG),
    ("line_m2", "bounds = -1e300 1e300", EXIT_CONFIG),
    ("square_m4", "bounds = 0 1e-300 0 1", EXIT_CONFIG),
    ("disk_m3", "radius = 1e300", EXIT_CONFIG),
    ("disk_m3", "radius = 1e-300", EXIT_CONFIG),
    ("line_m2", "bounds = 0 1e-150", EXIT_OK),
    ("line_m2", "bounds = 0 1e150", EXIT_OK),
])
def test_domain_scale(tmp_path, capsys, name, line, rc):
    # a spacing whose square or its reciprocal, or a squared extent of the
    # domain, that leaves the float range is a config error of validate and
    # limit alike, naming the domain kind and its spacing; inside the range
    # the limit runs
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, config_path(name).read_text(), flags=re.MULTILINE)
    p = tmp_path / "scale.cfg"
    p.write_text(text if name == "line_m2" else re.sub(r"^n = .*$", "n = 21", text, flags=re.MULTILINE))
    kind = re.search(r"^kind = (\w+)$", text, flags=re.MULTILINE)[1]
    for sub in ("validate", "limit"):
        assert main([sub, str(p), "--out", str(tmp_path / sub)]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_CONFIG:
            assert f"config error: {kind} spacing (" in err and "out of range" in err


# (shipped config, (pattern, replacement) edits of its lines, message)
BAD_CONFIGS = {
    "key-value": ("line_m2", [(r"^n = 2001$", "n = 2001\njunk")],
                  "line 6: expected 'key = value', got 'junk'"),
    "list-syntax": ("line_m2", [(r"^A = .*$", "A = [1, one]")],
                    "[system] A: cannot parse list '[1, one]'"),
    "list-length": ("line_m2", [(r"^A = .*$", "A = [1, 1, 1]")],
                    "[system] A: expected 2 entries, got 3"),
    "boundary-section": ("line_m2", [(r"^\[boundary\.2\]$", "[boundary.two]")],
                         "bad boundary section [boundary.two]"),
    "boundary-key": ("line_m2", [(r"^\[boundary\.1\]$", "[boundary.1]\ncolor = red")],
                     "[boundary.1]: unknown key 'color'"),
    "key-missing": ("line_m2", [(r"^m = 2$", "")], "[system] m: missing"),
    "boundary-missing": ("line_m2", [(r"^\[boundary\.2\]$", "[boundary.1]")],
                         "missing boundary sections for components [2]"),
    "boundary-extra": ("line_m2", [(r"^\[solver\]$", '[boundary.5]\npiece = "all: 0"\n[solver]')],
                       "boundary sections for unknown components [5]"),
    # all 80 boundary nodes of the 21 x 21 square violate it; 20 are listed
    "segregation-more": ("square_m4", [(r"^n = .*$", "n = 21"), (r"^piece = .*$", 'piece = "all: 1"')],
                         "... and 60 more segregation violations"),
    "side": ("line_m2", [(r"^piece = .*left.*$", 'piece = "side=front: 1"')], "unknown side 'front'"),
    "endpoint": ("line_m2", [(r"^piece = .*left.*$", 'piece = "end=middle: 1"')],
                 "unknown endpoint 'middle' (expected left or right)"),
    "theta-open": ("disk_m3", [(r"^piece = .*$", 'piece = "theta in (0, pi): 1"')],
                   "theta range must be half-open [lo, hi): 'theta in (0, pi)'"),
    "theta-bounds": ("disk_m3", [(r"^piece = .*$", 'piece = "theta in [0): 1"')],
                     "theta range needs two bounds: 'theta in [0)'"),
    "theta-order": ("disk_m3", [(r"^piece = .*$", 'piece = "theta in [pi, 0): 1"')],
                    "theta range out of order: 'theta in [pi, 0)'"),
    "selector": ("line_m2", [(r"^piece = .*left.*$", 'piece = "corner=1: 1"')],
                 "cannot parse piece selector 'corner=1'"),
    "piece-form": ("line_m2", [(r"^piece = .*left.*$", 'piece = "1"')],
                   "piece needs the form '<selector>: <expr>': '1'"),
    "arguments": ("line_m2", [(r"^piece = .*left.*$", 'piece = "end=left: sin(x, 1)"')],
                  "functions take one argument in expression 'sin(x, 1)'"),
    "expression-syntax": ("line_m2", [(r"^piece = .*left.*$", 'piece = "end=left: 1 +"')],
                          "cannot parse expression '1 +'"),
    "evaluation": ("line_m2", [(r"^piece = .*left.*$", 'piece = "end=left: sqrt(x - 2)"')],
                   "failed to evaluate 'sqrt(x - 2)'"),
    "not-finite": ("line_m2", [(r"^piece = .*left.*$", 'piece = "end=left: 1e308 * 10"')],
                   "boundary expression '1e308 * 10' is not finite at (0.0,)"),
    "exponent": ("line_m2", [(r"^alpha = .*$", "alpha = [1, 0.5]")],
                 "alpha_2 = 0.5 violates alpha_i >= 1"),
    "reciprocal": ("disk_m3", [(r"^radius = .*$", "radius = 1e-310")],
                   "[domain] radius: need a finite radius > 0 with a finite 1/radius, got 1e-310"),
}


@pytest.mark.parametrize("name,edits,message", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_config_error_messages(tmp_path, capsys, name, edits, message):
    text = config_path(name).read_text()
    for pattern, replacement in edits:
        text = re.sub(pattern, replacement, text, flags=re.MULTILINE)
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "internal error" not in err


def test_direct_solve_limit_exit_3(tmp_path, monkeypatch, capsys):
    # a disk at n = 11 has 69 unknowns, whose harmonic batch SuperLU
    # factorizes; above the limit the solve is refused, not iterated, and
    # refused before the red-black reduction, which orders and factorizes,
    # is built
    def forbidden(*args, **kwargs):
        raise AssertionError("red-black reduction above the direct-solve limit")

    monkeypatch.setattr(elliptic_core, "DIRECT_SOLVE_LIMIT", 20)
    monkeypatch.setattr(elliptic_core, "_RedBlack", forbidden)
    p = tmp_path / "disk.cfg"
    p.write_text(re.sub(r"^n = .*$", "n = 11", config_path("disk_m3").read_text(), flags=re.MULTILINE))
    rc = main(["limit", str(p), "--out", str(tmp_path / "o")])
    assert rc == EXIT_SOLVER
    assert "69 unknowns exceed the direct-solve limit of 20" in capsys.readouterr().err


def test_boundary_data_evaluated_once_per_call(tmp_path, monkeypatch):
    # parse_config's checks and the limit build share one evaluation of
    # each datum and one walk of the boundary
    evaluated, walks = [], []
    bva, walk = problem_data.boundary_value_array, geometry._walk_boundary

    def counting_bva(d, g):
        evaluated.append(d.component)
        return bva(d, g)

    def counting_walk(g):
        walks.append(g)
        return walk(g)

    monkeypatch.setattr(problem_data, "boundary_value_array", counting_bva)
    monkeypatch.setattr(geometry, "_walk_boundary", counting_walk)
    cfg = str(config_path("line_m3"))
    assert main(["interfaces", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert sorted(evaluated) == [1, 2, 3]
    assert len(walks) == 1


def fields_csv_oracle(g, fields) -> str:
    """The row-by-row, value-by-value text the block writer must reproduce."""
    cols = ["x"] + (["y"] if g.ndim == 2 else []) + [f"u{i+1}" for i in range(len(fields))]
    lines = [",".join(cols)]
    coords = g.node_coords()
    for k in np.ndindex(g.mask.shape):
        row = [c[k] for c in coords] + [f.values[k] for f in fields]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("domain,n", [
    (DomainSpec.interval(0.0, 1.0), 101),
    # 70 * 71 = 4970 rows: one full block of 4096 and a partial one
    (DomainSpec.rectangle(-1.0, 2.0, 0.0, 1.0), (70, 71)),
])
def test_fields_csv_matches_per_value_format(tmp_path, domain, n):
    g = build_grid(domain, n)
    rng = np.random.default_rng(7)
    shape = g.mask.shape
    fields = [rng.standard_normal(shape) * 10.0 ** rng.uniform(-20, 20, shape) for _ in range(3)]
    specials = [-0.0, 5e-324, 1e300, -1e-300, 0.0, 1.0 / 3.0]
    fields[0].ravel()[:len(specials)] = specials
    fields[2].ravel()[-len(specials):] = specials
    fields = tuple(ScalarField(g, v) for v in fields)
    path = tmp_path / "f.csv"
    write_fields_csv(path, g, fields)
    assert path.read_text() == fields_csv_oracle(g, fields)
    # few distinct values, so each block formats every distinct bit pattern
    # once; the values repeat across the block boundary, and -0.0 and two
    # NaN payloads must keep their own text
    nans = np.array([0x7FF8000000000000, 0x7FF0000000000001]).view(np.float64)
    pool = np.concatenate([specials, nans, [2.5, -7.0]])
    pooled = tuple(ScalarField(g, pool[rng.integers(0, pool.size, shape)]) for _ in range(3))
    write_fields_csv(path, g, pooled)
    assert path.read_text() == fields_csv_oracle(g, pooled)


def interfaces_csv_oracle(iset) -> str:
    """The edge-by-edge text the block writer must reproduce."""
    lines = ["pair_i,pair_j,x,nx" if iset.grid.ndim == 1 else "pair_i,pair_j,x,y,nx,ny"]
    for (i, j), edges in sorted(iset.pairs.items()):
        for mid, normal in zip(edges.midpoint.tolist(), edges.normal.tolist()):
            values = mid + normal
            lines.append(f"{i},{j}," + ",".join(format(float(v), ".17g") for v in values))
    if iset.degenerate:
        lines.append("# degenerate: some pair's zero sets cover the whole interior")
    return "\n".join(lines) + "\n"


def test_interfaces_csv_matches_per_edge_format(tmp_path, configs):
    path = tmp_path / "i.csv"
    for name in ("line_m3", "disk_m3", "square_m4_overlap"):
        g = build_grid(configs[name].domain, 81 if name != "line_m3" else 401)
        L = solve_limit(g, configs[name].data)
        delta = default_zero_threshold(g, 1.0)
        iset = analysis.extract_supports_and_interfaces(L.fields, delta)
        write_interfaces_csv(path, iset)
        assert path.read_text() == interfaces_csv_oracle(iset)
    # all-zero data: every pair's zero sets cover the interior and no edge exists
    zero = tuple(ScalarField(g, np.zeros(g.mask.shape)) for _ in range(3))
    iset = analysis.extract_supports_and_interfaces(zero, 0.5)
    assert iset.degenerate and not any(iset.pairs.values())
    write_interfaces_csv(path, iset)
    assert path.read_text() == interfaces_csv_oracle(iset)


def fmt(x) -> str:
    return format(float(x), ".17g")


def rate_csv_oracle(table) -> str:
    """The rung-by-rung, value-by-value text the block writer must reproduce."""
    lines = ["epsilon,comp,lmp1_dist,sup_dist"]
    for row in table.rows:
        if row.failed:
            lines.append(f"{fmt(row.epsilon)},-,failed,failed")
            continue
        for i, (a, b) in enumerate(zip(row.lmp1, row.sup), start=1):
            lines.append(f"{fmt(row.epsilon)},{i},{fmt(a)},{fmt(b)}")
    slope = "nan" if table.slope is None else fmt(table.slope)
    resid = "nan" if table.fit_residual is None else fmt(table.fit_residual)
    lines.append(f"# slope={slope} fit_residual={resid}")
    if table.slope is None:
        lines.append("# slope undefined: fewer than two usable points")
    return "\n".join(lines) + "\n"


def test_small_tables_match_per_value_format(tmp_path):
    # distance.csv, jump_report.csv and rate.csv (a failed rung included)
    # go through the block writer; integers below 2^53 print as their
    # digits, and -0.0, NaN, inf and the subnormals keep their own text
    specials = [-0.0, 5e-324, 1e300, -1e-300, 0.0, 1.0 / 3.0, np.nan, -np.inf, 2.5e-7]
    rng = np.random.default_rng(11)
    values = specials + list(rng.standard_normal(7) * 10.0 ** rng.uniform(-20, 20, 7))
    path = tmp_path / "t.csv"

    lmp1, sup = tuple(values), tuple(values[::-1])
    write_distance_csv(path, lmp1, sup)
    assert path.read_text() == "comp,lmp1_dist,sup_dist\n" + "".join(
        f"{k},{fmt(a)},{fmt(b)}\n" for k, (a, b) in enumerate(zip(lmp1, sup), start=1))

    counts = [0, 1, 7, 4096, 2**53 - 1]
    jump_rows = [[i, j, counts[i], counts[j - 1], values[i + j], values[-i - j]]
                 for i in range(1, 5) for j in range(i + 1, 6)]
    write_jump_report(path, np.array(jump_rows))
    assert path.read_text() == "pair_i,pair_j,edges,skipped,max_balance,max_transfer\n" + "".join(
        f"{i},{j},{edges},{skipped},{fmt(balance)},{fmt(transfer)}\n"
        for i, j, edges, skipped, balance, transfer in jump_rows)

    m = 4
    rows = [analysis.RateRow(1e-2, tuple(values[:m]), tuple(values[m:2 * m])),
            analysis.RateRow(1.0 / 3e3, message="Newton not converged"),
            analysis.RateRow(1e-4, tuple(values[-m:]), tuple(values[2 * m:3 * m]))]
    for table in (analysis.RateTable(rows, -1.0 / 3.0, 5e-324),
                  analysis.RateTable(rows[1:2], None, None)):
        write_rate_csv(path, table)
        assert path.read_text() == rate_csv_oracle(table)


def scaled_config(tmp_path, name, factor, n=None):
    """The shipped config ``name`` with every boundary expression multiplied
    by ``factor`` and, unless None, ``n`` nodes per axis."""
    text = re.sub(r'piece = "([^:]*): (.*)"', lambda mt: f'piece = "{mt[1]}: {factor!r} * ({mt[2]})"',
                  config_path(name).read_text())
    if n is not None:
        text = re.sub(r"^n = .*$", f"n = {n}", text, flags=re.MULTILINE)
    p = tmp_path / f"{name}-{factor!r}.cfg"
    p.write_text(text)
    return p


@pytest.mark.parametrize("name,n", [("disk_m3", 81), ("line_m2", None)])
def test_interface_normals_scale_free(tmp_path, name, n):
    # scaling the data scales the limit but not its exact zero sets, so the
    # interfaces do not move and their normals turn by rounding only; a
    # gradient is flat only where it is exactly zero, however small
    tables = []
    for factor in (1.0, 1e-40):
        out = tmp_path / f"out-{factor!r}"
        assert main(["limit", str(scaled_config(tmp_path, name, factor, n)), "--out", str(out)]) == EXIT_OK
        tables.append(np.loadtxt(out / "interfaces.csv", delimiter=",", skiprows=1, ndmin=2))
    unit, tiny = tables
    d = (unit.shape[1] - 2) // 2
    assert unit.shape == tiny.shape and len(unit) > 0
    assert np.array_equal(unit[:, : 2 + d], tiny[:, : 2 + d])
    assert np.abs(unit[:, 2 + d:] - tiny[:, 2 + d:]).max() <= 1e-12


@pytest.mark.parametrize("name,n,tie,h,sides", [("disk_m3", 81, 0.0, 2.0 / 80, 31),
                                                ("line_m2", None, 0.5, 1.0 / 2000, 1),
                                                ("line_m3", None, 0.5, 1.0 / 2000, 1)],
                         ids=["disk_m3", "line_m2", "line_m3"])
def test_interfaces_pivot_free(tmp_path, configs, name, n, tie, h, sides):
    # the 1-2 interface lies on a tie of the limit: disk_m3's row y = 0 and
    # the lines' node x = 0.5.  The limit makes it exact, so u_1 and u_2
    # both vanish there for every pivot, however the data round: every
    # pivot writes the same edges, as many on each side of the tie
    cfg = scaled_config(tmp_path, name, 1.0, n)
    tables = []
    for pivot in range(1, configs[name].data.m + 1):
        out = tmp_path / f"out-{pivot}"
        assert main(["limit", str(cfg), "--pivot", str(pivot), "--out", str(out)]) == EXIT_OK
        tables.append(np.loadtxt(out / "interfaces.csv", delimiter=",", skiprows=1, ndmin=2))
    d = (tables[0].shape[1] - 2) // 2
    for table in tables[1:]:
        assert np.array_equal(table[:, : 2 + d], tables[0][:, : 2 + d])
    pair = (tables[0][:, 0] == 1) & (tables[0][:, 1] == 2)
    offset = tables[0][pair, 1 + d] - tie
    assert np.isclose(offset, h / 2).sum() == np.isclose(offset, -h / 2).sum() >= sides


@pytest.mark.parametrize("factor", [1.0, 1e-290, 1e-300, 1e-305, 1e-310])
def test_segregation_violation_at_any_scale(tmp_path, capsys, factor):
    # component 2 is also 1e-3 at the left end; the check scales the data
    # by their largest value, so a common factor, down to the subnormals,
    # neither hides the violation nor changes the product it reports
    p = scaled_config(tmp_path, "line_m2", factor, 21)
    p.write_text(p.read_text().replace(
        "[boundary.2]\n", f'[boundary.2]\npiece = "end=left: {factor!r} * (1e-3)"\n'))
    assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "partial segregation violated at boundary node (0,)" in err
    assert "relative product prod(u_k / M) = 0.001," in err


@pytest.mark.parametrize("weight,rc", [(1e-310, EXIT_CONFIG), (1e-304, EXIT_CONFIG),
                                       (1e-303, EXIT_OK), (1e-300, EXIT_OK)])
def test_weight_too_small_for_the_data(tmp_path, capsys, weight, rc):
    # the limit divides the data by the weights and the grid Laplacian
    # multiplies the quotient by up to 4 sum_k 1/h_k^2 = 1.6e5 at n=201: a
    # weight under which the largest datum divided by it, times that, is not
    # a finite float is refused before any solve, and one just above it runs
    # without an overflow
    text = config_path("line_m2").read_text().replace("A = [1, 1]", f"A = [{weight!r}, {weight!r}]")
    p = tmp_path / "weights.cfg"
    p.write_text(re.sub(r"^n = .*$", "n = 201", text, flags=re.MULTILINE))
    for sub in ("validate", "limit", "interfaces", "solve", "compare", "rate"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([sub, str(p), "--out", str(tmp_path / sub)]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_CONFIG:
            for i in (1, 2):
                assert (f"config error: A_{i} = {weight:g}: (M/A_{i}) 4 sum_k 1/h_k^2 is not a "
                        "finite float, with M = 1 the largest boundary value and h = 0.005") in err


def test_internal_error_exit_4(tmp_path, monkeypatch, capsys):
    # an exception that no stage expects gives exit 4 and its message
    def broken(*args, **kwargs):
        raise RuntimeError("broken limit")

    monkeypatch.setattr(limit_solver, "solve_limit", broken)
    assert main(["limit", LINE_M2, "--out", str(tmp_path / "o")]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: broken limit\n"
    assert not (tmp_path / "o").exists()


def test_no_config_exit_2(capsys):
    assert main(["solve"]) == EXIT_CONFIG
    assert "no config" in capsys.readouterr().err


def test_limit_subcommand_and_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["limit", LINE_M2, "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for fname in ("limit_fields.csv", "interfaces.csv", "grid.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    m0, m1 = manifest_of(outs[0]), manifest_of(outs[1])
    for m in (m0, m1):
        m.pop("created")
        m.pop("wall_time_s")
    assert m0 == m1


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["solve", "--epsilon", "1e-2"],
    ["limit"],
    ["compare", "--epsilon", "1e-2"],
    ["rate", "--start", "1e-2", "--stop", "1e-3", "--count", "2"],
    ["interfaces"],
], ids=lambda argv: argv[0])
def test_every_run_records_its_grid(tmp_path, argv):
    out = tmp_path / "out"
    assert main([argv[0], LINE_M2, "--out", str(out), *argv[1:]]) == EXIT_OK
    man = manifest_of(out)
    assert "grid.txt" in man["files"] and "label" not in man
    assert (out / "grid.txt").read_text() == geometry.format_grid(parse_config(LINE_M2).grid)


def test_limit_stage_recorded_by_every_limit_build(tmp_path):
    # every subcommand that builds the limit records the same stage, with
    # the certified error bound of its harmonic solves
    stages = []
    for sub in ("limit", "solve", "compare", "rate", "interfaces"):
        out = tmp_path / sub
        assert main([sub, LINE_M2, "--out", str(out)]) == EXIT_OK
        stages.append(manifest_of(out)["stages"]["limit"])
    assert all(stage == stages[0] for stage in stages)
    assert stages[0]["pivot"] == 1
    linear = stages[0]["linear"]
    assert linear["solves"] == 1 and linear["kernels"] == {"tridiagonal": 1}
    assert linear["max_residual"] <= 1e-10
    assert 0.0 < linear["max_error_bound"] < 1e-6
    # the Newton solves of solve and compare carry their bound too, one
    # solve per step: the harmonic batch is the limit's alone
    for sub in ("solve", "compare"):
        solve = manifest_of(tmp_path / sub)["stages"]["solve"]
        assert solve["linear"]["solves"] == solve["sweeps"]
        assert 0.0 < solve["linear"]["max_error_bound"] < 1e-6


def test_limit_stage_records_its_ties(tmp_path):
    # per component, the nodes the limit's tie rule zeroed from a nonzero
    # value, and the window it zeroed them within
    cfg = parse_config(LINE_M2)
    for pivot in (1, 2):
        out = tmp_path / f"pivot{pivot}"
        assert main(["limit", LINE_M2, "--pivot", str(pivot), "--out", str(out)]) == EXIT_OK
        stage = manifest_of(out)["stages"]["limit"]
        L = solve_limit(cfg.grid, cfg.data, pivot, cfg.tol_linear)
        assert stage["ties"] == [1, 0]
        assert stage["tie_windows"] == list(L.tie_windows)


def test_compare_unequal_weights_converges_to_limit(tmp_path):
    # constant weights rescale onto the equal-weight problem for u_i / A_i,
    # so the emitted limit is A_j (max(0, max_k w_k) - w_j) and the eps
    # solutions approach it
    p = tmp_path / "uneq.cfg"
    p.write_text(
        "[domain]\nkind = interval\nbounds = 0 1\nn = 201\n"
        "[system]\nm = 3\nA = [1, 1, 1.5]\n"
        '[boundary.1]\npiece = "end=left: 1"\n'
        '[boundary.2]\npiece = "end=right: 1"\n'
        '[boundary.3]\npiece = "all: 0.5"\n'
    )
    sups = []
    for eps in ("1e-4", "1e-6", "1e-8"):
        out = tmp_path / eps
        assert main(["compare", str(p), "--out", str(out), "--epsilon", eps]) == EXIT_OK
        rows = (out / "distance.csv").read_text().splitlines()[1:]
        sups.append(max(float(r.split(",")[2]) for r in rows))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 0.005


def test_compare_subcommand(tmp_path):
    out = tmp_path / "out"
    rc = main(["compare", LINE_M2, "--out", str(out), "--epsilon", "1e-3"])
    assert rc == EXIT_OK
    lines = (out / "distance.csv").read_text().splitlines()
    assert lines[0] == "comp,lmp1_dist,sup_dist"
    assert len(lines) == 3
    # line_m3 with every boundary expression times 1e100 or 1e-100: no
    # overflow or underflow is warned of, and every distance is finite and > 0
    for factor in (1e100, 1e-100):
        out = tmp_path / f"out-{factor!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(scaled_config(tmp_path, "line_m3", factor)),
                         "--out", str(out)]) == EXIT_OK
        rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (3, 3) and np.all(np.isfinite(rows[:, 1:]) & (rows[:, 1:] > 0))


def test_rate_subcommand(tmp_path):
    out = tmp_path / "out"
    rc = main(["rate", LINE_M2, "--out", str(out),
               "--start", "1e-2", "--stop", "1e-3", "--count", "2"])
    assert rc == EXIT_OK
    lines = (out / "rate.csv").read_text().splitlines()
    assert lines[0] == "epsilon,comp,lmp1_dist,sup_dist"
    assert any(line.startswith("# slope=") for line in lines)
    assert manifest_of(out)["stages"]["rate"]["slope"] is not None


def test_rate_fits_every_rung_once(tmp_path):
    # from eps = 1 the largest rungs are pre-asymptotic: the one fit over
    # all five keeps them, and the local slopes show where the rate settles
    out = tmp_path / "out"
    assert main(["rate", LINE_M2, "--out", str(out), "--start", "1", "--stop", "1e-4"]) == EXIT_OK
    lines = (out / "rate.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")])
    pivot = rows[rows[:, 1] == 1]
    x, y = np.log10(pivot[:, 0]), np.log10(pivot[:, 2])
    coef = np.polyfit(x, y, 1)
    stage = manifest_of(out)["stages"]["rate"]
    assert stage["slope"] == pytest.approx(coef[0], rel=1e-12)
    assert stage["fit_residual"] == pytest.approx(
        np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)), rel=1e-9)
    assert stage["local_slopes"] == pytest.approx(np.diff(y) / np.diff(x), rel=1e-12)
    assert round(stage["slope"], 4) == 0.3633 and round(stage["fit_residual"], 4) == 0.0865
    assert [round(s, 4) for s in stage["local_slopes"]] == [0.1441, 0.3749, 0.4437, 0.4444]
    assert lines[-1] == f"# slope={stage['slope']:.17g} fit_residual={stage['fit_residual']:.17g}"
    assert set(stage) == {"slope", "fit_residual", "local_slopes", "rungs"}


def assert_one_factorization_per_step(limit: dict, solves: list[dict]) -> None:
    """On an interval the limit's harmonic batch factorizes once and every
    Newton step of each solve once, all on the tridiagonal kernel."""
    assert limit["linear"]["factorizations"] == 1
    assert set(limit["linear"]["kernels"]) == {"tridiagonal"}
    for solve in solves:
        linear = solve["linear"]
        assert linear["factorizations"] == linear["solves"] == solve["sweeps"] > 0
        assert linear["kernels"] == {"tridiagonal": solve["sweeps"]}


@pytest.mark.parametrize("pivot", ["1", "3"])
def test_compare_factorizes_once_per_newton_step(tmp_path, pivot):
    # the limit's harmonic batch is the only harmonic factorization: Newton
    # starts from that limit and runs on its fields and pivot
    out = tmp_path / "out"
    assert main(["compare", LINE_M3, "--out", str(out), "--pivot", pivot]) == EXIT_OK
    stages = manifest_of(out)["stages"]
    assert_one_factorization_per_step(stages["limit"], [stages["solve"]])


def test_rate_factorizes_once_per_newton_step(tmp_path):
    out = tmp_path / "out"
    assert main(["rate", LINE_M3, "--out", str(out)]) == EXIT_OK
    stages = manifest_of(out)["stages"]
    assert len(stages["rate"]["rungs"]) == 5
    assert_one_factorization_per_step(stages["limit"], stages["rate"]["rungs"])


@pytest.mark.parametrize("name", ["line_m3", "square_m4"])
def test_rate_rung_records_the_solve_of_compare(tmp_path, name):
    # a rung is the solve compare makes at its epsilon from the same limit,
    # and its record is the one compare writes; square_m4, at n = 41,
    # factorizes with SuperLU and takes chord steps
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_path(name).read_text().replace("n = 201", "n = 41"))
    compare, rate = tmp_path / "compare", tmp_path / "rate"
    assert main(["compare", str(cfg), "--out", str(compare), "--epsilon", "1e-4"]) == EXIT_OK
    assert main(["rate", str(cfg), "--out", str(rate), "--start", "1e-4",
                 "--stop", "1e-5", "--count", "2"]) == EXIT_OK
    solve = manifest_of(compare)["stages"]["solve"]
    rungs = manifest_of(rate)["stages"]["rate"]["rungs"]
    assert len(rungs) == 2 and rungs[0] == solve
    if name == "square_m4":
        assert 2 <= solve["linear"]["factorizations"] < solve["linear"]["solves"]


def test_manifest_counts_solves_per_kernel(tmp_path):
    # the interval takes the tridiagonal kernel throughout; the rectangle's
    # harmonic batch takes the sine transform and its Newton steps SuperLU
    square = tmp_path / "square.cfg"
    square.write_text(config_path("square_m4").read_text().replace("n = 201", "n = 41"))
    for cfg, harmonic, screened in ((LINE_M2, {"tridiagonal": 1}, "tridiagonal"),
                                    (square, {"sine": 3}, "superlu")):
        out = tmp_path / "out"
        assert main(["compare", str(cfg), "--out", str(out), "--epsilon", "1e-4"]) == EXIT_OK
        stages = manifest_of(out)["stages"]
        assert stages["limit"]["linear"]["kernels"] == harmonic
        assert stages["solve"]["linear"]["kernels"] == {screened: stages["solve"]["sweeps"]}


def test_manifest_records_stop_and_factorizations(tmp_path):
    # every interval solve factorizes; on a rectangle chord steps reuse a
    # factor and the residual certificate stops Newton and bounds the
    # error; at eps 1e-12 on the disk it cannot reach tol_fp, and the
    # update of a factorizing step stops Newton.  The rectangles' harmonic
    # batch takes the sine transform, which factorizes nothing
    for name, eps, stop, harmonic in (("line_m2", "1e-8", "certified", 1),
                                      ("square_m4", "1e-4", "certified", 0),
                                      ("disk_m3", "1e-12", "update", 1)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config_path(name).read_text().replace("n = 201", "n = 41"))
        out = tmp_path / name
        assert main(["compare", str(cfg), "--out", str(out), "--epsilon", eps]) == EXIT_OK
        stages = manifest_of(out)["stages"]
        solve, linear = stages["solve"], stages["solve"]["linear"]
        assert stages["limit"]["linear"]["factorizations"] == harmonic
        assert solve["stop"] == stop and solve["sweeps"] == linear["solves"]
        if stop == "certified":
            # within tol_fp = 1e-8 times the largest boundary value, 1 or 4
            assert solve["error_bound"] == solve["gap"] <= 4e-8
        else:
            assert solve["error_bound"] is None
        if name == "line_m2":
            assert linear["factorizations"] == linear["solves"]
        else:
            assert 2 <= linear["factorizations"] < linear["solves"]


def test_rate_keeps_why_a_rung_failed(tmp_path):
    # with one Newton step allowed every rung fails; the manifest keeps
    # each failed epsilon with its solver message
    out = tmp_path / "out"
    cfg = make_cfg(tmp_path, solver="max_sweeps = 1")
    assert main(["rate", str(cfg), "--out", str(out), "--count", "3"]) == EXIT_OK
    rungs = manifest_of(out)["stages"]["rate"]["rungs"]
    assert [r["epsilon"] for r in rungs] == [1e-2, 1e-4, 1e-6]
    for r in rungs:
        assert set(r) == {"epsilon", "message"}
        assert r["message"].startswith("Newton not converged after 1 steps")
    assert (out / "rate.csv").read_text().count("failed,failed") == 3


def test_solve_and_compare_write_the_same_solution(tmp_path):
    for sub in ("solve", "compare"):
        assert main([sub, LINE_M3, "--out", str(tmp_path / sub)]) == EXIT_OK
    assert ((tmp_path / "solve" / "solve_fields.csv").read_bytes()
            == (tmp_path / "compare" / "solve_fields.csv").read_bytes())


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_interfaces_from_exact_zero_sets(tmp_path, monkeypatch, name):
    # limit's interfaces.csv comes from the limit's exact zero sets, and the
    # jump check of a 2D config evaluates all but a few of their edges
    seen = []
    extract = analysis.extract_supports_and_interfaces

    def spy(fields, delta):
        iset = extract(fields, delta)
        seen.append((fields, iset))
        return iset

    monkeypatch.setattr(analysis, "extract_supports_and_interfaces", spy)
    cfg = str(config_path(name))
    assert main(["limit", cfg, "--out", str(tmp_path / "limit")]) == EXIT_OK
    ((fields, iset),) = seen
    interior = fields[0].grid.interior()
    assert np.array_equal(iset.zero_sets, np.stack([(f.values == 0) & interior for f in fields]))
    assert main(["interfaces", cfg, "--out", str(tmp_path / "interfaces")]) == EXIT_OK
    lines = (tmp_path / "interfaces" / "jump_report.csv").read_text().splitlines()[1:]
    if fields[0].grid.ndim == 2:
        assert sum(int(line.split(",")[3]) for line in lines) <= 2


def test_weighted_jump_identities(tmp_path):
    # line_m3 with A = [1, 1, 1.5]: the identities of u_k / A_k hold to
    # rounding on every edge, and no manifest records a zero threshold
    p = tmp_path / "weighted.cfg"
    p.write_text(re.sub(r"^A = .*$", "A = [1, 1, 1.5]", config_path("line_m3").read_text(),
                        flags=re.MULTILINE))
    for sub in ("limit", "interfaces"):
        assert main([sub, str(p), "--out", str(tmp_path / sub)]) == EXIT_OK
        assert "delta" not in manifest_of(tmp_path / sub)
    rows = [line.split(",") for line in
            (tmp_path / "interfaces" / "jump_report.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 and sum(int(r[2]) for r in rows) > 0
    for r in rows:
        assert int(r[3]) == 0 and float(r[4]) <= 1e-11 and float(r[5]) <= 1e-11


def test_interfaces_subcommand(tmp_path):
    out = tmp_path / "out"
    rc = main(["interfaces", LINE_M2, "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "interfaces.csv").read_text().splitlines()[0] == "pair_i,pair_j,x,nx"
    jr = (out / "jump_report.csv").read_text().splitlines()
    assert jr[0] == "pair_i,pair_j,edges,skipped,max_balance,max_transfer"
    assert (out / "laplacian_measure.csv").exists()


def test_config_flag_form(tmp_path, capsys):
    # the config is the positional argument; --config is not an option
    out = tmp_path / "out"
    assert main(["validate", LINE_M2, "--out", str(out)]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", LINE_M2, "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--epsilon", "0"],
    ["solve", "--epsilon", "-1"],
    ["solve", "--epsilon", "nan"],
    ["compare", "--epsilon", "inf"],
    ["limit", "--pivot", "0"],
    ["limit", "--pivot", "7"],
    ["compare", "--pivot", "x"],
    ["interfaces", "--pivot", "7"],
    ["rate", "--stop", "nan"],
    ["rate", "--count", "0"],
    ["rate", "--start", "1e-6", "--stop", "1e-2"],
    # floats whose reciprocal overflows
    ["solve", "--epsilon", "5e-309"],
    ["compare", "--epsilon", "1e-310"],
    ["rate", "--stop", "1e-310"],
    ["rate", "--start", "2e-310", "--stop", "1e-310"],
])
def test_bad_flag_value_exit_2(tmp_path, capsys, argv):
    # a bad value is neither swapped for the default nor left to fail inside
    # a solver: the flag is named in a config error and nothing is written
    sub, flag = argv[0], argv[1]
    out = tmp_path / "o"
    assert main([sub, LINE_M3, "--out", str(out)] + argv[1:]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {flag}:" in err
    assert "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("start,stop,count", [
    # rungs that round together
    ("1e-2", "0.0099999999999999", "50"),
    ("1.0000000000000002e-2", "1e-2", "3"),
    # two distinct rungs of one log10
    ("1e-2", "9.999999999999999e-3", "2"),
])
def test_rate_refuses_a_ladder_the_fit_cannot_use(tmp_path, capsys, start, stop, count):
    # the slope fit needs strictly decreasing log10 rungs: any other ladder
    # is a config error naming its three flags, and nothing is written
    out = tmp_path / "o"
    argv = ["rate", LINE_M2, "--out", str(out), "--start", start, "--stop", stop, "--count", count]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: --start:" in err and "--stop" in err and "--count" in err
    assert "internal error" not in err
    assert not out.exists()


def test_smallest_epsilon_with_a_finite_reciprocal_runs(tmp_path):
    # 1/1e-308 is a finite float, so the solve runs, without an overflow.
    # Its linear solves are checked in units of their norms, so ||A|| ||y||
    # does not overflow and their certified bounds are finite.  A solve
    # with no finite bound certifies nothing: the manifest, strict JSON,
    # records it as null
    def refuse(name):
        raise AssertionError(f"{name} in a manifest")

    p = make_cfg(tmp_path)
    for sub in ("solve", "compare"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([sub, str(p), "--epsilon", "1e-308", "--out", str(tmp_path / sub)]) == EXIT_OK
        manifest = json.loads((tmp_path / sub / "manifest.json").read_text(), parse_constant=refuse)
        assert manifest["stages"]["solve"]["linear"]["max_error_bound"] > 0.0
    stats = [LinearSolveStats(0.0, 1.0), LinearSolveStats(0.0, math.inf)]
    assert _stats_summary(stats)["max_error_bound"] is None


@pytest.mark.parametrize("sub", ["validate", "solve", "limit", "compare", "rate", "interfaces"])
def test_out_not_a_directory_exit_2(tmp_path, monkeypatch, capsys, sub):
    # --out naming a regular file, a path under one or a dangling symbolic
    # link is a bad flag value: refused before any solve, and nothing is
    # written
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(epsilon_solver, "solve_epsilon", no_solve)
    monkeypatch.setattr(limit_solver, "solve_limit", no_solve)
    f = tmp_path / "file"
    f.write_text("keep\n")
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "nowhere")
    for out, named in ((f, f), (f / "sub", f), (link, link)):
        assert main([sub, LINE_M2, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: --out: {named} is not a directory" in err
        assert f.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == [f, link]


@pytest.mark.parametrize("section,line", [
    ("system", "epsilon = 0"),
    ("system", "epsilon = nan"),
    ("solver", "tol_fp = -1"),
    ("solver", "tol_linear = inf"),
    ("solver", "max_sweeps = 0"),
    ("system", "A = [inf, inf]"),
    ("system", "alpha = [1, nan]"),
    # floats whose reciprocal overflows
    ("system", "epsilon = 5e-309"),
    ("solver", "tol_fp = 1e-310"),
    ("solver", "tol_linear = 1e-310"),
])
def test_bad_config_value_exit_2(tmp_path, capsys, section, line):
    key = line.split()[0]
    p = make_cfg(tmp_path, **{"system_extra" if section == "system" else "solver": line + "\n"})
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: [{section}] {key}:" in err
    assert "internal error" not in err


def test_bad_flag_listed_with_config_problems(tmp_path, capsys):
    p = make_cfg(tmp_path, solver="tol_fp = 0\n")
    assert main(["compare", str(p), "--epsilon", "0", "--pivot", "0"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for name in ("[solver] tol_fp:", "--epsilon:", "--pivot:"):
        assert f"config error: {name}" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--epsilon", "1"],
    ["solve", "--pivot", "2"],
    ["limit", "--epsilon", "1e-4"],
    ["rate", "--delta", "0.1"],
    ["interfaces", "--count", "3"],
    ["limit", "--delta", "0.1"],
])
def test_flag_of_another_subcommand_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], LINE_M2, "--out", str(tmp_path / "o")] + argv[1:])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_manifest_lists_own_flags(tmp_path):
    expect = {
        "validate": {},
        "solve": {"epsilon": 0.01},
        "limit": {"pivot": 2},
        "rate": {"pivot": 1, "start": 0.01, "stop": 0.001, "count": 2},
    }
    extra = {"solve": ["--epsilon", "1e-2"], "limit": ["--pivot", "2"],
             "rate": ["--stop", "1e-3", "--count", "2"]}
    for sub, flags in expect.items():
        out = tmp_path / sub
        assert main([sub, LINE_M2, "--out", str(out)] + extra.get(sub, [])) == EXIT_OK
        assert manifest_of(out)["flags"] == flags


@pytest.mark.parametrize("name,kind,selector", [
    ("disk_m3", "disk", "side=top"),
    ("disk_m3", "disk", "end=left"),
    ("square_m4", "rectangle", "theta in [0, pi)"),
    ("line_m3", "interval", "side=left"),
])
def test_selector_of_another_domain_kind_exit_2(tmp_path, capsys, name, kind, selector):
    # a selector the domain kind cannot match would silently leave its
    # datum 0 everywhere
    text = config_path(name).read_text()
    lines = [f'piece = "{selector}: 1"' if ln.startswith("piece") else ln
             for ln in text.splitlines()]
    p = tmp_path / "case.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    pieces = sum(ln.startswith("piece") for ln in lines)
    assert err.count(f"cannot match on a {kind}") == pieces > 0
    assert "internal error" not in err


def test_all_selector_on_every_domain_kind(tmp_path):
    for name in ("line_m3", "disk_m3", "square_m4"):
        p = tmp_path / f"{name}.cfg"
        p.write_text(config_path(name).read_text().replace('piece = "', 'piece = "all: 0"\npiece = "', 1))
        assert parse_config(p).data.m >= 2
