"""Config ingestion, subcommand orchestration, and result persistence.

Config format: line-oriented text with bracketed sections and ``key = value``
pairs.  ``#`` starts a comment.  Sections and keys:

    [domain]   kind = interval|rectangle|disk
               bounds = a b            (interval)
               bounds = ax bx ay by    (rectangle)
               center = cx cy ; radius = r   (disk)
               n = nodes per axis
    [system]   m, epsilon, alpha = [..], A = [..]
    [boundary.i]  piece = "<selector>: <expr>"   (repeatable; the selector
                  must be one the domain kind can match, or ``all``)
    [solver]   tol_linear, tol_fp, max_sweeps (caps the Newton and chord steps)

Subcommands: validate, solve, limit, compare, rate, interfaces; each takes
only its own value flags (``_COMMAND_FLAGS``).  Config numbers and flag
values go through one check: floats finite and > 0, integers at least
their floor.  All output is data-only CSV plus a run manifest; identical
config and flags produce identical data files.

Exit codes: 0 success, 2 config error (bad flag values and an unreadable
config file included), 3 solver failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, epsilon_solver, limit_solver
from .elliptic_core import ScalarField
from .errors import ConfigError, SolverError
from .geometry import DomainSpec, Grid, build_grid, format_grid
from .problem_data import (
    AllSelector,
    BoundaryDatum,
    CouplingWeights,
    EndSelector,
    Exponents,
    Piece,
    ProblemData,
    SideSelector,
    ThetaRange,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

CSV_BLOCK_ROWS = 4096

_KNOWN_KEYS = {
    "domain": {"kind", "bounds", "center", "radius", "n"},
    "system": {"m", "epsilon", "alpha", "A"},
    "solver": {"tol_linear", "tol_fp", "max_sweeps"},
}
# the value of a key the config leaves out; a key without one must be given
_DEFAULTS = {"epsilon": "1e-8", "tol_linear": "1e-10",
             "tol_fp": "1e-8", "max_sweeps": "500"}
# every integer input, config key or flag, with its least allowed value;
# every other number is a float that must be finite and > 0
_INT_FLOORS = {"n": 3, "m": 2, "max_sweeps": 1, "pivot": 1, "count": 1}
# the selector each domain kind can match, besides ``all``
_SELECTORS = {"interval": EndSelector, "rectangle": SideSelector, "disk": ThetaRange}


@dataclass
class SystemConfig:
    domain: DomainSpec
    n: int
    grid: Grid  # the grid the config was validated on; every subcommand runs on it
    data: ProblemData
    epsilon: float
    tol_linear: float
    tol_fp: float
    max_sweeps: int
    config_hash: str
    source: str = ""


def _tokenize(text: str) -> list[tuple[str, str, str]]:
    """(section, key, value) triples in file order; duplicates preserved."""
    entries = []
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        entries.append((section, key.strip(), value.strip()))
    return entries


def _config_hash(entries: list[tuple[str, str, str]]) -> str:
    canon = "\n".join(f"{s}|{k}|{' '.join(v.split())}" for s, k, v in entries)
    return hashlib.sha256(canon.encode()).hexdigest()


def _parse_list(value: str, count: int, what: str, problems: list[str]) -> list[float]:
    v = value.strip()
    if v.startswith("[") and v.endswith("]"):
        v = v[1:-1]
    parts = [p for p in v.replace(",", " ").split() if p]
    try:
        out = [float(p) for p in parts]
    except ValueError:
        problems.append(f"{what}: cannot parse list {value!r}")
        return []
    if count and len(out) != count:
        problems.append(f"{what}: expected {count} entries, got {len(out)}")
    if not all(map(math.isfinite, out)):
        problems.append(f"{what}: entries must be finite, got {value!r}")
    return out


def _parse_number(text: str, key: str, label: str, problems: list[str]):
    """``text`` as the value of config key or flag ``key``: an integer of at
    least its ``_INT_FLOORS`` entry, else a finite float > 0.  A bad value
    is appended to ``problems`` under ``label`` and gives None."""
    floor = _INT_FLOORS.get(key)
    try:
        value = float(text) if floor is None else int(text)
    except ValueError:
        problems.append(f"{label}: not {'a number' if floor is None else 'an integer'}: {text!r}")
        return None
    if floor is None and not (math.isfinite(value) and value > 0):
        problems.append(f"{label}: need a finite {key} > 0, got {value}")
    elif floor is not None and value < floor:
        problems.append(f"{label}: need {key} >= {floor}, got {value}")
    else:
        return value
    return None


def parse_config(path) -> SystemConfig:
    """Parse and fully validate a config file.

    All problems (schema, unknown keys, bad values, assumption violations)
    are reported at once in a single ConfigError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    entries = _tokenize(text)
    problems: list[str] = []
    sections: dict[str, dict[str, str]] = {}
    boundary_pieces: dict[int, list[str]] = {}
    for section, key, value in entries:
        if section.startswith("boundary."):
            try:
                comp = int(section.split(".", 1)[1])
            except ValueError:
                problems.append(f"bad boundary section [{section}]")
                continue
            if key != "piece":
                problems.append(f"[{section}]: unknown key {key!r}")
                continue
            boundary_pieces.setdefault(comp, []).append(value.strip().strip('"'))
        elif section in _KNOWN_KEYS:
            if key not in _KNOWN_KEYS[section]:
                problems.append(f"[{section}]: unknown key {key!r}")
                continue
            if key in sections.setdefault(section, {}):
                problems.append(f"[{section}]: duplicate key {key!r}")
            sections[section][key] = value
        else:
            problems.append(f"unknown section [{section}]")

    def number(section: str, key: str):
        text = sections.get(section, {}).get(key, _DEFAULTS.get(key))
        if text is None:
            problems.append(f"[{section}] {key}: missing")
            return None
        return _parse_number(text, key, f"[{section}] {key}", problems)

    dom = sections.get("domain", {})
    sysc = sections.get("system", {})
    domain = None
    kind = dom.get("kind", "")
    n = number("domain", "n")
    if kind in ("interval", "rectangle"):
        count = 2 if kind == "interval" else 4
        b = _parse_list(dom.get("bounds", ""), count, "[domain] bounds", problems)
        if len(b) == count:
            domain = getattr(DomainSpec, kind)(*b)
    elif kind == "disk":
        c = _parse_list(dom.get("center", "0 0"), 2, "[domain] center", problems)
        r = number("domain", "radius")
        if r is not None and len(c) == 2:
            domain = DomainSpec.disk(c[0], c[1], r)
    else:
        problems.append(f"[domain] kind: expected interval|rectangle|disk, got {kind!r}")

    m = number("system", "m")
    epsilon = number("system", "epsilon")
    tol_linear = number("solver", "tol_linear")
    tol_fp = number("solver", "tol_fp")
    max_sweeps = number("solver", "max_sweeps")

    data = None
    if m is not None:
        alphas = _parse_list(sysc["alpha"], m, "[system] alpha", problems) if "alpha" in sysc else [1.0] * m
        A = _parse_list(sysc["A"], m, "[system] A", problems) if "A" in sysc else [1.0] * m
        missing = [i for i in range(1, m + 1) if i not in boundary_pieces]
        extra = [i for i in boundary_pieces if not 1 <= i <= m]
        if missing:
            problems.append(f"missing boundary sections for components {missing}")
        if extra:
            problems.append(f"boundary sections for unknown components {extra}")
        boundary = []
        for i in range(1, m + 1):
            pieces = []
            for text in boundary_pieces.get(i, []):
                try:
                    piece = Piece.parse(text)
                except ConfigError as exc:
                    problems.extend(exc.problems)
                    continue
                if kind in _SELECTORS and not isinstance(piece.selector, (AllSelector, _SELECTORS[kind])):
                    problems.append(f"[boundary.{i}] piece {text!r}: selector cannot match on a {kind}")
                pieces.append(piece)
            boundary.append(BoundaryDatum(i, tuple(pieces)))
        if not problems:
            try:
                data = ProblemData(tuple(boundary), CouplingWeights(np.array(A)), Exponents(tuple(alphas)))
            except ConfigError as exc:
                problems.extend(exc.problems)

    if problems:
        raise ConfigError(*problems)

    # assumption checks, segregation on the actual grid with node locations;
    # evaluating the boundary data rejects negative values outright
    g = build_grid(domain, n)
    report = data.validate(g)
    for pt, prod in report["segregation"][:20]:
        problems.append(
            f"partial segregation violated at boundary node {pt.index} "
            f"(coord {tuple(round(c, 6) for c in pt.coord)}): product {prod:g}"
        )
    if len(report["segregation"]) > 20:
        problems.append(f"... and {len(report['segregation']) - 20} more segregation violations")
    for v in report["coupling"]:
        problems.append(f"coupling assumption violated for A_{v['component']} ({v['kind']})")
    if problems:
        raise ConfigError(*problems)
    return SystemConfig(
        domain, n, g, data, epsilon, tol_linear, tol_fp, max_sweeps,
        _config_hash(entries), str(path),
    )


# ---------------------------------------------------------------------------
# output writers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(fh, table: np.ndarray, prefix: str = "") -> None:
    """Write ``table`` one line per row, ``prefix`` then every value as
    ``%.17g`` (the same text as ``_fmt``), in blocks of ``CSV_BLOCK_ROWS``
    rows, which bounds the memory the text takes.  In each block a column
    with at most half its values distinct formats each distinct float64 bit
    pattern once (so -0.0 and every NaN payload keep their own text), as the
    lattice coordinates of a fields table do; every other column formats
    value by value.  The cells of a block are joined once."""
    # each cell's format carries the separator that follows it, "," inside
    # a row and a newline after the last column, and a NUL to split on; the
    # first column's carries the prefix
    fmts = ["%.17g,\0"] * (table.shape[1] - 1) + ["%.17g\n\0"]
    fmts[0] = prefix.replace("%", "%%") + fmts[0]
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        cells = np.empty(block.shape, dtype=object)
        for j, fmt in enumerate(fmts):
            col = np.ascontiguousarray(block[:, j])
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            if 2 * bits.size > col.size:
                cells[:, j] = _format_cells(fmt, col)
            else:
                cells[:, j] = np.array(_format_cells(fmt, bits.view(np.float64)), dtype=object)[inverse]
        fh.write("".join(cells.ravel().tolist()))


def _format_cells(fmt: str, values: np.ndarray) -> list[str]:
    """``fmt`` (one value and a trailing NUL) applied to every value, as a
    list of cells without the NULs."""
    return (fmt * values.size % tuple(values.tolist())).split("\0")[:-1]


def write_fields_csv(path: Path, g: Grid, fields: tuple[ScalarField, ...]) -> None:
    """One row per grid node, row-major (x fastest in 2D), every value as
    ``%.17g``, written by ``_write_rows``."""
    m = len(fields)
    cols = ["x"] + (["y"] if g.ndim == 2 else []) + [f"u{i+1}" for i in range(m)]
    table = np.column_stack(
        [c.ravel() for c in g.node_coords()] + [f.values.ravel() for f in fields]
    )
    with path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, table)


def write_interfaces_csv(path: Path, iset: analysis.InterfaceSet) -> None:
    """One row per interface edge, pair by pair: the pair, the midpoint and
    the unit normal, written by ``_write_rows``."""
    g = iset.grid
    with path.open("w") as fh:
        if g.ndim == 1:
            fh.write("pair_i,pair_j,x,nx\n")
        else:
            fh.write("pair_i,pair_j,x,y,nx,ny\n")
        for (i, j), edges in sorted(iset.pairs.items()):
            _write_rows(fh, np.hstack([edges.midpoint, edges.normal]), f"{i},{j},")
        if iset.degenerate:
            fh.write("# degenerate: some pair's zero sets cover the whole interior\n")


def write_rate_csv(path: Path, table: analysis.RateTable) -> None:
    with path.open("w") as fh:
        fh.write("epsilon,comp,lmp1_dist,sup_dist\n")
        for row in table.rows:
            if row.failed:
                fh.write(f"{_fmt(row.epsilon)},-,failed,failed\n")
                continue
            for i, (a, b) in enumerate(zip(row.lmp1, row.sup), start=1):
                fh.write(f"{_fmt(row.epsilon)},{i},{_fmt(a)},{_fmt(b)}\n")
        slope = "nan" if table.slope is None else _fmt(table.slope)
        resid = "nan" if table.fit_residual is None else _fmt(table.fit_residual)
        fh.write(f"# slope={slope} fit_residual={resid}\n")
        if table.slope is None:
            fh.write("# slope undefined: fewer than two usable points\n")
        if table.dropped_largest:
            fh.write("# largest epsilon dropped from fit (pre-asymptotic)\n")


def write_distance_csv(path: Path, distances: list[dict]) -> None:
    with path.open("w") as fh:
        fh.write("comp,lmp1_dist,sup_dist\n")
        for d in distances:
            fh.write(f"{d['component']},{_fmt(d['lmp1'])},{_fmt(d['sup'])}\n")


def write_jump_report(path: Path, reports) -> None:
    with path.open("w") as fh:
        fh.write("pair_i,pair_j,edges,skipped,max_balance,max_transfer\n")
        for (i, j), rep in sorted(reports.items()):
            fh.write(
                f"{i},{j},{rep.edges},{rep.skipped},"
                f"{_fmt(rep.max_balance)},{_fmt(rep.max_transfer)}\n"
            )


class RunWriter:
    """Collects emitted files and writes the run manifest.

    Created at the start of a subcommand, so that ``wall_time_s`` covers
    the whole run; the output directory is made on the first write.
    """

    def __init__(self, out_dir: Path, cfg: SystemConfig, args: argparse.Namespace):
        self.out = out_dir
        self.subcommand = args.subcommand
        self.cfg = cfg
        self.flags = {flag: getattr(args, flag) for flag in _COMMAND_FLAGS[args.subcommand]}
        self.files: list[str] = []
        self.stages: dict = {}
        self.t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        self.files.append(name)
        return self.out / name

    def finish(self, **extra) -> Path:
        manifest = {
            "tool": f"seglimit {__version__}",
            "subcommand": self.subcommand,
            "config": self.cfg.source,
            "config_hash": self.cfg.config_hash,
            "flags": self.flags,
            "files": sorted(self.files),
            "stages": self.stages,
            # volatile keys; excluded from byte-level determinism comparisons
            "created": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - self.t0,
        }
        manifest.update(extra)
        self.out.mkdir(parents=True, exist_ok=True)
        p = self.out / "manifest.json"
        p.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return p


# ---------------------------------------------------------------------------
# subcommands


def _stats_summary(stats) -> dict:
    return {
        "solves": len(stats),
        # solves that made the factor they ran on; the others reused one
        "factorizations": sum(s.factorized for s in stats),
        # solves per kernel: sine, tridiagonal, superlu, or none (zero data)
        "kernels": dict(Counter(s.kernel for s in stats)),
        "max_residual": max((s.residual for s in stats), default=0.0),
        "max_error_bound": float(max((s.error_bound for s in stats), default=0.0)),
    }


def cmd_validate(cfg: SystemConfig, out: Path, args: argparse.Namespace) -> int:
    # parse_config has refused every assumption violation already
    w = RunWriter(out, cfg, args)
    w.path("report.txt").write_text(
        f"m = {cfg.data.m}\nsegregation violations: 0\ncoupling violations: 0\n"
    )
    w.path("grid.txt").write_text(format_grid(cfg.grid))
    w.finish(valid=True)
    return EXIT_OK


def _solve(cfg: SystemConfig, args: argparse.Namespace, w: RunWriter, limit=None):
    """The eps solve at ``--epsilon`` (default: the config's), recorded as
    the manifest's ``solve`` stage."""
    r = epsilon_solver.solve_epsilon(
        cfg.grid, cfg.data, cfg.epsilon if args.epsilon is None else args.epsilon,
        cfg.tol_fp, cfg.max_sweeps, cfg.tol_linear, limit=limit,
    )
    w.stages["solve"] = {
        "epsilon": r.epsilon, "sweeps": r.sweeps, "gap": r.gap,
        # the certificate bounds the fields' error; the update rule gives none
        "stop": r.stop, "error_bound": r.gap if r.stop == "certified" else None,
        "linear": _stats_summary(r.linear_stats),
    }
    return r


def cmd_solve(cfg: SystemConfig, out: Path, args: argparse.Namespace) -> int:
    w = RunWriter(out, cfg, args)
    r = _solve(cfg, args, w)
    write_fields_csv(w.path("solve_fields.csv"), cfg.grid, r.fields)
    w.path("grid.txt").write_text(format_grid(cfg.grid))
    w.finish()
    return EXIT_OK


def _build_limit(cfg: SystemConfig, args: argparse.Namespace, w: RunWriter):
    """The limit on pivot ``--pivot``, recorded as the manifest's ``limit``
    stage."""
    L = limit_solver.solve_limit(cfg.grid, cfg.data, args.pivot, cfg.tol_linear)
    w.stages["limit"] = {"pivot": L.pivot, "linear": _stats_summary(L.linear_stats)}
    return L


def _zero_threshold(cfg: SystemConfig, args: argparse.Namespace) -> float:
    """``--delta``, by default ``analysis.default_zero_threshold`` at the
    largest boundary value."""
    if args.delta is not None:
        return args.delta
    g = cfg.grid
    return analysis.default_zero_threshold(
        g, max(cfg.data.max_boundary_value(g), 1e-300), cfg.tol_linear
    )


def cmd_limit(cfg: SystemConfig, out: Path, args: argparse.Namespace) -> int:
    w = RunWriter(out, cfg, args)
    g = cfg.grid
    L = _build_limit(cfg, args, w)
    write_fields_csv(w.path("limit_fields.csv"), g, L.fields)
    delta = _zero_threshold(cfg, args)
    iset = analysis.extract_supports_and_interfaces(L.fields, delta)
    write_interfaces_csv(w.path("interfaces.csv"), iset)
    w.path("grid.txt").write_text(format_grid(g))
    w.finish(label="limit", delta=delta)
    return EXIT_OK


def cmd_compare(cfg: SystemConfig, out: Path, args: argparse.Namespace) -> int:
    w = RunWriter(out, cfg, args)
    g = cfg.grid
    L = _build_limit(cfg, args, w)
    r = _solve(cfg, args, w, limit=L)
    write_fields_csv(w.path("solve_fields.csv"), g, r.fields)
    write_fields_csv(w.path("limit_fields.csv"), g, L.fields)
    write_distance_csv(w.path("distance.csv"), analysis.solve_vs_limit_distances(r, L))
    w.path("grid.txt").write_text(format_grid(g))
    w.finish(label="limit")
    return EXIT_OK


def cmd_rate(cfg: SystemConfig, out: Path, args: argparse.Namespace) -> int:
    w = RunWriter(out, cfg, args)
    L = _build_limit(cfg, args, w)
    table = analysis.rate_study(
        cfg.grid, cfg.data, list(np.geomspace(args.start, args.stop, args.count)), L,
        tol_fp=cfg.tol_fp, max_sweeps=cfg.max_sweeps, tol_linear=cfg.tol_linear,
    )
    w.stages["rate"] = {"slope": table.slope, "fit_residual": table.fit_residual,
                        "dropped_largest": table.dropped_largest,
                        "failures": [{"epsilon": row.epsilon, "message": row.message}
                                     for row in table.rows if row.failed]}
    write_rate_csv(w.path("rate.csv"), table)
    w.finish()
    return EXIT_OK


def cmd_interfaces(cfg: SystemConfig, out: Path, args: argparse.Namespace) -> int:
    w = RunWriter(out, cfg, args)
    g = cfg.grid
    L = _build_limit(cfg, args, w)
    delta = _zero_threshold(cfg, args)
    iset = analysis.extract_supports_and_interfaces(L.fields, delta)
    reports = analysis.jump_condition_check(L, iset)
    write_interfaces_csv(w.path("interfaces.csv"), iset)
    measures = tuple(analysis.laplacian_measure(f, g) for f in L.fields)
    write_fields_csv(w.path("laplacian_measure.csv"), g, measures)
    write_jump_report(w.path("jump_report.csv"), reports)
    w.path("grid.txt").write_text(format_grid(g))
    w.finish(label="limit", delta=delta)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "limit": cmd_limit,
    "compare": cmd_compare,
    "rate": cmd_rate,
    "interfaces": cmd_interfaces,
}

# every value flag: (default, help); each value goes through _parse_number
_FLAGS = {
    "epsilon": (None, "epsilon (default: the config's)"),
    "pivot": ("1", "pivot component, 1..m"),
    "delta": (None, "zero-set threshold (default: max(10 tol_linear, h) times "
                    "the largest boundary value)"),
    "start": ("1e-2", "largest epsilon of the ladder"),
    "stop": ("1e-6", "smallest epsilon of the ladder"),
    "count": ("5", "number of epsilons, geometrically spaced"),
}
# the value flags each subcommand takes
_COMMAND_FLAGS = {
    "validate": (),
    "solve": ("epsilon",),
    "limit": ("pivot", "delta"),
    "compare": ("epsilon", "pivot"),
    "rate": ("pivot", "start", "stop", "count"),
    "interfaces": ("pivot", "delta"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seglimit",
        description="Solver and analysis toolkit for singularly perturbed "
        "elliptic systems with asymptotic phase segregation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", help="config file path")
        p.add_argument("--out", default="out", help="output directory")
        for flag in _COMMAND_FLAGS[name]:
            default, text = _FLAGS[flag]
            p.add_argument(f"--{flag}", default=default, help=text)
    return parser


def _parse_flags(args: argparse.Namespace, m: int | None, problems: list[str]) -> None:
    """Replace each value flag of ``args`` by its number; a bad value, a
    pivot above ``m`` or ``--start`` not above ``--stop`` is appended to
    ``problems``."""
    flags = _COMMAND_FLAGS[args.subcommand]
    for flag in flags:
        text = getattr(args, flag)
        if text is not None:
            setattr(args, flag, _parse_number(text, flag, f"--{flag}", problems))
    if "pivot" in flags and args.pivot is not None and m is not None and args.pivot > m:
        problems.append(f"--pivot: need pivot <= m = {m}, got {args.pivot}")
    if "start" in flags and None not in (args.start, args.stop) and not args.start > args.stop:
        problems.append(f"--start: need start > stop, got {args.start} and {args.stop}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.config:
        print("error: no config file given", file=sys.stderr)
        return EXIT_CONFIG
    try:
        try:
            cfg, problems = parse_config(args.config), []
        except ConfigError as exc:
            cfg, problems = None, exc.problems or [str(exc)]
        _parse_flags(args, cfg.data.m if cfg else None, problems)
        if problems:
            raise ConfigError(*problems)
        return _COMMANDS[args.subcommand](cfg, Path(args.out), args)
    except ConfigError as exc:
        for p in exc.problems or [str(exc)]:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure in stage {args.subcommand!r}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
