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
values go through one check: floats finite and > 0 with a finite
reciprocal, integers at least their floor.  All output is data-only CSV,
every number as ``%.17g`` (``_write_rows``), plus the run's ``grid.txt``
and manifest; identical config and flags produce identical data files.

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
from .elliptic_core import DEFAULT_TOL, ScalarField
from .errors import ConfigError, SolverError
from .geometry import DomainSpec, Grid, build_grid, format_grid
from .problem_data import BoundaryDatum, CouplingWeights, Exponents, Piece, ProblemData

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

CSV_BLOCK_ROWS = 4096
# the CSV column name of each grid axis
_AXES = ("x", "y")

_KNOWN_KEYS = {
    "domain": {"kind", "bounds", "center", "radius", "n"},
    "system": {"m", "epsilon", "alpha", "A"},
    "solver": {"tol_linear", "tol_fp", "max_sweeps"},
}
# the value of a key the config leaves out, as config text; a key without
# one must be given.  epsilon has no library default
_DEFAULTS = {"epsilon": "1e-8", "tol_linear": str(DEFAULT_TOL),
             "tol_fp": str(epsilon_solver.DEFAULT_TOL_FP),
             "max_sweeps": str(epsilon_solver.DEFAULT_MAX_SWEEPS)}
# every integer input, config key or flag, with its least allowed value;
# every other number is a float that must be finite and > 0
_INT_FLOORS = {"n": 3, "m": 2, "max_sweeps": 1, "pivot": 1, "count": 1}


@dataclass
class SystemConfig:
    domain: DomainSpec
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
    least its ``_INT_FLOORS`` entry, else a finite float > 0 whose
    reciprocal is a finite float too (the solve divides by eps).  A bad
    value is appended to ``problems`` under ``label`` and gives None."""
    floor = _INT_FLOORS.get(key)
    try:
        value = float(text) if floor is None else int(text)
    except ValueError:
        problems.append(f"{label}: not {'a number' if floor is None else 'an integer'}: {text!r}")
        return None
    if floor is None and not (0 < value < math.inf and 1 / value < math.inf):
        problems.append(f"{label}: need a finite {key} > 0 with a finite 1/{key}, got {value}")
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
        kind = None  # no selector is checked against an unknown kind

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
                if kind and piece.selector.kind not in (None, kind):
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
            f"(coord {tuple(round(c, 6) for c in pt.coord)}): "
            f"relative product prod(u_k / M) = {prod:g}, M the largest boundary value"
        )
    if len(report["segregation"]) > 20:
        problems.append(f"... and {len(report['segregation']) - 20} more segregation violations")
    for v in report["coupling"]:
        problems.append(f"coupling assumption violated for A_{v['component']} ({v['kind']})")
    for v in report["scale"]:
        i = v["component"]
        problems.append(f"A_{i} = {v['value']:g}: (M/A_{i}) 4 sum_k 1/h_k^2 is not a finite float, "
                        f"with M = {data.max_boundary_value(g):g} the largest boundary value "
                        f"and h = {', '.join(f'{h:g}' for h in g.spacing)}")
    if problems:
        raise ConfigError(*problems)
    return SystemConfig(
        domain, g, data, epsilon, tol_linear, tol_fp, max_sweeps,
        _config_hash(entries), str(path),
    )


# ---------------------------------------------------------------------------
# output writers


def _write_rows(fh, table: np.ndarray, prefix: str = "") -> None:
    """Write ``table`` one line per row, ``prefix`` then every value as
    ``%.17g`` (an integer below 2^53 as its plain digits), in blocks of
    ``CSV_BLOCK_ROWS`` rows, which bounds the memory the text takes.  Each
    column of a block formats each distinct float64 bit pattern once (so
    -0.0 and every NaN payload keep their own text), and the cells of a
    block are joined once."""
    # each cell's format carries the separator that follows it, "," inside
    # a row and a newline after the last column, and a NUL to split on; the
    # first column's carries the prefix
    fmts = ["%.17g,\0"] * (table.shape[1] - 1) + ["%.17g\n\0"]
    fmts[0] = prefix.replace("%", "%%") + fmts[0]
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        block = np.ascontiguousarray(block, dtype=np.float64).view(np.int64)
        cells = np.empty(block.shape, dtype=object)
        for j, fmt in enumerate(fmts):
            bits, inverse = np.unique(block[:, j], return_inverse=True)
            text = (fmt * bits.size % tuple(bits.view(np.float64).tolist())).split("\0")[:-1]
            cells[:, j] = np.array(text, dtype=object)[inverse]
        fh.write("".join(cells.ravel().tolist()))


def write_fields_csv(path: Path, g: Grid, fields: tuple[ScalarField, ...]) -> None:
    """One row per grid node, row-major (x fastest in 2D), every value as
    ``%.17g``, written by ``_write_rows``."""
    cols = list(_AXES[:g.ndim]) + [f"u{i+1}" for i in range(len(fields))]
    table = np.column_stack(
        [c.ravel() for c in g.node_coords()] + [f.values.ravel() for f in fields]
    )
    with path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, table)


def write_interfaces_csv(path: Path, iset: analysis.InterfaceSet) -> None:
    """One row per interface edge, pair by pair: the pair, the midpoint and
    the unit normal, written by ``_write_rows``."""
    axes = _AXES[:iset.grid.ndim]
    with path.open("w") as fh:
        fh.write(",".join(["pair_i", "pair_j", *axes, *("n" + a for a in axes)]) + "\n")
        for (i, j), edges in sorted(iset.pairs.items()):
            _write_rows(fh, np.hstack([edges.midpoint, edges.normal]), f"{i},{j},")
        if iset.degenerate:
            fh.write("# degenerate: some pair's zero sets cover the whole interior\n")


def write_rate_csv(path: Path, table: analysis.RateTable) -> None:
    with path.open("w") as fh:
        fh.write("epsilon,comp,lmp1_dist,sup_dist\n")
        for row in table.rows:
            if row.failed:
                fh.write("%.17g,-,failed,failed\n" % row.epsilon)
            else:
                rows = np.column_stack([np.arange(1, len(row.sup) + 1), row.lmp1, row.sup])
                _write_rows(fh, rows, "%.17g," % row.epsilon)
        slope = "nan" if table.slope is None else "%.17g" % table.slope
        resid = "nan" if table.fit_residual is None else "%.17g" % table.fit_residual
        fh.write(f"# slope={slope} fit_residual={resid}\n")
        if table.slope is None:
            fh.write("# slope undefined: fewer than two usable points\n")


def write_distance_csv(path: Path, distances: list[dict]) -> None:
    with path.open("w") as fh:
        fh.write("comp,lmp1_dist,sup_dist\n")
        _write_rows(fh, np.array([[d["component"], d["lmp1"], d["sup"]] for d in distances]))


def write_jump_report(path: Path, reports) -> None:
    with path.open("w") as fh:
        fh.write("pair_i,pair_j,edges,skipped,max_balance,max_transfer\n")
        _write_rows(fh, np.array([[i, j, r.edges, r.skipped, r.max_balance, r.max_transfer]
                                  for (i, j), r in sorted(reports.items())]))


class RunWriter:
    """Collects emitted files and writes the run's ``grid.txt`` and manifest.

    ``main`` creates it once the flags parse, so that ``wall_time_s``
    covers the whole subcommand, and finishes it when the subcommand
    returns; the output directory is made on the first write.
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
        """Write the grid the run ran on to ``grid.txt``, then the manifest."""
        self.path("grid.txt").write_text(format_grid(self.cfg.grid))
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
        p = self.out / "manifest.json"
        # strict JSON: a NaN or an infinity raises instead of being written
        p.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return p


# ---------------------------------------------------------------------------
# subcommands


def _stats_summary(stats) -> dict:
    bounds = [s.error_bound for s in stats]
    return {
        "solves": len(stats),
        # solves that made the factor they ran on; the others reused one
        "factorizations": sum(s.factorized for s in stats),
        # solves per kernel: sine, tridiagonal, superlu, or none (zero data)
        "kernels": dict(Counter(s.kernel for s in stats)),
        "max_residual": max((s.residual for s in stats), default=0.0),
        # null when a solve has no finite bound: an infinite one certifies
        # nothing, and JSON has no Infinity
        "max_error_bound": (float(max(bounds, default=0.0))
                            if all(map(math.isfinite, bounds)) else None),
    }


def cmd_validate(cfg: SystemConfig, w: RunWriter, args: argparse.Namespace) -> dict:
    # parse_config has refused every assumption violation already
    w.path("report.txt").write_text(
        f"m = {cfg.data.m}\nsegregation violations: 0\ncoupling violations: 0\n"
    )
    return {"valid": True}


def _solve_record(r) -> dict:
    """The manifest record of an eps solve, a ``SolveResult`` or a solved
    ``analysis.RateRow``."""
    return {
        "epsilon": r.epsilon, "sweeps": r.sweeps, "gap": r.gap,
        # the certificate bounds the fields' error; the update rule gives none
        "stop": r.stop, "error_bound": r.gap if r.stop == "certified" else None,
        "linear": _stats_summary(r.linear_stats),
    }


def _solve(cfg: SystemConfig, args: argparse.Namespace, w: RunWriter, limit):
    """The eps solve at ``--epsilon`` (default: the config's) from
    ``limit``, recorded as the manifest's ``solve`` stage."""
    r = epsilon_solver.solve_epsilon(
        cfg.grid, cfg.data, cfg.epsilon if args.epsilon is None else args.epsilon,
        cfg.tol_fp, cfg.max_sweeps, cfg.tol_linear, limit=limit,
    )
    w.stages["solve"] = _solve_record(r)
    return r


def cmd_solve(cfg: SystemConfig, w: RunWriter, args: argparse.Namespace) -> dict:
    r = _solve(cfg, args, w, _build_limit(cfg, w, 1))
    write_fields_csv(w.path("solve_fields.csv"), cfg.grid, r.fields)
    return {}


def _build_limit(cfg: SystemConfig, w: RunWriter, pivot: int):
    """The limit on ``pivot``, recorded as the manifest's ``limit`` stage."""
    L = limit_solver.solve_limit(cfg.grid, cfg.data, pivot, cfg.tol_linear)
    # per component, the nodes the tie rule zeroed from a nonzero value and
    # its window, null where a bound is infinite (as max_error_bound)
    w.stages["limit"] = {"pivot": L.pivot, "linear": _stats_summary(L.linear_stats),
                         "ties": list(L.ties),
                         "tie_windows": [x if math.isfinite(x) else None for x in L.tie_windows]}
    return L


def _interfaces(L, w: RunWriter) -> analysis.InterfaceSet:
    """The interfaces of the limit ``L`` between its exact zero sets,
    written to ``interfaces.csv``: its fields are nonnegative, so
    ``u < 2^-1074`` holds exactly where u == 0."""
    iset = analysis.extract_supports_and_interfaces(L.fields, math.ulp(0.0))
    write_interfaces_csv(w.path("interfaces.csv"), iset)
    return iset


def cmd_limit(cfg: SystemConfig, w: RunWriter, args: argparse.Namespace) -> dict:
    L = _build_limit(cfg, w, args.pivot)
    write_fields_csv(w.path("limit_fields.csv"), cfg.grid, L.fields)
    _interfaces(L, w)
    return {}


def cmd_compare(cfg: SystemConfig, w: RunWriter, args: argparse.Namespace) -> dict:
    g = cfg.grid
    L = _build_limit(cfg, w, args.pivot)
    r = _solve(cfg, args, w, L)
    write_fields_csv(w.path("solve_fields.csv"), g, r.fields)
    write_fields_csv(w.path("limit_fields.csv"), g, L.fields)
    write_distance_csv(w.path("distance.csv"), analysis.solve_vs_limit_distances(r, L))
    return {}


def cmd_rate(cfg: SystemConfig, w: RunWriter, args: argparse.Namespace) -> dict:
    L = _build_limit(cfg, w, args.pivot)
    table = analysis.rate_study(
        cfg.grid, cfg.data, list(np.geomspace(args.start, args.stop, args.count)), L,
        tol_fp=cfg.tol_fp, max_sweeps=cfg.max_sweeps, tol_linear=cfg.tol_linear,
    )
    w.stages["rate"] = {"slope": table.slope, "fit_residual": table.fit_residual,
                        "local_slopes": table.local_slopes,
                        "rungs": [{"epsilon": row.epsilon, "message": row.message} if row.failed
                                  else _solve_record(row) for row in table.rows]}
    write_rate_csv(w.path("rate.csv"), table)
    return {}


def cmd_interfaces(cfg: SystemConfig, w: RunWriter, args: argparse.Namespace) -> dict:
    g = cfg.grid
    L = _build_limit(cfg, w, args.pivot)
    iset = _interfaces(L, w)
    write_jump_report(w.path("jump_report.csv"), analysis.jump_condition_check(L, iset))
    measures = tuple(analysis.laplacian_measure(f) for f in L.fields)
    write_fields_csv(w.path("laplacian_measure.csv"), g, measures)
    return {}


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
    "start": ("1e-2", "largest epsilon of the ladder"),
    "stop": ("1e-6", "smallest epsilon of the ladder"),
    "count": ("5", "number of epsilons, geometrically spaced"),
}
# the value flags each subcommand takes
_COMMAND_FLAGS = {
    "validate": (),
    "solve": ("epsilon",),
    "limit": ("pivot",),
    "compare": ("epsilon", "pivot"),
    "rate": ("pivot", "start", "stop", "count"),
    "interfaces": ("pivot",),
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
    pivot above ``m``, ``--start`` not above ``--stop`` or an ``--out``
    whose nearest existing path is not a directory is appended to
    ``problems``.  The check of ``--out`` creates nothing; a dangling
    symbolic link exists, as no directory can be made in its place."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        problems.append(f"--out: {existing} is not a directory")
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
        w = RunWriter(Path(args.out), cfg, args)
        # a subcommand that raises leaves no grid.txt and no manifest
        w.finish(**_COMMANDS[args.subcommand](cfg, w, args))
        return EXIT_OK
    except ConfigError as exc:
        for p in exc.problems or [str(exc)]:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure in stage {args.subcommand!r}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
