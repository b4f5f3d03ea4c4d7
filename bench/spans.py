"""Span tracing of seglimit's public functions, from outside the program.

``install`` wraps each traced function at every name it is bound to: the
attribute of every loaded ``seglimit`` module that holds it, entries of
module-level dicts such as ``cli._COMMANDS``, and ``scipy.sparse.linalg.splu``.
Each wrapper records a span (name, start, end, parent index) in memory; the
call runner writes the spans out when the CLI call ends.  The stack of open
spans assumes one thread, which holds for every workload call (none uses
``rate --threads``).

``layer_metrics`` turns the spans of one call into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

WRITERS = ("write_fields_csv", "write_interfaces_csv", "write_rate_csv",
           "write_distance_csv", "write_jump_report")
COMMANDS = ("validate", "solve", "limit", "compare", "rate", "interfaces")
# (module, attribute path) of each traced function; the span name is
# "<last module part>.<function>", and "splu" for SuperLU
TARGETS = [
    ("seglimit.cli", name)
    for name in ("parse_config",) + WRITERS + tuple(f"cmd_{c}" for c in COMMANDS)
] + [
    ("seglimit.geometry", "build_grid"),
    ("seglimit.geometry", "boundary_points"),
    ("seglimit.geometry", "format_grid"),
    ("seglimit.problem_data", "boundary_value_array"),
    ("seglimit.problem_data", "ProblemData.validate"),
    ("seglimit.elliptic_core", "solve_screened"),
    ("seglimit.elliptic_core", "solve_harmonic"),
    ("seglimit.elliptic_core", "grid_operator"),
    ("seglimit.elliptic_core", "apply_laplacian"),
    ("scipy.sparse.linalg", "splu"),
    ("seglimit.epsilon_solver", "solve_epsilon"),
    ("seglimit.epsilon_solver", "sweep"),
    ("seglimit.epsilon_solver", "initialize"),
    ("seglimit.limit_solver", "harmonic_differences"),
    ("seglimit.limit_solver", "construct_limit"),
    ("seglimit.analysis", "extract_supports_and_interfaces"),
    ("seglimit.analysis", "jump_condition_check"),
    ("seglimit.analysis", "laplacian_measure"),
    ("seglimit.analysis", "rate_study"),
    ("seglimit.analysis", "solve_vs_limit_distances"),
]

ROOT = "cli.main"
SOLVES = ("elliptic_core.solve_screened", "elliptic_core.solve_harmonic")

# per-layer metric -> (aggregate, span names): "time" sums span durations,
# "self" sums durations minus those of direct child spans, "count" counts spans
METRICS = {
    "cli.parse_config_s": ("time", ("cli.parse_config",)),
    "cli.write_csv_s": ("time", tuple(f"cli.{w}" for w in WRITERS)),
    **{f"cli.cmd_{c}_s": ("time", (f"cli.cmd_{c}",)) for c in COMMANDS},
    "geometry.build_grid_s": ("time", ("geometry.build_grid",)),
    "geometry.build_grid_calls": ("count", ("geometry.build_grid",)),
    "geometry.boundary_points_s": ("time", ("geometry.boundary_points",)),
    "geometry.format_grid_s": ("time", ("geometry.format_grid",)),
    "problem_data.boundary_value_array_s": ("time", ("problem_data.boundary_value_array",)),
    "problem_data.boundary_value_array_calls": ("count", ("problem_data.boundary_value_array",)),
    "problem_data.validate_s": ("time", ("problem_data.validate",)),
    "elliptic_core.factorize_s": ("time", ("splu",)),
    "elliptic_core.factorizations": ("count", ("splu",)),
    "elliptic_core.solve_screened_s": ("time", ("elliptic_core.solve_screened",)),
    "elliptic_core.solve_screened_calls": ("count", ("elliptic_core.solve_screened",)),
    "elliptic_core.solve_harmonic_s": ("time", ("elliptic_core.solve_harmonic",)),
    "elliptic_core.solve_harmonic_calls": ("count", ("elliptic_core.solve_harmonic",)),
    "elliptic_core.solve_overhead_s": ("self", SOLVES),
    "elliptic_core.grid_operator_s": ("time", ("elliptic_core.grid_operator",)),
    "elliptic_core.apply_laplacian_s": ("time", ("elliptic_core.apply_laplacian",)),
    "epsilon_solver.solve_epsilon_s": ("time", ("epsilon_solver.solve_epsilon",)),
    "epsilon_solver.sweeps": ("count", ("epsilon_solver.sweep",)),
    "epsilon_solver.sweep_self_s": ("self", ("epsilon_solver.sweep",)),
    "epsilon_solver.initialize_s": ("time", ("epsilon_solver.initialize",)),
    "limit_solver.harmonic_differences_s": ("time", ("limit_solver.harmonic_differences",)),
    "limit_solver.construct_limit_s": ("time", ("limit_solver.construct_limit",)),
    "analysis.extract_supports_and_interfaces_s": ("time", ("analysis.extract_supports_and_interfaces",)),
    "analysis.jump_condition_check_s": ("time", ("analysis.jump_condition_check",)),
    "analysis.laplacian_measure_s": ("time", ("analysis.laplacian_measure",)),
    "analysis.rate_study_self_s": ("self", ("analysis.rate_study",)),
    "analysis.distances_s": ("time", ("analysis.solve_vs_limit_distances",)),
}

# the top-level spans of a call (parse_config, cmd_*) must cover at least
# this share of its traced cli.main time, less a fixed slack for the
# argument parsing around them (about 5 ms, which is 5-7% of a validate call)
COVERAGE_FLOOR = 0.95
COVERAGE_SLACK_S = 0.02


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the parent's spawn time
    # and the child's timestamps are on one time line
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "seglimit" or n.startswith("seglimit."))]
        for modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            name = "splu" if attr == "splu" else f"{modname.rsplit('.', 1)[-1]}.{attr}"
            traced = self.wrap(name, fn)
            setattr(owner, attr, traced)
            for mod in modules + [sys.modules[modname]]:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one call's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for metric, (agg, names) in METRICS.items():
        total = 0.0
        for k, (name, start, end, _) in enumerate(spans):
            if name in names:
                total += 1 if agg == "count" else (end - start) - (child_time[k] if agg == "self" else 0.0)
        out[metric] = total
    return out


def coverage_problems(spans: list[list]) -> list[str]:
    """Every splu span sits inside a solve span, and the top-level spans
    account for the traced cli.main time."""
    problems = []
    for name, _, _, parent in spans:
        if name != "splu":
            continue
        while parent >= 0 and spans[parent][0] not in SOLVES:
            parent = spans[parent][3]
        if parent < 0:
            problems.append("a splu span sits outside solve_screened/solve_harmonic")
            break
    roots = [k for k, s in enumerate(spans) if s[0] == ROOT]
    for r in roots:
        main_time = spans[r][2] - spans[r][1]
        covered = sum(s[2] - s[1] for s in spans if s[3] == r)
        if covered < COVERAGE_FLOOR * main_time - COVERAGE_SLACK_S:
            problems.append(f"top-level spans cover {covered:.4f} s of {main_time:.4f} s of cli.main")
    if not roots:
        problems.append("no cli.main span")
    return problems
