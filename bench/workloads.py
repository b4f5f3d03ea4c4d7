"""Workload definitions and seeded config generation.

Every workload is a fixed list of operations.  An operation is one
``seglimit`` CLI call on a generated config, together with the check of
its outputs.  Configs are derived from the shipped ones in ``configs/``:
the benchmark overrides n, epsilon and the coupling weights where a
workload says so, and multiplies each component's boundary expressions by
an amplitude factor drawn from the workload seed.  The program receives
only the generated files.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 1
# amplitude factors are drawn uniformly from [1 - FACTOR_SPREAD, 1 + FACTOR_SPREAD];
# the spread is kept narrow because the sweep count of the fixed-eps
# solver, and with it the run time, moves with the data amplitude
FACTOR_SPREAD = 0.05


@dataclass(frozen=True)
class Spec:
    """A config as the benchmark knows it: parsed from a shipped file and
    rendered back to the config format after overrides."""

    name: str
    source: str  # stem of the shipped config
    kind: str
    domain: tuple[tuple[str, str], ...]  # (key, value) of [domain] except n
    n: int
    m: int
    epsilon: float
    alpha: tuple[float, ...]
    A: tuple[float, ...]
    pieces: tuple[tuple[tuple[str, str], ...], ...]  # per component: (selector, expr)
    tol_linear: float
    tol_fp: float
    max_sweeps: int
    factors: tuple[float, ...] = ()

    def domain_value(self, key: str) -> list[float]:
        return [float(v) for v in dict(self.domain)[key].split()]

    def render(self) -> str:
        lines = [f"# generated from configs/{self.source}.cfg", "[domain]"]
        lines += [f"{k} = {v}" for k, v in self.domain]
        lines += [f"n = {self.n}", "", "[system]", f"m = {self.m}",
                  f"epsilon = {self.epsilon!r}",
                  "alpha = [" + ", ".join(_num(a) for a in self.alpha) + "]",
                  "A = [" + ", ".join(_num(a) for a in self.A) + "]"]
        for i, comp in enumerate(self.pieces, start=1):
            lines += ["", f"[boundary.{i}]"]
            lines += [f'piece = "{sel}: {expr}"' for sel, expr in comp]
        lines += ["", "[solver]", f"tol_linear = {self.tol_linear!r}",
                  f"tol_fp = {self.tol_fp!r}", f"max_sweeps = {self.max_sweeps}"]
        return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _list(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.strip("[] ").replace(",", " ").split())


def parse_shipped(path: Path) -> Spec:
    """Read a shipped config.  Only the [system]/[domain]/[solver]/[boundary.i]
    layout of the files in configs/ is understood."""
    sections: dict[str, list[tuple[str, str]]] = {}
    section = ""
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").strip()
            continue
        key, _, value = line.partition("=")
        sections.setdefault(section, []).append((key.strip(), value.strip()))
    system = dict(sections["system"])
    solver = dict(sections["solver"])
    domain = sections["domain"]
    m = int(system["m"])
    pieces = []
    for i in range(1, m + 1):
        comp = []
        for _, value in sections[f"boundary.{i}"]:
            sel, _, expr = value.strip('"').partition(":")
            comp.append((sel.strip(), expr.strip()))
        pieces.append(tuple(comp))
    return Spec(
        name=path.stem,
        source=path.stem,
        kind=dict(domain)["kind"],
        domain=tuple((k, v) for k, v in domain if k != "n"),
        n=int(dict(domain)["n"]),
        m=m,
        epsilon=float(system["epsilon"]),
        alpha=_list(system["alpha"]),
        A=_list(system["A"]),
        pieces=tuple(pieces),
        tol_linear=float(solver["tol_linear"]),
        tol_fp=float(solver["tol_fp"]),
        max_sweeps=int(solver["max_sweeps"]),
    )


def scaled(spec: Spec, seed: int, name: str, **overrides) -> Spec:
    """Apply overrides and seeded per-component amplitude factors."""
    rng = random.Random(f"{seed}:{name}")
    factors = tuple(round(rng.uniform(1 - FACTOR_SPREAD, 1 + FACTOR_SPREAD), 4)
                    for _ in range(spec.m))
    pieces = tuple(
        tuple((sel, f"{f:.4f}*({expr})") for sel, expr in comp)
        for f, comp in zip(factors, spec.pieces)
    )
    return replace(spec, name=name, pieces=pieces, factors=factors, **overrides)


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``known_fault`` names the check that is expected to
    fail on this operation because of a fault in the program."""

    sub: str
    config: str
    args: tuple[str, ...] = ()
    known_fault: str = ""

    @property
    def label(self) -> str:
        return " ".join((self.sub, self.config) + self.args)


@dataclass
class Workload:
    name: str
    configs: dict  # generated config name -> (shipped stem, overrides)
    ops: tuple[Op, ...]


def _limit_ops(config: str, m: int) -> tuple[Op, ...]:
    return (
        Op("validate", config),
        Op("limit", config),
        Op("limit", config, ("--pivot", str(m))),
        Op("interfaces", config),
    )


# the limit-bound check of this operation fails because solve_limit
# ignores constant unequal weights: the emitted limit is not the eps -> 0
# limit of the weighted system (ROADMAP open item 3)
UNEQUAL_WEIGHT_FAULT = "limit-bound"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eps-2d",
            {
                "disk_m3-eps": ("disk_m3", {"n": 101, "epsilon": 1e-4}),
                "square_m4-eps": ("square_m4", {"n": 101, "epsilon": 1e-4}),
            },
            (Op("solve", "disk_m3-eps"), Op("solve", "square_m4-eps")),
        ),
        Workload(
            "eps-1d",
            {
                "line_m2": ("line_m2", {}),
                "line_m3": ("line_m3", {}),
                "line_m3-weighted": ("line_m3", {"n": 801, "A": (1.0, 1.0, 1.5)}),
            },
            (
                Op("compare", "line_m2"),
                Op("rate", "line_m3"),
                Op("compare", "line_m3-weighted", known_fault=UNEQUAL_WEIGHT_FAULT),
            ),
        ),
        Workload(
            "limit-2d",
            {
                "disk_m3": ("disk_m3", {}),
                "square_m4": ("square_m4", {}),
                "square_m4_overlap": ("square_m4_overlap", {}),
            },
            _limit_ops("disk_m3", 3) + _limit_ops("square_m4", 4)
            + _limit_ops("square_m4_overlap", 4),
        ),
    )
}


def generate(workload: Workload, seed: int, shipped_dir: Path, out_dir: Path) -> dict[str, Spec]:
    """Write the workload's configs for this seed; return them by name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = {}
    for name, (stem, overrides) in workload.configs.items():
        spec = scaled(parse_shipped(shipped_dir / f"{stem}.cfg"), seed, name, **overrides)
        (out_dir / f"{name}.cfg").write_text(spec.render())
        specs[name] = spec
    return specs


def slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")
