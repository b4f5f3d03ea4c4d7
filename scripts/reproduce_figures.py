#!/usr/bin/env python3
"""Reproduce the experiment outputs for the shipped configs.

For each config this runs ``validate``, ``solve``, ``compare``, ``rate``
and ``interfaces``, and ``limit`` at every pivot 1..m, in this process,
with each subcommand's default flags.  The outputs go to
out/<name>/<subcommand>/, limit's to out/<name>/limit-pivot<k>/.  A
config that fails ``validate`` gets no other call.  Each call's line
gives its exit status and wall time, and the last line the total time.
The exit code is the largest of the calls'.

Two runs, at two commits or on two machines, compare with
``diff -r --exclude=manifest.json``: the manifests hold the run's time.
"""

import argparse
import sys
import time
from pathlib import Path

from seglimit import cli

CONFIGS = ["line_m2", "line_m3", "disk_m3", "square_m4", "square_m4_overlap"]
SUBCOMMANDS = ("solve", "compare", "rate", "interfaces")


def run(argv: list[str], out: Path) -> int:
    t0 = time.perf_counter()
    code = cli.main([*argv, "--out", str(out)])
    print(f"{out}: exit {code} in {time.perf_counter() - t0:.2f} s")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs-dir", default=str(Path(__file__).resolve().parents[1] / "configs"))
    parser.add_argument("--out", default="out")
    parser.add_argument("--only", nargs="*", choices=CONFIGS, default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    codes = []
    for name in args.only or CONFIGS:
        cfg_path = str(Path(args.configs_dir) / f"{name}.cfg")
        out = Path(args.out) / name
        codes.append(run(["validate", cfg_path], out / "validate"))
        if codes[-1]:
            continue  # every other call would refuse the config too
        for sub in SUBCOMMANDS:
            codes.append(run([sub, cfg_path], out / sub))
        for pivot in range(1, cli.parse_config(cfg_path).data.m + 1):
            codes.append(run(["limit", cfg_path, "--pivot", str(pivot)], out / f"limit-pivot{pivot}"))
    print(f"{len(codes)} calls in {time.perf_counter() - t0:.2f} s")
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
