#!/usr/bin/env python3
"""Convergence-rate sweep: distance between the fixed-epsilon solution and
the explicit limit across a geometric ladder of epsilon values.

The theoretical bound for the pivot component in the L^{m+1} norm is
O(epsilon^{1/(m+1)}); the fitted log-log slope lands in rate.csv.
"""

import argparse
import sys
from pathlib import Path

from seglimit import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", help="config file path")
    parser.add_argument("--out", default="out/rate")
    parser.add_argument("--start", type=float, default=1e-2)
    parser.add_argument("--stop", type=float, default=1e-6)
    parser.add_argument("--count", type=int, default=5)
    args = parser.parse_args()

    code = cli.main([
        "rate", args.config, "--out", args.out,
        "--start", str(args.start), "--stop", str(args.stop),
        "--count", str(args.count),
    ])
    if code == 0:
        print((Path(args.out) / "rate.csv").read_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
