#!/usr/bin/env python3
"""Compare two output trees of ``scripts/reproduce_figures.py``.

    python3 scripts/compare_outputs.py OLD NEW

For every CSV file in both trees it prints one line per column: the
file, the column, and the largest absolute and relative difference of
the column's values, row by row.  The numbers of a comment line
``# key=value ...`` (rate.csv's fitted slope) are columns too, named by
their keys.  Any other file (grid.txt, report.txt) gets one line,
``identical`` or ``differs``.  Files present in one tree only are listed,
and ``manifest.json`` is skipped: it holds the run's time.  A CSV whose
header or row count differs is reported so, not compared.

The relative difference is ``|a - b| / max(|a|, |b|)``.  A value that is
NaN on one side only counts as an infinite difference.  The exit status
is 0 when every difference is zero and no file is missing on either
side, else 1.
"""

import argparse
import sys
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[list[str], list[np.ndarray]]:
    """The column names and values of a CSV written by the CLI, its
    comment lines' ``key=value`` numbers appended as one-row columns."""
    lines = path.read_text().splitlines()
    comments = [tok.split("=", 1) for line in lines if line.startswith("#")
                for tok in line[1:].split() if "=" in tok]
    data = [line for line in lines if line and not line.startswith("#")]
    header = data[0].split(",")
    rows = np.array([row.split(",") for row in data[1:]], dtype=float).reshape(-1, len(header))
    columns = [rows[:, k] for k in range(len(header))]
    columns += [np.array([float(value)]) for _, value in comments]
    return header + [key for key, _ in comments], columns


def differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The largest absolute and relative difference of two columns."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    return tuple(float(np.where(same, 0.0, np.nan_to_num(d, nan=np.inf)).max(initial=0.0))
                 for d in (diff, rel))


def compare(old: Path, new: Path) -> tuple[list[str], bool]:
    """The report lines, and whether the trees hold the same data."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"}

    old_files, new_files = files(old), files(new)
    lines = [f"only in {old}: {p}" for p in sorted(old_files - new_files)]
    lines += [f"only in {new}: {p}" for p in sorted(new_files - old_files)]
    same = not lines
    for rel in sorted(old_files & new_files):
        a, b = old / rel, new / rel
        if rel.suffix != ".csv":
            identical = a.read_bytes() == b.read_bytes()
            same &= identical
            lines.append(f"{rel} {'identical' if identical else 'differs'}")
            continue
        (names_a, cols_a), (names_b, cols_b) = read_csv(a), read_csv(b)
        shapes = [c.size for c in cols_a], [c.size for c in cols_b]
        if names_a != names_b or shapes[0] != shapes[1]:
            same = False
            lines.append(f"{rel} columns or rows differ: {names_a} x {len(cols_a[0])} "
                         f"vs {names_b} x {len(cols_b[0])}")
            continue
        for name, x, y in zip(names_a, cols_a, cols_b):
            abs_diff, rel_diff = differences(x, y)
            same &= abs_diff == 0.0
            lines.append(f"{rel} {name} abs {abs_diff:.3g} rel {rel_diff:.3g}")
    return lines, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    lines, same = compare(args.old, args.new)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
