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

A column is compared as numbers in the rows where both cells parse as
floats, and as text in the others, such as rate.csv's row of a failed
rung (``0.01,-,failed,failed``); a column with text cells reports how
many of them differ.  The relative difference is
``|a - b| / max(|a|, |b|)``.  A value that is NaN on one side only counts
as an infinite difference.  The exit status is 0 when every difference
is zero, no text cell differs and no file is missing on either side,
else 1.
"""

import argparse
import sys
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[list[str], list[np.ndarray]]:
    """The column names and cell texts of a CSV written by the CLI, its
    comment lines' ``key=value`` values appended as one-row columns."""
    lines = path.read_text().splitlines()
    comments = [tok.split("=", 1) for line in lines if line.startswith("#")
                for tok in line[1:].split() if "=" in tok]
    data = [line for line in lines if line and not line.startswith("#")]
    header = data[0].split(",")
    rows = np.array([row.split(",") for row in data[1:]], dtype=object).reshape(-1, len(header))
    columns = [rows[:, k] for k in range(len(header))]
    columns += [np.array([value], dtype=object) for _, value in comments]
    return header + [key for key, _ in comments], columns


def as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def differences(x: np.ndarray, y: np.ndarray) -> tuple[float, float, int, int]:
    """The largest absolute and relative difference of two columns of cell
    texts over the rows where both cells parse as floats, and how many of
    the other rows there are and how many of them differ as text."""
    parsed = [(as_float(c), as_float(d)) for c, d in zip(x, y)]
    numeric = np.array([p is not None and q is not None for p, q in parsed], dtype=bool)
    a, b = np.array([pq for pq, ok in zip(parsed, numeric) if ok], dtype=float).reshape(-1, 2).T
    text = int(np.count_nonzero(~numeric))
    text_diff = int(np.count_nonzero(x[~numeric] != y[~numeric]))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    abs_diff, rel_diff = (float(np.where(same, 0.0, np.nan_to_num(d, nan=np.inf)).max(initial=0.0))
                          for d in (diff, rel))
    return abs_diff, rel_diff, text, text_diff


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
            abs_diff, rel_diff, text, text_diff = differences(x, y)
            same &= abs_diff == 0.0 and text_diff == 0
            line = f"{rel} {name} abs {abs_diff:.3g} rel {rel_diff:.3g}"
            lines.append(line + (f" text {text_diff} of {text} differ" if text else ""))
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
