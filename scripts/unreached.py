#!/usr/bin/env python3
"""List the functions of seglimit that no shipped call enters.

    python3 scripts/unreached.py

Runs the 41 calls of ``scripts/reproduce_figures.py`` in this process
under ``sys.setprofile``, with their outputs in a temporary directory,
and prints every function defined in the imported ``seglimit`` package
(as ``module.qualname``) that none of them enters, less ``ALLOWED``.
The profile is set before seglimit is imported, so a function that runs
at import counts as entered.  Exit 0 when no function is left, 1 when
one is, and a call's exit code when a call fails.

A function is known by its file, its name and its first line, which for
a decorated function is the line of its first decorator
(``co_firstlineno``).
"""

import ast
import sys
import tempfile
from pathlib import Path

# functions that no successful call enters: the constructors of the error
# classes, and the sweep iteration, which only the tests' oracle runs.
# bench/spans.py traces initialize and sweep and tests/test_bench_spans.py
# pins them, so they stay in epsilon_solver until the benchmark drops them
ALLOWED = (
    "errors.ConfigError.__init__",
    "errors.SolverError.__init__",
    "epsilon_solver.initialize",
    "epsilon_solver.sweep",
)


def functions(package: Path) -> dict[tuple[str, int, str], str]:
    """Every function defined in the modules of ``package``, nested ones
    too: (file, first line, name) -> ``module.qualname``."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0] if child.decorator_list else child
                found[str(path), first.lineno, child.name] = prefix + child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.resolve().glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        # the script's own directory is on sys.path; imported under the
        # profile, as it imports seglimit
        import reproduce_figures as reproduce

        with tempfile.TemporaryDirectory() as out:
            code = reproduce.main(["--out", out])
    finally:
        sys.setprofile(None)
    if code:
        print(f"a call failed with exit {code}")
        return code
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in entered}
    names = functions(Path(reproduce.cli.__file__).parent)
    unreached = sorted(q for key, q in names.items() if key not in entered and q not in ALLOWED)
    for name in unreached:
        print(f"unreached: {name}")
    print(f"{len(unreached)} of {len(names)} functions unreached, {len(ALLOWED)} allowed")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
