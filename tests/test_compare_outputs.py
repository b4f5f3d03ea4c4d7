"""The compare mode for two output trees, ``scripts/compare_outputs.py``."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def make_tree(root: Path) -> Path:
    solve = root / "line" / "solve"
    solve.mkdir(parents=True)
    (solve / "solve_fields.csv").write_text("x,u1,u2\n0,1,0\n0.5,0.25,0.25\n1,0,1\n")
    (solve / "grid.txt").write_text("# dims=3 h=0.5 origin=0.0\nBIB\n")
    (solve / "manifest.json").write_text('{"wall_time_s": 1.0}\n')
    rate = root / "line" / "rate"
    rate.mkdir()
    (rate / "rate.csv").write_text("epsilon,comp,sup_dist\n0.01,1,0.5\n# slope=0.5 fit_residual=0.01\n")
    return root


def test_identical_trees_report_zero(tmp_path, capsys):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new")
    (new / "line" / "solve" / "manifest.json").write_text('{"wall_time_s": 2.0}\n')
    assert compare_outputs.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "line/solve/grid.txt identical" in lines
    assert "line/rate/rate.csv slope abs 0 rel 0" in lines
    columns = [line for line in lines if " abs " in line]
    assert len(columns) == 8 and all(line.endswith("abs 0 rel 0") for line in columns)
    assert not any("manifest" in line for line in lines)


def test_one_ulp_names_file_column_and_size(tmp_path, capsys):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new")
    moved = float(np.nextafter(0.25, 1.0))
    (new / "line" / "solve" / "solve_fields.csv").write_text(
        f"x,u1,u2\n0,1,0\n0.5,{moved!r},0.25\n1,0,1\n")
    shutil.rmtree(new / "line" / "rate")
    assert compare_outputs.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    ulp = moved - 0.25
    assert f"line/solve/solve_fields.csv u1 abs {ulp:.3g} rel {ulp / moved:.3g}" in lines
    assert "line/solve/solve_fields.csv u2 abs 0 rel 0" in lines
    assert f"only in {old}: line/rate/rate.csv" in lines


def fail_rung(tree: Path, epsilon: str) -> None:
    """Rewrite the rung ``epsilon`` of the tree's rate.csv as a failed one."""
    path = tree / "line" / "rate" / "rate.csv"
    lines = [f"{epsilon},-,failed" if line.startswith(epsilon + ",") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


def test_identical_trees_with_a_failed_rung_compare_equal(tmp_path, capsys):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new")
    for tree in (old, new):
        fail_rung(tree, "0.01")
    assert compare_outputs.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "line/rate/rate.csv epsilon abs 0 rel 0" in lines
    assert "line/rate/rate.csv comp abs 0 rel 0 text 0 of 1 differ" in lines
    assert "line/rate/rate.csv sup_dist abs 0 rel 0 text 0 of 1 differ" in lines


def test_rung_failed_on_one_side_names_file_and_column(tmp_path, capsys):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new")
    fail_rung(new, "0.01")
    assert compare_outputs.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "line/rate/rate.csv epsilon abs 0 rel 0" in lines
    assert "line/rate/rate.csv comp abs 0 rel 0 text 1 of 1 differ" in lines
    assert "line/rate/rate.csv sup_dist abs 0 rel 0 text 1 of 1 differ" in lines
