"""The function index and the allow-list of ``scripts/unreached.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("unreached", ROOT / "scripts" / "unreached.py")
unreached = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached)

MODULE = '''import functools


def top():
    def inner():
        pass


class Box:
    @property
    def size(self):
        return 1

    @staticmethod
    @functools.cache
    def make():
        return Box()
'''


def test_functions_are_keyed_by_first_decorator_line(tmp_path):
    # a decorated function's code starts at its first decorator
    (tmp_path / "mod.py").write_text(MODULE)
    path = str(tmp_path.resolve() / "mod.py")
    assert unreached.functions(tmp_path) == {
        (path, 4, "top"): "mod.top",
        (path, 5, "inner"): "mod.top.inner",
        (path, 10, "size"): "mod.Box.size",
        (path, 14, "make"): "mod.Box.make",
    }
    ns = {}
    exec(compile(MODULE, path, "exec"), ns)
    assert ns["Box"].size.fget.__code__.co_firstlineno == 10
    assert ns["Box"].make.__wrapped__.__code__.co_firstlineno == 14


def test_allowed_names_are_package_functions():
    # a stale entry, renamed or moved out of the package, fails here
    names = set(unreached.functions(ROOT / "src" / "seglimit").values())
    assert set(unreached.ALLOWED) <= names
