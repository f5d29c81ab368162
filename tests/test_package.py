"""The package's public surface: ``__all__`` and the names ``__init__`` imports."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import crossed_commutant


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(crossed_commutant.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(crossed_commutant.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in crossed_commutant.__all__:
        assert getattr(crossed_commutant, name) is not None


_REIMPORT = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "crossed_commutant" or m.startswith("crossed_commutant.")]:
        del sys.modules[name]
    return importlib.import_module("crossed_commutant")

first = fresh()
refs = {name: weakref.ref(getattr(first, name)) for name in ("CoefficientVector", "RealLinePartition", "PieceMap")}
del first
fresh()
fresh()
gc.collect()
print(sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_a_fresh_import_lets_the_previous_generation_go():
    # in a subprocess, so that no other test sees sys.modules swapped
    src = str(Path(crossed_commutant.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"  # no class of the first generation is still alive


def _third_party_imports(source: str) -> list[str]:
    """The absolute imports in ``source`` whose top-level package is not in the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_src_imports_only_the_standard_library():
    package = Path(crossed_commutant.__file__).parent
    found = {
        path.name: _third_party_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    assert len(found) >= 11
    assert {name: bad for name, bad in found.items() if bad} == {}
    # the guard itself sees a third-party import in each form, even one nested in a function
    sample = "import os.path, numpy.linalg\nfrom . import x\nfrom .y import z\ndef f():\n    from hypothesis import given\n"
    assert _third_party_imports(sample) == ["numpy.linalg", "hypothesis"]
