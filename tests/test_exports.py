"""Every exported name resolves, and so does every function the perfbench
tracer wraps: deleting a traced function would otherwise break
``perfbench/run.py --trace 1`` without failing any other test."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import qtreehahn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_exports_and_traced_functions_resolve():
    # __all__ of every module, and every name the package imports
    for info in pkgutil.iter_modules(qtreehahn.__path__):
        module = importlib.import_module(f"qtreehahn.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"qtreehahn.{info.name}.{name}"
    init = ast.parse(Path(qtreehahn.__file__).read_text())
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"qtreehahn.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"qtreehahn.{node.module}.{alias.name}"

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for qualname in tracer.TRACED:
        mod_name, fn_name = qualname.split(".")
        module = importlib.import_module(f"qtreehahn.{mod_name}")
        assert callable(getattr(module, fn_name, None)), qualname


def test_no_module_imports_a_name_it_never_uses():
    # `__init__.py` imports names only to re-export them.  A name counts as
    # used when it is read anywhere in the module; docstrings do not count.
    package = Path(qtreehahn.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"


def test_every_private_helper_is_read_by_the_package():
    # A top-level `_name` function or class serves only the package, so one
    # that no package module reads outside its own definition is dead code.
    # Reads are names and attribute names, taken per top-level statement.
    package = Path(qtreehahn.__file__).parent
    reads = []  # (module, statement index, names read there)
    helpers = []  # (module, statement index, helper name)
    for path in sorted(package.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            reads.append((path.name, i, names))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                helpers.append((path.name, i, stmt.name))
    assert helpers
    dead = [
        f"{module}:{name}"
        for module, i, name in helpers
        if not any(name in names for m, j, names in reads if (m, j) != (module, i))
    ]
    assert not dead, f"private helpers nothing reads: {dead}"
