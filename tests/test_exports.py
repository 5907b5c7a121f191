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
