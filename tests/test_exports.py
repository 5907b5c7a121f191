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
