"""Every exported name resolves, the lazy ones of `classical` too, and so
does every function the perfbench tracer wraps or reads the cache of:
deleting a traced function, or the cache of one, would otherwise break
``perfbench/run.py --trace 1`` without failing any other test."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

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
            if node.module is None:  # `from . import classical`: submodules
                for alias in node.names:
                    importlib.import_module(f"qtreehahn.{alias.name}")
                continue
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
    # the tracer reads `cache_info()` of each CACHED function, through the
    # original it keeps for a TRACED name
    assert set(tracer.CACHED) <= set(tracer.TRACED)
    for qualname in tracer.CACHED:
        mod_name, fn_name = qualname.split(".")
        module = importlib.import_module(f"qtreehahn.{mod_name}")
        assert callable(getattr(getattr(module, fn_name), "cache_info", None)), qualname


# What `from qtreehahn import *` bound before the package listed `__all__`:
# every public name that `__init__` imported, and the submodules it loaded.
STAR_NAMES = (
    "ConnectionMatrix", "DimensionMismatch", "EmptyDomain", "GridFunction", "Hahn1DSpec",
    "IndexOutOfRange", "InvalidSlice", "MoveRecord", "NonConsecutiveLeaves",
    "NonSquareRadicand", "NotInKernel", "NotRightReachable", "OutsidePositivityRegime",
    "ParamSet", "ParseError", "PlanarTree", "QContext", "Racah1DSpec", "RightChildIsLeaf",
    "TreeBasisElement", "ZeroDenominator", "all_trees", "apply_D", "apply_D_at_vertex",
    "apply_L", "apply_R", "apply_move", "as_fraction", "basis", "check_identity",
    "child_sums", "coefficient_sums", "comb_connection_product", "composition_count",
    "connect", "connection_by_path", "connection_oracle", "dunkl_expansion_coeffs",
    "eigenvalue", "enumerate_compositions", "enumerate_labelings", "eval_Q", "find_rl_path",
    "gasper_rahman_racah", "gr_conversion_factor", "gr_correspondence_cases",
    "gr_correspondence_check", "gr_racah_bridge", "gr_substitution", "gr_weight_factor",
    "hahn1d", "hahn_eval", "hahn_norm", "hahn_row", "hahn_via_phi2", "hahn_via_raising",
    "inner_product", "kernel_basis", "kernel_interpolation_basis", "lattice", "left_comb",
    "multihahn", "norm_Q", "norm_squared", "one_move_coefficients", "parse_tree",
    "partial_sums", "phi_sum", "pochhammer", "pochhammer_many", "q_binomial", "q_factorial",
    "qnum", "qops", "racah", "racah_eval", "raise_basis_element", "raise_chain", "rank_of",
    "rational_sqrt", "right_comb", "rl_neighbors", "spectral_decomposition_check",
    "theta_polynomial", "three_dim_racah_example_cases", "three_dim_racah_example_check",
    "transplant_right_to_left", "trees", "vandermonde_sum_check", "verify_hahn_recurrences",
    "verify_operator_algebra", "vertex_eigenvalue", "weight", "xi_norm", "xi_polynomial",
)


def test_lazy_exports_resolve_and_are_listed():
    # the names `classical` exports are the package's lazy ones, and each
    # resolves to the same object from either module
    from qtreehahn import classical

    assert list(qtreehahn._LAZY) == classical.__all__
    listed = set(dir(qtreehahn))
    for name in qtreehahn._LAZY:
        assert getattr(qtreehahn, name) is getattr(classical, name), name
        assert name in listed and name in qtreehahn.__all__, name
    assert len(set(qtreehahn.__all__)) == len(qtreehahn.__all__)
    assert set(qtreehahn.__all__) <= listed
    namespace = {}
    exec("from qtreehahn import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(STAR_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        qtreehahn.not_an_export


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
