"""The reference the tests compare against shares no code with the program."""

import ast
from pathlib import Path

import reference

TESTS = Path(__file__).resolve().parent

# the oracle helpers kept in the test modules, each with the kernels it checks
KEPT_HELPERS = {
    ("test_groups.py", "_continuous_by_any_rectangle"): {
        "set_product", "multiplication_continuous", "multiplication_continuous_via_product",
        "multiplication_continuity"},
    ("test_kernels.py", "_transitive"): {"transitive_rows", "is_transitive"},
    ("test_kernels.py", "_least_upper_bound"): {"sup_index", "sup_of", "columns"},
    ("test_topology.py", "_closed_pairwise"): {"Topology"},
    ("test_topology.py", "_preimage"): {"is_continuous", "down_mask"},
    ("test_topology.py", "_point_down_set_by_rows"): {"point_down_set", "columns"},
}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_the_reference_imports_no_nestkit():
    for path in (TESTS / "reference.py", Path(reference.O.__file__)):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "nestkit" for m in modules), path.name


def test_no_kept_oracle_helper_calls_the_kernel_it_checks():
    for (module, helper), kernels in KEPT_HELPERS.items():
        tree = ast.parse((TESTS / module).read_text(encoding="utf-8"))
        [body] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == helper]
        assert not _names(body) & kernels, (module, helper)
