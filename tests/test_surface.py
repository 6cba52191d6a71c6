"""The public surface of nestkit is what the program calls.

Read off the source with `ast`: every name the benchmark looks up resolves,
and every public function and every public method of a public class under
``src/nestkit`` has a caller there, outside its own definition, save the
`KEPT` names, each with its reason.  The suites and search targets are
called through their registries, so their decorators exempt them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "nestkit"
PERFBENCH = ROOT / "perfbench"

# (module, qualified name) -> why it stays without a caller in the program
SPANNED = "spanned by perfbench/tracer.py, which looks it up by name when it installs"
KEPT = {
    ("analysis", "sup_of"): SPANNED,
    ("bounds", "has_lower_bound"): SPANNED,
    ("orders", "compose"): SPANNED,
    ("orders", "rectangle"): SPANNED,
    ("orders", "relation_issubset"): SPANNED,
    ("topology", "up_set"): SPANNED + "; perfbench/workloads.py imports it",
    ("topology", "down_set"): SPANNED + "; perfbench/workloads.py imports it",
    ("orders", "order_rows_via_rectangles"):
        "the rectangle route of the generated order, the tests' oracle of the packed product",
    ("orders", "rectangle_t0_rows"):
        "the rectangle route of T0, the tests' oracle of the packed T0 check",
    ("orders", "irreflexive_rows"): "the tests' oracle of the packed irreflexive check",
    ("bounds", "covering_subfamilies"): "the tests' oracle of the bound-covers cover count",
    ("topology", "Regions.unpack"): "the tests read every packed region table through it",
    ("serialize", "instance_to_dict"):
        "the dump side of `instance_from_dict`: the only writer of topology, relation and "
        "group documents, which the round-trip tests read back",
}

# decorators that register a function with a runner
REGISTRIES = {"_suite", "_target"}


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    value = importlib.import_module(module)
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def test_every_traced_name_resolves():
    tracer = _load(PERFBENCH / "tracer.py")
    names = {**tracer.SPANNED, **tracer.COUNTED}
    assert names
    for module, attr in names:
        assert callable(_resolve(module, attr)), (module, attr)


def test_every_name_the_workloads_import_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    seen = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nestkit":
            package = importlib.import_module(node.module)
            for alias in node.names:
                # `from package import module` binds a submodule
                if not hasattr(package, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                assert hasattr(package, alias.name), (node.module, alias.name)
                seen += 1
    assert seen


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def _public_definitions(trees):
    """(module, qualified name, node) of every public function and every
    public method of a public class, bar the registered ones."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                pairs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                pairs = [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qualname, item in pairs:
                registered = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in REGISTRIES
                                 for d in item.decorator_list)
                if not item.name.startswith("_") and not registered:
                    yield module, qualname, item


def _imported_from(tree):
    """bound name -> (module, name), for each ``from .module import name``
    (or ``from nestkit.module import name as bound``) anywhere in a module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.removeprefix("nestkit.") if node.level == 0 else node.module
            for alias in node.names:
                out[alias.asname or alias.name] = (source, alias.name)
    return out


def _uncalled(trees):
    """The public definitions with no caller: a function is called by its
    name in its own module or in a module importing it, or as an attribute
    anywhere (``orders.compose``); a method only as an attribute."""
    # (module, line, referent): a bare name resolves to the (module, name)
    # it is bound from, an attribute is its name alone
    references = []
    for module, tree in trees.items():
        imports = _imported_from(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.lineno, imports.get(node.id, (module, node.id))))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.lineno, node.attr))
    out = set()
    for module, qualname, node in _public_definitions(trees):
        name = qualname.rsplit(".", 1)[-1]
        referents = {name} if "." in qualname else {name, (module, name)}
        own = range(node.lineno, node.end_lineno + 1)
        if not any(referent in referents and not (where == module and line in own)
                   for where, line, referent in references):
            out.add((module, qualname))
    return out


def test_every_public_definition_has_a_caller_or_a_reason():
    trees = _trees()
    defined = {(module, qualname) for module, qualname, _ in _public_definitions(trees)}
    assert set(KEPT) <= defined, sorted(set(KEPT) - defined)
    uncalled = _uncalled(trees)
    # a name without a caller is deleted or kept with its reason, and a kept
    # name that gains a caller leaves the list
    assert uncalled - set(KEPT) == set(), sorted(uncalled - set(KEPT))
    assert set(KEPT) - uncalled == set(), sorted(set(KEPT) - uncalled)
    for module, qualname in KEPT:
        assert callable(_resolve(f"nestkit.{module}", qualname))
