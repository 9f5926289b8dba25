"""Every name a package module imports is used in that module (or, in a
package ``__init__``, re-exported through ``__all__``), and a module's
``__all__`` lists every public top-level definition and only names that
resolve."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "esscreen"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a quoted annotation names its types inside a string
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names = ast.walk(ast.parse(ann.value))
            used |= {n.id for n in names if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(set(imported) - used)


def test_no_unused_imports():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = {
        str(path.relative_to(SRC)): names
        for path in modules
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def public_defs(source: str) -> list[str]:
    """Names of the module's top-level functions and classes without a
    leading underscore."""
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node.name
        for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def test_all_lists_exactly_resolvable_public_names():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unresolved, unlisted = {}, {}
    for path in modules:
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        if not hasattr(module, "__all__"):
            continue  # every public name is exported
        listed = module.__all__
        if missing := [n for n in listed if not hasattr(module, n)]:
            unresolved[name] = missing
        if extra := [n for n in public_defs(path.read_text()) if n not in listed]:
            unlisted[name] = extra
    assert unresolved == {}
    assert unlisted == {}
