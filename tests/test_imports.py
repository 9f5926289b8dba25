"""Every name a package module imports is used in that module (or, in a
package ``__init__``, re-exported through ``__all__``), a module's
``__all__`` lists every public top-level definition and only names that
resolve, and neither the package's options (defaulted public parameters and
fields) nor its lines grow past a fixed count."""

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


#: Options in ``src/esscreen``, counted by :func:`options`.  Raising it needs
#: a CHANGES.md line naming the new option and the two callers that set it.
MAX_OPTIONS = 25

#: Lines of the ``.py`` files under ``src/esscreen``.  Raising it needs a
#: CHANGES.md line saying what the new lines buy.
MAX_SRC_LINES = 3195


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _has_default(node: ast.AnnAssign) -> bool:
    """An annotated dataclass field with a default (``ClassVar`` is no field;
    ``field(...)`` is a default only with ``default``/``default_factory``)."""
    if node.value is None or "ClassVar" in ast.unparse(node.annotation):
        return False
    value = node.value
    if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def options(source: str, module: str) -> list[str]:
    """Defaulted parameters of the public functions and methods, plus the
    defaulted fields of the public dataclasses, of one module."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_public(node.name):
                    continue
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults) :]
                named += [x for x, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                found.extend(f"{module}:{prefix}{node.name}({x.arg})" for x in named)
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    found.extend(
                        f"{module}:{node.name}.{st.target.id}"
                        for st in node.body
                        if isinstance(st, ast.AnnAssign)
                        and isinstance(st.target, ast.Name)
                        and _is_public(st.target.id)
                        and _has_default(st)
                    )
                visit(node.body, node.name + ".")

    visit(ast.parse(source).body, "")
    return found


def test_options_counted_by_the_rule():
    source = """
from dataclasses import dataclass, field
from typing import ClassVar

def f(a, b=1, *, c, d=2): ...
def _g(a=1): ...

@dataclass
class P:
    x: int
    y: int = 0
    z: dict = field(default_factory=dict)
    w: list = field(compare=False)
    v: ClassVar[int] = 3
    _u: int = 1
    def m(self, cap=None): ...
"""
    assert options(source, "m") == ["m:f(b)", "m:f(d)", "m:P.y", "m:P.z", "m:P.m(cap)"]


def test_option_count_does_not_grow():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        name
        for path in modules
        for name in options(path.read_text(), str(path.relative_to(SRC)))
    ]
    assert len(found) <= MAX_OPTIONS, found


def test_source_size_does_not_grow():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= MAX_SRC_LINES, lines
