"""Every name a package module imports is used in that module (or, in a
package ``__init__``, re-exported through ``__all__``), a module's
``__all__`` lists every public top-level definition and only names that
resolve, and neither the package's options (defaulted public parameters and
fields) nor its lines grow past a fixed count, and scipy stays off the import
path of everything but an inverse-Wishart draw."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def module_name(path: Path) -> str:
    """Dotted name of the package module at ``path``."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_all_lists_exactly_resolvable_public_names():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unresolved, unlisted = {}, {}
    for path in modules:
        name = module_name(path)
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
MAX_OPTIONS = 24

#: Lines of the ``.py`` files under ``src/esscreen``.  Raising it needs a
#: CHANGES.md line saying what the new lines buy.
MAX_SRC_LINES = 3181


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


#: Run in a fresh interpreter (the test process has scipy loaded): import
#: every package module, plan and screen the paper book under the one-factor
#: covariance, evaluate the robust bound with c > 0, and print which scipy
#: modules are loaded before and after an inverse-Wishart draw.
_FOOTPRINT = """
import importlib, json, sys
import numpy as np
for name in NAMES:
    importlib.import_module(name)
from esscreen.bounds import SubGammaParams, robust_gap_max
from esscreen.model import (
    EquicorrelatedSpec, NIWParams, ScenarioParams, sample_niw, synthetic_book,
)
from esscreen.planner import PlanningGrid, dp_optimize
from esscreen.screener import GaussianSource, run_screening
from esscreen.streams import substream

q_grid = (6, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100, 150, 200, 253)
n_grid = (1000, 2000, 4000, 6000, 10_000, 17_000, 25_000, 40_000, 60_000,
          100_000, 150_000, 250_000, 400_000, 700_000, 1_000_000, 1_500_000)
theta = ScenarioParams.equicorrelated(
    synthetic_book(253, 2766.0), EquicorrelatedSpec(2.2e6, 0.6)
)
grid = PlanningGrid(q_grid=q_grid, n_grid=n_grid, budget=10**7, levels=4)
plan, _ = dp_optimize(grid, theta, SubGammaParams())
run_screening(plan, GaussianSource(theta, substream(0, 0)))
assert robust_gap_max(37, 1e-6, 50.0, 3.0, SubGammaParams(c=2.0)) > 0
scipy = ("scipy.optimize", "scipy.linalg")
before = [m for m in scipy if m in sys.modules]
prior = NIWParams(m=np.zeros(3), k=1.0, i=6.0, s=np.eye(3), index_map=np.arange(3))
sample_niw(prior, substream(0, 1))
print(json.dumps([before, [m for m in scipy if m in sys.modules]]))
"""


def test_scipy_is_imported_only_for_inverse_wishart_draws():
    names = [module_name(path) for path in sorted(SRC.rglob("*.py"))]
    script = f"NAMES = {names!r}\n" + _FOOTPRINT
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    before, after = json.loads(out.stdout.splitlines()[-1])
    assert before == []
    assert after == ["scipy.linalg"]
