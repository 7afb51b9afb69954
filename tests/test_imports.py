"""Every imported name in the package, its tests and the
README's Python quickstart is used, and every exported name exists.

No linter is configured for the project, so this scans each module's
syntax tree: an imported name must be read somewhere in the module or
be listed in its ``__all__``.  Since a listed name counts as used, each
``__all__`` entry must also resolve on the imported module, or
``from gramsel import *`` would fail.  Every gramsel name that the
benchmark's tracer (``perfbench/spans.py``) wraps must exist as well.
Placement builds its Lyapunov solver in one place, one helper forms and
checks every ``b b^T``, one comparison states the Hurwitz margin rule, one
call picks a solver's modal path, shape errors come from the one array
validator in ``numerics``, only the input checks and ``numerics.finite`` test
finiteness, and no module imports another's private name.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gramsel").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_no_unused_imports_in_readme_quickstart():
    # the python blocks joined as one script, as tests/test_cli.py runs them
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert unused_imports(ast.parse("\n".join(blocks))) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom json import dumps as d, loads\n"
                     "__all__ = ['loads']\nos.getcwd()\n")
    assert unused_imports(tree) == ["line 1: math", "line 3: d"]


@pytest.mark.parametrize("name", [
    "gramsel" if p.stem == "__init__" else f"gramsel.{p.stem}" for p in PACKAGE])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_benchmark_span_targets_resolve():
    # the traced benchmark wraps these gramsel names and raises LookupError
    # for any that is gone, so a rename fails here rather than in the benchmark
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer().installed():
        pass


def test_placement_builds_its_solver_in_one_place():
    # calls, not text: the solver property's docstring names LyapunovSolver too
    tree = ast.parse((ROOT / "src" / "gramsel" / "placement.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "LyapunovSolver"]
    assert len(calls) == 1, calls


def test_the_outer_product_rule_is_stated_once():
    # numerics.outer_sum forms and checks every b b^T; a second copy of its rule would drift
    count = sum(path.read_text(encoding="utf-8").count("b b^T overflows") for path in PACKAGE)
    assert count == 1


def isfinite_calls(tree):
    """``scoped`` lines of each call of an ``isfinite``, such as ``np.isfinite`` or
    ``math.isfinite``."""
    return scoped(tree, lambda node: isinstance(node, ast.Call) and "isfinite" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def test_scan_finds_isfinite_calls():
    tree = ast.parse("import math\nmath.isfinite(1.0)\ndef f(x):\n"
                     "    return np.isfinite(x).all()\nfrom numpy import isfinite\nisfinite(2)\n")
    assert isfinite_calls(tree) == {2: None, 4: "f", 6: None}


def test_the_finiteness_rule_is_stated_once():
    # numerics.finite makes every non-finite result a NumericalError, and as_array and
    # as_number check the inputs; a hand-written copy elsewhere would drift
    allowed = {("numerics.py", "as_array"), ("numerics.py", "as_number"), ("numerics.py", "finite")}
    calls = [(path.name, name, line) for path in PACKAGE
             for line, name in isfinite_calls(ast.parse(path.read_text("utf-8"))).items()
             if (path.name, name) not in allowed]
    assert calls == []


def test_the_hurwitz_margin_rule_is_stated_once():
    # LyapunovSolver compares the abscissa with -_HURWITZ_MARGIN eps ||A||_1; a second
    # copy would drift
    def names_margin(node):
        return any(getattr(leaf, "id", None) == "_HURWITZ_MARGIN" for leaf in ast.walk(node))

    count = sum(names_margin(node) for path in PACKAGE
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Compare))
    assert count == 1


def test_the_modal_path_is_chosen_once():
    # LyapunovSolver.__init__ alone tests A for the second-order form, so a solver's
    # forward solves take one path for its whole life
    calls = [(path.name, scope.name) for path in PACKAGE
             for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(scope, ast.FunctionDef) for node in ast.walk(scope)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_modes"]
    assert calls == [("gramian.py", "__init__")]


def scoped(tree, matches):
    """{line: innermost enclosing function name (None at module level)} of each node
    for which ``matches(node)`` is true."""
    found = {}
    scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in [tree, *scopes]:  # ast.walk is breadth-first: inner scopes come last
        for node in ast.walk(scope):
            if matches(node):
                found[node.lineno] = getattr(scope, "name", None)
    return found


def dimension_errors(tree):
    """``scoped`` lines of each ``raise DimensionError``."""
    def raises(node):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        return getattr(getattr(exc, "func", exc), "id", None) == "DimensionError"

    return scoped(tree, raises)


def test_scan_finds_dimension_errors():
    tree = ast.parse("raise DimensionError\ndef f():\n    def g():\n"
                     "        raise DimensionError('x')\n    raise ValueError('y')\n")
    assert dimension_errors(tree) == {1: None, 4: "g"}


def test_shape_errors_come_from_the_array_validator():
    # numerics.as_array checks every array against the shape it must have
    raised = [(path.name, name, line) for path in PACKAGE if path.name != "numerics.py"
              for line, name in dimension_errors(ast.parse(path.read_text("utf-8"))).items()]
    assert raised == []


def private_imports(tree):
    """``from <gramsel module> import _name`` lines; dunders such as __version__ are public."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "gramsel")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_scan_finds_private_imports():
    tree = ast.parse("from .gramian import _split, solve\nfrom . import __version__, _x\n"
                     "from gramsel.models import _fields\nfrom os import _exit\n")
    assert private_imports(tree) == ["line 1: _split", "line 2: _x", "line 3: _fields"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
