"""Source hygiene: every import in the library modules is used, the oracle
stays independent of the exact simplex it cross-checks, and no library
function, class or method is reachable only from the tests.

``__init__.py`` is skipped by the unused-import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path
from typing import Iterable, Mapping

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nearfair"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "Bundle"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            expr = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    assert unused_imports("import os\nfrom typing import Optional\nx: Optional[int] = 1\n") == [
        "os (line 1)"
    ]
    assert unused_imports('from .model import Bundle\ndef f() -> "Bundle": ...\n') == []


def test_library_modules_have_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def exactlp_imports(source: str) -> set[str]:
    """Names a module takes from ``exactlp``; ``"exactlp"`` for the module itself."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if module == "exactlp":
                    names.add(alias.name)
                elif alias.name == "exactlp":
                    names.add("exactlp")
        elif isinstance(node, ast.Import):
            names |= {"exactlp" for alias in node.names if alias.name.endswith(".exactlp")}
    return names


def test_exactlp_import_detector():
    assert exactlp_imports("from .exactlp import LinearProgram, solve_vertex\n") == {
        "LinearProgram",
        "solve_vertex",
    }
    assert exactlp_imports("from . import exactlp\nimport nearfair.exactlp\n") == {"exactlp"}
    assert exactlp_imports("from .model import Bundle\n") == set()


def test_oracle_shares_only_the_lp_model_and_row_kernel():
    """``vertex_enumerate`` is the independent check on the exact simplex, so
    the oracle may not run any of it (``solve_vertex``, ``_Tableau``, ...)."""
    names = exactlp_imports((SRC / "oracle.py").read_text())
    assert names <= {"LinearProgram", "Row"}, sorted(names)


def _is_utility_call(node: ast.AST) -> bool:
    """``utilities.of(...)``, also reached through an attribute (``h.utilities.of``)."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "of"
    ):
        return False
    owner = node.func.value
    return (isinstance(owner, ast.Name) and owner.id == "utilities") or (
        isinstance(owner, ast.Attribute) and owner.attr == "utilities"
    )


def inline_utility_sums(source: str) -> list[int]:
    """Lines of ``sum(...)`` calls whose generator multiplies a utility by a value."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
        ):
            continue
        products = [
            n for n in ast.walk(node.args[0].elt)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        ]
        if any(_is_utility_call(n.left) or _is_utility_call(n.right) for n in products):
            lines.append(node.lineno)
    return lines


def test_inline_utility_sum_detector():
    assert inline_utility_sums(
        "u = sum((utilities.of(a, q) * v for (a, q), v in x.values.items()), ZERO)\n"
        "w = sum(v * h.utilities.of(*e) for e, v in y.values.items())\n"
    ) == [1, 2]
    assert inline_utility_sums(
        "s = sum(h.group_utility_of(d, i, q) * v for (b, q), v in x.values.items())\n"
        "m = sum(demand[a] * v for (a, _), v in x.values.items())\n"
        "c = {e: utilities.of(*e) for e in pairs}\n"
    ) == []


def test_group_utility_has_one_owner():
    """A group's utility is summed only by ``model.group_utility``; the
    oracle keeps its own sums as the independent reference."""
    modules = sorted(
        p for p in SRC.glob("*.py") if p.name not in ("model.py", "oracle.py")
    )
    found = {p.name: inline_utility_sums(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def condition_raises(source: str) -> list[int]:
    """Lines that raise ``BudgetError`` with a message starting "condition"."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "BudgetError"
            and node.exc.args
        ):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr) and message.values:
            message = message.values[0]
        if (
            isinstance(message, ast.Constant)
            and isinstance(message.value, str)
            and message.value.startswith("condition")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_condition_raise_detector():
    assert condition_raises(
        "if slack < 0:\n"
        '    raise BudgetError("condition sum 1/(alpha_l+2) <= 1 fails")\n'
        'raise BudgetError(f"condition {text} fails by {-slack}")\n'
    ) == [2, 3]
    assert condition_raises(
        'raise BudgetError(f"alpha has {n} entries")\n'
        'raise InvariantViolation("condition broke")\n'
        'raise BudgetError(f"{name}: condition")\n'
    ) == []


def test_budget_condition_has_one_owner():
    """Only ``rounding`` (its ``CONDITIONS`` table) raises a failed budget
    condition; every market reads its row instead of checking its own copy."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "rounding.py")
    found = {p.name: condition_raises(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert condition_raises((SRC / "rounding.py").read_text())


def _definitions(source: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every top-level function and class and
    of every method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return out


def _references(source: str, strings: bool = False) -> set[str]:
    """Names a module loads or reads as attributes; with ``strings`` also its
    identifier strings, since a string can name what code reaches (a
    ``HOOKS`` entry names the attribute the tracer patches, a kind tag such
    as ``"custom"`` names its constructor)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def api_reached_only_by_tests(
    library: Mapping[str, str], exports: str, bench: Iterable[str], tests: Iterable[str]
) -> list[str]:
    """``module.name`` of every definition in ``library`` (module -> source)
    that the tests reference but no library module or bench file does, and
    that the package does not export (``exports`` is ``__init__.py``)."""
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(exports))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reached = set().union(
        *(_references(text, strings=True) for text in [*library.values(), *bench])
    )
    tested = set().union(*map(_references, tests))
    return sorted(
        f"{module}.{qual}"
        for module, source in library.items()
        for qual, name in _definitions(source)
        if name in tested and name not in reached and qual not in exported
    )


def test_test_only_api_detector():
    library = {
        "model": (
            "class Box:\n"
            "    def used(self): return self.size()\n"
            "    def size(self): ...\n"
            "    def only_tested(self): ...\n"
            "def helper(): ...\n"
            "def hooked(): ...\n"
            "def tagged(): ...\n"
            "def public(): ...\n"
            "def nowhere(): ...\n"
        ),
        "cli": 'from .model import Box\nBox().used()\nKIND = "tagged"\n',
    }
    bench = ['HOOKS = [("nearfair.model", "hooked", "model.hooked", None)]\n']
    tests = [
        "from nearfair.model import Box, helper, hooked, public, tagged\n"
        "Box().only_tested(); Box().used(); helper(); hooked(); public(); tagged()\n"
        'SKIP = "nowhere"\n'
    ]
    exports = "from .model import Box, public\n"
    assert api_reached_only_by_tests(library, exports, bench, tests) == [
        "model.Box.only_tested",
        "model.helper",
    ]


def test_no_library_api_is_reached_only_from_tests():
    """Library code that only tests call is either exported or deleted."""
    library = {
        p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
    }
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    exports = (SRC / "__init__.py").read_text()
    assert api_reached_only_by_tests(library, exports, bench, tests) == []
