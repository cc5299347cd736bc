"""Source hygiene: every import in the library modules is used, and the
oracle stays independent of the exact simplex it cross-checks.

``__init__.py`` is skipped by the unused-import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nearfair"


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
    assert exactlp_imports("from .exactlp import LinearProgram, phase_one\n") == {
        "LinearProgram",
        "phase_one",
    }
    assert exactlp_imports("from . import exactlp\nimport nearfair.exactlp\n") == {"exactlp"}
    assert exactlp_imports("from .model import Bundle\n") == set()


def test_oracle_shares_only_the_lp_model_and_row_kernel():
    """``vertex_enumerate`` is the independent check on the exact simplex, so
    the oracle may not run any of it (``phase_one``, ``_Tableau``, ...)."""
    names = exactlp_imports((SRC / "oracle.py").read_text())
    assert names <= {"LinearProgram", "Row"}, sorted(names)
