"""The farm runs jobs; it does not know what they compute.

``repro.api`` and ``repro.analysis`` build farm jobs and import
``repro.exec``; the dependency must not run back.  A job reaches its
function through the tag table (``repro.exec.farm.JOB_HOMES``), never
through an import statement, so this scan fails on any import of either
package under ``repro/exec/``, however deeply nested.
"""

import ast
from pathlib import Path

import repro

FORBIDDEN = ("repro.api", "repro.analysis")


def _imported_modules(path, package):
    """Every module one file imports, absolute, with its line number."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module, node.lineno
            for alias in node.names:  # ``from .. import api``
                yield f"{module}.{alias.name}", node.lineno


def _is_forbidden(module):
    return any(module == name or module.startswith(name + ".") for name in FORBIDDEN)


def test_exec_imports_neither_api_nor_analysis():
    exec_dir = Path(repro.__file__).parent / "exec"
    offending = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(exec_dir.rglob("*.py"))
        for module, line in _imported_modules(path, "repro.exec")
        if _is_forbidden(module)
    ]
    assert offending == []

