"""The environment variables the package reads: deployment settings only.

A variable read at run time is a second, unrecorded way to configure a
run: no request, flag or digest carries it.  The daemon's socket and
state directory are the only ones; this scan fails on any new read.
"""

import ast
from pathlib import Path

import repro

#: Where ``repro serve`` keeps its socket and journal (docs/SERVICE.md).
DEPLOYMENT_SETTINGS = {"REPRO_SERVE_DIR", "REPRO_SERVE_SOCKET"}

def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _env_reads(path):
    """The variable names one module reads: ``os.environ.get``,
    ``os.environ[...]`` and ``os.getenv``.  A name that is not a string
    literal or module-level string constant, and any other use of
    ``os.environ``, appears as its location instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    reads, seen = set(), set()
    for node in ast.walk(tree):
        key = environ = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" and _is_environ(func.value):
                key, environ = node.args[0], func.value
            elif getattr(func, "attr", getattr(func, "id", None)) == "getenv":
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key, environ = node.slice, node.value
        if key is None:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            reads.add(key.value)
        elif isinstance(key, ast.Name) and key.id in constants:
            reads.add(constants[key.id])
        else:
            reads.add(f"{path}:{key.lineno}")
        seen.add(id(environ))
    reads.update(
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if _is_environ(node) and id(node) not in seen
    )
    return reads


def test_only_deployment_settings_are_read_from_the_environment():
    package = Path(repro.__file__).parent
    reads = set()
    for path in sorted(package.rglob("*.py")):
        reads |= _env_reads(path)
    assert reads == DEPLOYMENT_SETTINGS
