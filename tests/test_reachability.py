"""Guard: no production code that only tests call.

Every top-level function and class under ``src/nl2sqlbench`` must be reachable
by name from a root: ``cli.main``, the module-level code of any source module
(imports aside), or a name that a script under ``bench/`` uses as an
identifier, an attribute, an imported name or a (dotted) string. A reached
definition reaches every name its body uses. Names are followed without their
modules, so two definitions that share a name are reached together.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nl2sqlbench"


def _used_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _bench_names() -> set[str]:
    names = set()
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _used_names(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.alias):
                names.add(sub.name.rpartition(".")[2])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(sub.value.split("."))
    return names


def unreachable_definitions() -> list[str]:
    definitions: dict[str, list] = {}  # name -> its top-level definitions, in any module
    qualified = []
    roots = {"main"} | _bench_names()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(statement.name, []).append(statement)
                qualified.append((module, statement.name))
            elif not isinstance(statement, (ast.Import, ast.ImportFrom)):
                roots |= _used_names(statement)
    reached: set[str] = set()
    pending = set(roots)
    while pending:
        name = pending.pop()
        reached.add(name)
        for definition in definitions.get(name, ()):
            pending |= _used_names(definition) - reached
    return [f"{module}.{name}" for module, name in qualified if name not in reached]


def test_every_source_definition_is_reachable():
    assert unreachable_definitions() == []
