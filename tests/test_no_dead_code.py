"""Every top-level function, class and method in ``src/nlsql`` has a caller.

A name counts as used when it appears, other than in its own ``def`` or
``class`` statement, as a name, an attribute, an imported name or a string
(``setattr``-style patching) in ``src/``, ``perfbench/`` or ``scripts/``.
Tests do not count: code that only a test calls is dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "perfbench", "scripts")

ALLOWED = {
    # Builds the content-only probe corpus for criterion 8 (ROADMAP direction 1).
    "generate_ambiguity_probe",
    # The sorted rendering that tests/test_sketch.py checks lf_equal against.
    "canonical_form",
}


def _definitions():
    """(file, qualified name, name) of every non-dunder top-level function,
    class and method."""
    for path in sorted((ROOT / "src" / "nlsql").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path.name, f"{node.name}.{item.name}", item.name


def _references() -> set[str]:
    names = set()
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_has_a_caller():
    used = _references() | ALLOWED
    unused = [f"{file}: {qualified}" for file, qualified, name in _definitions()
              if not (name.startswith("__") and name.endswith("__"))
              and name not in used]
    assert unused == []


def test_allowlist_names_only_live_definitions():
    defined = {name for _, _, name in _definitions()}
    assert ALLOWED <= defined
