"""Every top-level function, class and method in ``src/nlsql`` has a caller,
and every dataclass field a reader.

A name counts as used when it appears, other than in its own ``def`` or
``class`` statement, as a name, a read attribute, an imported name or a
string (``setattr``-style patching) in ``src/``, ``perfbench/`` or
``scripts/``. A field counts as read only as a read attribute or a string:
one that is only set, by keyword or by assignment, is dead. Tests do not
count: code that only a test calls is dead.
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

ALLOWED_FIELDS = {
    # Written to bench.json through BenchRow.to_dict's ``__dict__``.
    "BenchRow.n_queries",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "dataclass"
        for d in node.decorator_list)


def _fields():
    """(file, ``Class.field``, field) of every field of every dataclass."""
    for path in sorted((ROOT / "src" / "nlsql").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) \
                            and isinstance(item.target, ast.Name):
                        name = item.target.id
                        yield path.name, f"{node.name}.{name}", name


def _references(fields: bool = False) -> set[str]:
    """Every name read in the searched trees; with ``fields``, only read
    attributes and strings, the two ways a dataclass field is read."""
    names = set()
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) \
                        and not isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
                elif fields:
                    continue
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_has_a_caller():
    used = _references() | ALLOWED
    unused = [f"{file}: {qualified}" for file, qualified, name in _definitions()
              if not (name.startswith("__") and name.endswith("__"))
              and name not in used]
    assert unused == []


def test_every_dataclass_field_is_read():
    used = _references(fields=True)
    unread = [f"{file}: {qualified}" for file, qualified, name in _fields()
              if name not in used and qualified not in ALLOWED_FIELDS]
    assert unread == []


def test_allowlist_names_only_live_definitions():
    defined = {name for _, _, name in _definitions()}
    assert ALLOWED <= defined
    assert ALLOWED_FIELDS <= {qualified for _, qualified, _ in _fields()}
