"""Every top-level function, class and method in ``src/nlsql`` has a caller,
every dataclass field a reader, and every model and training setting a
caller that sets it.

A name counts as used when it appears, other than in its own ``def`` or
``class`` statement, as a name, a read attribute, an imported name or a
string (``setattr``-style patching) in ``src/``, ``perfbench/`` or
``scripts/``. A field counts as read only as a read attribute or a string:
one that is only set, by keyword or by assignment, is dead. Tests do not
count: code that only a test calls is dead.

A setting, a field of ``ModelConfig`` or ``TrainConfig``, counts as set
when it is passed by keyword to one of those classes or to
``dataclasses.replace`` in the same trees. A setting that no command,
script or benchmark sets is a constant, and belongs in its module as one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "perfbench", "scripts")

ALLOWED = {
    # Builds the content-only probe corpus for criterion 8 (ROADMAP direction 3).
    "generate_ambiguity_probe",
}

ALLOWED_FIELDS: set[str] = set()

SETTINGS = ("ModelConfig", "TrainConfig")


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


def _searched_nodes():
    """Every AST node of every Python file in the searched trees."""
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _references(fields: bool = False) -> set[str]:
    """Every name read in the searched trees; with ``fields``, only read
    attributes and strings, the two ways a dataclass field is read."""
    names = set()
    for node in _searched_nodes():
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
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


def _set_settings() -> set[str]:
    """Every keyword passed to a settings class or to ``replace`` in the
    searched trees."""
    names = set()
    for node in _searched_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) \
                else func.attr if isinstance(func, ast.Attribute) else None
            if callee in (*SETTINGS, "replace"):
                names.update(keyword.arg for keyword in node.keywords)
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


def test_every_setting_is_set_by_a_caller():
    set_somewhere = _set_settings()
    unset = [f"{file}: {qualified}" for file, qualified, name in _fields()
             if qualified.partition(".")[0] in SETTINGS
             and name not in set_somewhere]
    assert unset == []


def test_allowlist_names_only_live_definitions():
    defined = {name for _, _, name in _definitions()}
    assert ALLOWED <= defined
    assert ALLOWED_FIELDS <= {qualified for _, qualified, _ in _fields()}
