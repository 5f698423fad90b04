"""Domain types for single-table SQL sketches plus canonical rendering and
logical-form equality.

A sketch is the structured form of a query: one select column, one
aggregation, and a conjunction of (column, operator, value) conditions.
Conditions compare as a multiset, so two sketches that differ only in
condition order are the same query.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

from .util import normalize_value

# Upper bound on where-clause size; matches the maximum seen in single-table
# corpora in the wild. Overridable wherever it matters.
MAX_CONDS = 4


class SketchError(ValueError):
    """A sketch violated its schema contract."""


class AggOp(IntEnum):
    """Aggregation slot. Values are the wire indices used by corpus files."""

    NONE = 0
    MAX = 1
    MIN = 2
    COUNT = 3
    SUM = 4
    AVG = 5


class CondOp(IntEnum):
    """Condition operator. Values are the wire indices used by corpus files."""

    EQ = 0
    GT = 1
    LT = 2

    @property
    def symbol(self) -> str:
        return _COND_SYMBOLS[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "CondOp":
        for op, sym in _COND_SYMBOLS.items():
            if sym == symbol:
                return op
        raise ValueError(f"unknown condition operator symbol: {symbol!r}")


_COND_SYMBOLS = {CondOp.EQ: "=", CondOp.GT: ">", CondOp.LT: "<"}


@dataclass(frozen=True)
class Condition:
    column_index: int
    op: CondOp
    value: str


@dataclass(frozen=True)
class SqlSketch:
    select_column: int
    agg: AggOp = AggOp.NONE
    conds: tuple[Condition, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "conds", tuple(self.conds))


@dataclass(frozen=True)
class TableSchema:
    table_id: str
    headers: tuple[str, ...]
    types: tuple[str, ...]  # "text" | "real" per column

    def __post_init__(self):
        object.__setattr__(self, "headers", tuple(self.headers))
        object.__setattr__(self, "types", tuple(self.types))
        if len(self.headers) != len(self.types) or not self.headers:
            raise ValueError(
                f"table {self.table_id!r}: need equal, non-empty headers/types, "
                f"got {len(self.headers)} headers and {len(self.types)} types"
            )
        if any(not h.strip() for h in self.headers):
            raise ValueError(f"table {self.table_id!r}: blank column header")

    @property
    def n_columns(self) -> int:
        return len(self.headers)


@dataclass(frozen=True)
class Table:
    schema: TableSchema
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        width = self.schema.n_columns
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(
                    f"table {self.schema.table_id!r} row {i}: "
                    f"{len(row)} cells for {width} columns"
                )

    @property
    def table_id(self) -> str:
        return self.schema.table_id

    @cached_property
    def columns(self) -> tuple:
        """The table's column store, one ``executor.Column`` per column:
        built on first use and kept with the table, which is immutable."""
        from .executor import build_columns  # executor imports this module
        return build_columns(self)


# Provenance tags carried by examples through augmentation.
PROV_ORIGINAL = "original"
PROV_SYNTHESIZED = "synthesized"
PROV_SYMBOL = "symbol-substituted"


@dataclass(frozen=True)
class Example:
    question: str
    table_id: str
    gold: SqlSketch
    provenance: str = PROV_ORIGINAL
    style: str = ""  # optional surface-style tag ("verbose" / "short")


def validate_sketch(sketch: SqlSketch, schema: TableSchema,
                    max_conds: int = MAX_CONDS) -> list[str]:
    """Return violation descriptors; empty list means the sketch is valid."""
    violations = []
    n = schema.n_columns
    if not 0 <= sketch.select_column < n:
        violations.append(
            f"select-column-out-of-range: {sketch.select_column} not in [0, {n})"
        )
    if len(sketch.conds) > max_conds:
        violations.append(
            f"too-many-conditions: {len(sketch.conds)} > {max_conds}"
        )
    for i, cond in enumerate(sketch.conds):
        if not 0 <= cond.column_index < n:
            violations.append(
                f"condition-column-out-of-range: cond {i} column "
                f"{cond.column_index} not in [0, {n})"
            )
        if not cond.value:
            violations.append(f"empty-condition-value: cond {i}")
    return violations


def render_sql(sketch: SqlSketch, schema: TableSchema) -> str:
    """Render the canonical SQL string for a sketch.

    Keywords are uppercase, single-spaced; a NONE aggregation renders the
    bare column in parentheses; an empty where clause is omitted. Only this
    canonical form should ever be compared as text.
    """
    violations = validate_sketch(sketch, schema)
    if violations:
        raise SketchError("; ".join(violations))
    header = schema.headers[sketch.select_column]
    if sketch.agg is AggOp.NONE:
        select = f"({header})"
    else:
        select = f"{sketch.agg.name}({header})"
    sql = f"SELECT {select} FROM {schema.table_id}"
    if sketch.conds:
        clauses = " AND ".join(
            f"{schema.headers[c.column_index]} {c.op.symbol} {c.value}"
            for c in sketch.conds
        )
        sql += f" WHERE {clauses}"
    return sql


def _cond_key(cond: Condition) -> tuple:
    return (cond.column_index, int(cond.op), normalize_value(cond.value))


def lf_equal(a: SqlSketch, b: SqlSketch) -> bool:
    """Logical-form equality: select and agg match, conditions match as a
    multiset under value normalization (lowercase, trim, collapse spaces)."""
    if a.select_column != b.select_column or a.agg != b.agg:
        return False
    return Counter(map(_cond_key, a.conds)) == Counter(map(_cond_key, b.conds))


def canonical_form(sketch: SqlSketch, schema: TableSchema) -> str:
    """Canonical rendering with conditions sorted; identical strings iff
    lf_equal for sketches of one schema."""
    ordered = SqlSketch(
        select_column=sketch.select_column,
        agg=sketch.agg,
        conds=tuple(
            Condition(c.column_index, c.op, normalize_value(c.value))
            for c in sorted(sketch.conds, key=_cond_key)
        ),
    )
    return render_sql(ordered, schema)
