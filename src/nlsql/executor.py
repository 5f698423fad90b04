"""In-memory single-table query engine and execution-accuracy comparator.

Each table carries a column store, built on first use and cached on the
``Table`` (``Table.columns``): per column, a codebook of the distinct raw
cells in first-seen order (blanks included) and an ``int32`` code per row.
The normalized string and the parsed number of a codebook entry are
computed once, the first time a query needs them, so a query costs a few
vector operations over the codes instead of a pass over the cell strings.

Conditions become boolean masks over the rows, ANDed in sketch order into
one mask of live rows. Equality compares normalized strings; order
comparisons compare the parsed numbers. Semantics, warning counts included,
are those of a row-by-row scan that stops at a row's first failing
condition:

- a row alive after the earlier conditions whose cell does not parse as a
  number adds one ``unparseable_numeric_comparison`` warning at each order
  comparison, and dies;
- an order comparison whose value does not parse warns once for every row
  still alive, and leaves none alive;
- numeric aggregations skip unparseable select cells, with one
  ``unparseable_aggregation_cell`` warning each, and with no numeric
  survivors return an empty result, mirroring SQL NULL.

So dirty tables never crash scoring. Results are plain Python values: the
raw cells in row order for NONE, an ``int`` for COUNT, and a ``float`` for
MAX/MIN/SUM/AVG, reduced with the builtins over the survivors in row order.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from operator import itemgetter

import numpy as np

from .sketch import AggOp, CondOp, SqlSketch, SketchError, Table, validate_sketch
from .util import normalize_value, parse_number

WARN_COMPARISON = "unparseable_numeric_comparison"
WARN_AGGREGATION = "unparseable_aggregation_cell"


@dataclass
class QueryResult:
    """Multiset of selected cell strings, or a single number for aggregations."""

    values: tuple
    warnings: Counter = field(default_factory=Counter)

    @property
    def is_aggregate(self) -> bool:
        return len(self.values) <= 1 and all(
            isinstance(v, (int, float)) for v in self.values
        )


class Column:
    """One dictionary-encoded column of a table's column store."""

    def __init__(self, cells: Iterable[str], n_rows: int):
        code_of = defaultdict(count().__next__)  # a new cell takes the next code
        self.codes = np.fromiter(map(code_of.__getitem__, cells), np.int32,
                                 n_rows)
        self.codebook: tuple[str, ...] = tuple(code_of)

    @cached_property
    def numbers(self) -> np.ndarray:
        """``parse_number`` of each codebook entry, NaN where it fails."""
        parsed = map(parse_number, self.codebook)
        return np.fromiter((math.nan if x is None else x for x in parsed),
                           np.float64, len(self.codebook))

    @cached_property
    def _normalized(self) -> tuple[np.ndarray, dict[str, int]]:
        """Per codebook entry, the id of its normalized string; and the map
        from normalized string to id."""
        id_of = defaultdict(count().__next__)
        entry_ids = np.fromiter(
            map(id_of.__getitem__, map(normalize_value, self.codebook)),
            np.int32, len(self.codebook))
        return entry_ids, dict(id_of)

    def equals(self, value: str) -> np.ndarray:
        """Row mask: the cell normalizes to the same string as ``value``."""
        entry_ids, ids = self._normalized
        wanted = ids.get(normalize_value(value), -1)
        return (entry_ids == wanted)[self.codes]

    def row_numbers(self, rows=slice(None)) -> np.ndarray:
        """The parsed number of each selected row's cell (NaN: unparseable)."""
        return self.numbers[self.codes[rows]]


def build_columns(table: Table) -> tuple[Column, ...]:
    """Dictionary-encode every column of a table (see ``Table.columns``)."""
    rows = table.rows
    return tuple(Column(map(itemgetter(col), rows), len(rows))
                 for col in range(table.schema.n_columns))


def _warn(warnings: Counter, kind: str, n_rows) -> None:
    if n_rows:
        warnings[kind] += int(n_rows)


def execute(sketch: SqlSketch, table: Table) -> QueryResult:
    """Run a sketch against a table.

    Rows must satisfy every condition (conjunction). NONE yields the multiset
    of select-column cells; COUNT the surviving row count; MAX/MIN/SUM/AVG
    aggregate the numeric parses of the select column.
    """
    violations = validate_sketch(sketch, table.schema)
    if violations:
        raise SketchError("; ".join(violations))

    columns = table.columns
    warnings: Counter = Counter()
    alive = np.ones(len(table.rows), dtype=bool)
    for cond in sketch.conds:
        column = columns[cond.column_index]
        if cond.op is CondOp.EQ:
            alive &= column.equals(cond.value)
            continue
        bound = parse_number(cond.value)
        if bound is None:
            _warn(warnings, WARN_COMPARISON, np.count_nonzero(alive))
            alive[:] = False
            break
        cells = column.row_numbers()
        _warn(warnings, WARN_COMPARISON,
              np.count_nonzero(alive & np.isnan(cells)))
        alive &= (cells > bound) if cond.op is CondOp.GT else (cells < bound)

    column = columns[sketch.select_column]
    if sketch.agg is AggOp.NONE:
        codes = column.codes[alive].tolist()
        return QueryResult(tuple(map(column.codebook.__getitem__, codes)),
                           warnings)
    if sketch.agg is AggOp.COUNT:
        return QueryResult((int(np.count_nonzero(alive)),), warnings)

    cells = column.row_numbers(alive)
    parsed = ~np.isnan(cells)
    _warn(warnings, WARN_AGGREGATION, len(cells) - np.count_nonzero(parsed))
    numbers = cells[parsed].tolist()
    if not numbers:
        return QueryResult((), warnings)
    if sketch.agg is AggOp.MAX:
        value = max(numbers)
    elif sketch.agg is AggOp.MIN:
        value = min(numbers)
    elif sketch.agg is AggOp.SUM:
        value = sum(numbers)
    else:  # AVG
        value = sum(numbers) / len(numbers)
    return QueryResult((value,), warnings)


def _canonical(value) -> tuple:
    """Sort/compare key: numeric-looking values coerce to numbers so that
    "2", 2 and 2.0 agree; everything else compares as a normalized string."""
    if isinstance(value, (int, float)):
        return ("num", float(value))
    text = normalize_value(value)
    number = parse_number(text)
    if number is not None:
        return ("num", number)
    return ("str", text)


def results_equal(a: QueryResult, b: QueryResult) -> bool:
    """Multiset equality with 1e-9 relative tolerance on numeric values."""
    if len(a.values) != len(b.values):
        return False
    ka = sorted(_canonical(v) for v in a.values)
    kb = sorted(_canonical(v) for v in b.values)
    for (kind_a, val_a), (kind_b, val_b) in zip(ka, kb):
        if kind_a != kind_b:
            return False
        if kind_a == "num":
            if not math.isclose(val_a, val_b, rel_tol=1e-9, abs_tol=1e-12):
                return False
        elif val_a != val_b:
            return False
    return True


def ex_equal(pred: SqlSketch, gold: SqlSketch, table: Table) -> bool:
    """Execution equality: both sketches produce the same result multiset."""
    return results_equal(execute(pred, table), execute(gold, table))
