"""In-memory single-table query engine and execution-accuracy comparator.

A table's cells live only in its column store (``Table.columns``), built
on first use from the rows the ``Table`` was given: per column, a codebook
of the distinct raw cells in first-seen order (blanks included) and an
``int32`` code per row. A column with a non-``str`` cell is coded from each
cell's ``str()``; the codebook decides, as ``1``, ``1.0`` and ``True`` are
one dict key. The normalized string and the parsed number of a codebook
entry are computed once, the first time a query needs them, so a query
costs a few vector operations over the codes, not a pass over the cells.

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
MAX/MIN/SUM/AVG over the parsed numbers of the surviving rows. MAX and MIN
are reduced in numpy (``argmax``/``argmin``) to the first extreme value in
row order, which is exactly what the builtin ``max``/``min`` return, the sign
of a zero included: of the rows "0" and "-0", MAX is whichever comes first.
With no condition they reduce the codebook's numbers instead of the rows':
the codebook is in first-seen order, so its first extreme is the row
order's, and each entry's row count (``Column.counts``) gives the warnings.
SUM and AVG add the numbers with the builtin ``sum`` in row order. From
Python 3.12 that ``sum`` adds floats with compensation, so the last bit of a
SUM or AVG can differ between interpreters (the project supports 3.10 on).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Sequence
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


class Column:
    """One dictionary-encoded column of a table's column store."""

    def __init__(self, rows: Sequence[Sequence], col: int):
        """Cell ``col`` of each row, or its ``str()`` if any cell is not a ``str``."""
        cells = map(itemgetter(col), rows)
        code_of = defaultdict(count().__next__)  # a new cell takes the next code
        try:
            self.codes = np.fromiter(map(code_of.__getitem__, cells), np.int32, len(rows))
            "".join(code_of)  # a TypeError unless every distinct cell is a str
        except TypeError:  # a JSON number, bool, null, array or object
            cells = map(str, map(itemgetter(col), rows))
            code_of = defaultdict(count().__next__)
            self.codes = np.fromiter(map(code_of.__getitem__, cells), np.int32, len(rows))
        self.codebook: tuple[str, ...] = tuple(code_of)

    @cached_property
    def distinct(self) -> tuple[str, ...]:
        """The column's distinct non-empty cells in first-seen order: the
        codebook's non-blank entries."""
        return tuple(cell for cell in self.codebook if cell.strip())

    @cached_property
    def numbers(self) -> np.ndarray:
        """``parse_number`` of each codebook entry, NaN where it fails."""
        parsed = map(parse_number, self.codebook)
        return np.fromiter((math.nan if x is None else x for x in parsed),
                           np.float64, len(self.codebook))

    @cached_property
    def counts(self) -> np.ndarray:
        """The number of rows of each codebook entry."""
        return np.bincount(self.codes, minlength=len(self.codebook))

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
    alive = np.ones(table.n_rows, dtype=bool)
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
    rows = alive if sketch.conds else slice(None)
    if sketch.agg is AggOp.NONE:
        codes = column.codes[rows].tolist()
        return QueryResult(tuple(map(column.codebook.__getitem__, codes)),
                           warnings)
    if sketch.agg is AggOp.COUNT:
        return QueryResult((int(np.count_nonzero(alive)),), warnings)

    if sketch.conds or sketch.agg in (AggOp.SUM, AggOp.AVG):
        cells = column.row_numbers(rows)
        unparsed = np.isnan(cells)
        _warn(warnings, WARN_AGGREGATION, np.count_nonzero(unparsed))
    else:
        # Every row: the codebook is in first-seen order, so its first
        # extreme is the first in row order. Reduce one number per entry.
        cells = column.numbers
        unparsed = np.isnan(cells)
        _warn(warnings, WARN_AGGREGATION, column.counts[unparsed].sum())
    numbers = cells[~unparsed]
    if not len(numbers):
        return QueryResult((), warnings)
    if sketch.agg is AggOp.MAX:
        value = float(numbers[np.argmax(numbers)])
    elif sketch.agg is AggOp.MIN:
        value = float(numbers[np.argmin(numbers)])
    elif sketch.agg is AggOp.SUM:
        value = sum(numbers.tolist())
    else:  # AVG
        value = sum(numbers.tolist()) / len(numbers)
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
