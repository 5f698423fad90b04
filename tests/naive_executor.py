"""Independent row-by-row reference interpreter used as the executor oracle.

Deliberately written from scratch against the same semantics (shared domain
types only, no shared helper code with the engine under test).
"""

from __future__ import annotations

import math
from collections import Counter

from nlsql.sketch import AggOp, CondOp, SqlSketch, Table


def _norm(text: str) -> str:
    return " ".join(text.lower().split())


def _num(text):
    stripped = text.strip()
    if not stripped:
        return None
    for candidate in (stripped, stripped.replace(",", "")):
        try:
            value = float(candidate)
        except ValueError:
            continue
        if math.isfinite(value):
            return value
    return None


def naive_execute(sketch: SqlSketch, table: Table):
    """Return the result multiset as a plain list (numbers for aggregates)."""
    return naive_execute_with_warnings(sketch, table)[0]


def naive_execute_with_warnings(sketch: SqlSketch, table: Table):
    """Return the result list and a Counter of warnings.

    A row stops at its first failing condition. An order comparison whose
    cell or value does not parse warns once for that row; a numeric
    aggregation warns once per surviving select cell that does not parse.
    """
    warnings = Counter()
    survivors = []
    for row in table.rows:
        keep = True
        for cond in sketch.conds:
            cell = row[cond.column_index]
            if cond.op is CondOp.EQ:
                if _norm(cell) != _norm(cond.value):
                    keep = False
            else:
                left, right = _num(cell), _num(cond.value)
                if left is None or right is None:
                    warnings["unparseable_numeric_comparison"] += 1
                    keep = False
                elif cond.op is CondOp.GT:
                    keep = keep and left > right
                else:
                    keep = keep and left < right
            if not keep:
                break
        if keep:
            survivors.append(row)

    col = sketch.select_column
    if sketch.agg is AggOp.NONE:
        return [row[col] for row in survivors], warnings
    if sketch.agg is AggOp.COUNT:
        return [len(survivors)], warnings
    numbers = []
    for row in survivors:
        number = _num(row[col])
        if number is None:
            warnings["unparseable_aggregation_cell"] += 1
        else:
            numbers.append(number)
    if not numbers:
        return [], warnings
    if sketch.agg is AggOp.MAX:
        return [max(numbers)], warnings
    if sketch.agg is AggOp.MIN:
        return [min(numbers)], warnings
    if sketch.agg is AggOp.SUM:
        return [sum(numbers)], warnings
    return [sum(numbers) / len(numbers)], warnings
