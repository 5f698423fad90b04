"""Test oracles, independent of the code they check.

``oracle_matches`` is a brute-force keyword matcher: it scans every distinct
cell with an overlapping regex search (lookahead, so self-overlapping
occurrences are not lost), filters to word-boundary-anchored hits, and
resolves overlaps left-to-right longest-first. ``canonical_form`` renders a
sketch with its conditions sorted, the string form of ``lf_equal``.
"""

from __future__ import annotations

import re

from nlsql.keyword_index import normalize_pattern
from nlsql.sketch import Condition, SqlSketch, Table, TableSchema, render_sql
from nlsql.util import normalize_value


def oracle_matches(table: Table, question: str):
    patterns = {}
    for row in table.rows:
        for col, cell in enumerate(row):
            norm = normalize_pattern(cell)
            if norm:
                patterns.setdefault(norm, {}).setdefault(col, cell)
    candidates = []
    for norm, columns in patterns.items():
        body = r"\s+".join(re.escape(tok) for tok in norm.split(" "))
        overlapping = re.compile(rf"(?=({body}))", flags=re.IGNORECASE)
        for m in overlapping.finditer(question):
            start = m.start(1)
            end = start + len(m.group(1))
            if (start == 0 or not question[start - 1].isalnum()) and \
               (end == len(question) or not question[end].isalnum()):
                candidates.append((start, end, columns))
    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0])))
    out = []
    cursor = 0
    for start, end, columns in candidates:
        if start < cursor:
            continue
        cursor = end
        for col in sorted(columns):
            out.append((col, columns[col], (start, end)))
    return out


def canonical_form(sketch: SqlSketch, schema: TableSchema) -> str:
    """Canonical rendering with conditions sorted; identical strings iff
    lf_equal for sketches of one schema."""
    conds = sorted(sketch.conds, key=lambda c: (c.column_index, int(c.op),
                                                normalize_value(c.value)))
    ordered = SqlSketch(select_column=sketch.select_column, agg=sketch.agg,
                        conds=tuple(Condition(c.column_index, c.op, normalize_value(c.value))
                                    for c in conds))
    return render_sql(ordered, schema)
