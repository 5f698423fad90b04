"""Brute-force keyword-matching oracle, independent of the index's lookup.

Scans every distinct cell with an overlapping regex search (lookahead, so
self-overlapping occurrences are not lost), filters to word-boundary-anchored
hits, and resolves overlaps left-to-right longest-first.
"""

from __future__ import annotations

import re

from nlsql.keyword_index import normalize_pattern
from nlsql.sketch import Table


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
