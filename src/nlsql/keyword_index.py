"""Multi-pattern keyword index over a table's cell values.

Distinct cell values are normalized (lowercase, whitespace collapsed) and
compiled into a character-level trie with failure links, so one pass over a
question finds every cell mentioned in it. Matches are case-insensitive,
word-boundary anchored, and resolved left-to-right longest-first with no
overlaps. The index is read-only after build and safe for concurrent
readers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .sketch import Table


def _normalize_with_map(text: str) -> tuple[str, list[int]]:
    """Lowercase and collapse whitespace, keeping a map from each normalized
    character position back to its original position."""
    out: list[str] = []
    index_map: list[int] = []
    pending_space_at = -1
    for i, ch in enumerate(text):
        if ch.isspace():
            if out:
                pending_space_at = i if pending_space_at < 0 else pending_space_at
            continue
        if pending_space_at >= 0:
            out.append(" ")
            index_map.append(pending_space_at)
            pending_space_at = -1
        lowered = ch.lower()
        out.append(lowered if len(lowered) == 1 else ch)
        index_map.append(i)
    return "".join(out), index_map


def normalize_pattern(text: str) -> str:
    normalized, _ = _normalize_with_map(text)
    return normalized


class Match(NamedTuple):
    column_index: int
    cell: str  # original cell string
    span: tuple[int, int]  # char offsets into the original question


@dataclass
class ContentIndex:
    """Keyword automaton plus per-column distinct values for one table."""

    table_id: str
    n_columns: int
    n_cells: int  # non-empty cells scanned at build time
    distinct_values: tuple[tuple[str, ...], ...]  # per column, first-seen order
    build_seconds: float = 0.0
    # trie arrays: children maps char -> node id; fail links; pattern outputs
    _children: list[dict] = field(default_factory=list, repr=False)
    _fail: list[int] = field(default_factory=list, repr=False)
    _outputs: list[list[int]] = field(default_factory=list, repr=False)
    # pattern id -> (pattern length, {column -> first-seen original cell})
    _patterns: list[tuple[int, dict]] = field(default_factory=list, repr=False)

    @property
    def n_patterns(self) -> int:
        return len(self._patterns)


def distinct_columns(table: Table) -> list[list[str]]:
    """Each column's distinct non-empty cells, in first-seen order."""
    return [[cell for cell in dict.fromkeys(map(itemgetter(col), table.rows))
             if cell.strip()]
            for col in range(table.schema.n_columns)]


def build_index(table: Table) -> ContentIndex:
    """Index every distinct non-empty cell of a table.

    Cells that normalize identically share one pattern; each column keeps its
    first-seen original spelling for reporting.
    """
    started = time.perf_counter()
    distinct = distinct_columns(table)
    n_cells = sum(1 for row in table.rows for cell in row if cell.strip())
    pattern_ids: dict[str, int] = {}
    patterns: list[tuple[int, dict]] = []
    for col, values in enumerate(distinct):
        for cell in values:
            normalized = normalize_pattern(cell)
            if normalized:
                pid = pattern_ids.get(normalized)
                if pid is None:
                    pid = len(patterns)
                    pattern_ids[normalized] = pid
                    patterns.append((len(normalized), {}))
                patterns[pid][1].setdefault(col, cell)

    children: list[dict] = [{}]
    terminal: list[int] = [-1]
    for normalized, pid in pattern_ids.items():
        node = 0
        for ch in normalized:
            nxt = children[node].get(ch)
            if nxt is None:
                nxt = len(children)
                children[node][ch] = nxt
                children.append({})
                terminal.append(-1)
            node = nxt
        terminal[node] = pid

    # Breadth-first failure links; outputs accumulate along the fail chain.
    fail = [0] * len(children)
    outputs: list[list[int]] = [[] for _ in children]
    queue = []
    for node in children[0].values():
        queue.append(node)
        if terminal[node] >= 0:
            outputs[node].append(terminal[node])
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for ch, child in children[node].items():
            f = fail[node]
            while f and ch not in children[f]:
                f = fail[f]
            fail[child] = children[f].get(ch, 0)
            outputs[child] = list(outputs[fail[child]])
            if terminal[child] >= 0:
                outputs[child].append(terminal[child])
            queue.append(child)

    index = ContentIndex(
        table_id=table.table_id,
        n_columns=table.schema.n_columns,
        n_cells=n_cells,
        distinct_values=tuple(tuple(values) for values in distinct),
        _children=children,
        _fail=fail,
        _outputs=outputs,
        _patterns=patterns,
    )
    index.build_seconds = time.perf_counter() - started
    return index


def _is_boundary(text: str, start: int, end: int) -> bool:
    before_ok = start == 0 or not text[start - 1].isalnum()
    after_ok = end == len(text) or not text[end].isalnum()
    return before_ok and after_ok


def extract_matches(index: ContentIndex, question: str) -> list[Match]:
    """Find cells mentioned in a question.

    One automaton pass collects every word-boundary-anchored occurrence;
    overlaps resolve left-to-right, longest match first. A pattern present in
    several columns yields one Match per column (ascending column order).
    """
    normalized, index_map = _normalize_with_map(question)
    candidates: list[tuple[int, int, int]] = []  # (start, end, pattern id)
    node = 0
    children = index._children
    fail = index._fail
    outputs = index._outputs
    for pos, ch in enumerate(normalized):
        while node and ch not in children[node]:
            node = fail[node]
        node = children[node].get(ch, 0)
        for pid in outputs[node]:
            length = index._patterns[pid][0]
            start = pos + 1 - length
            if _is_boundary(normalized, start, pos + 1):
                candidates.append((start, pos + 1, pid))

    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0])))
    matches: list[Match] = []
    cursor = 0
    for start, end, pid in candidates:
        if start < cursor:
            continue
        cursor = end
        orig_start = index_map[start]
        orig_end = index_map[end - 1] + 1
        columns = index._patterns[pid][1]
        for col in sorted(columns):
            matches.append(Match(col, columns[col], (orig_start, orig_end)))
    return matches
