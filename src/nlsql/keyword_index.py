"""Multi-pattern keyword index over a table's cell values.

The index holds only the lookup. Each column's distinct cell values come
from the table's column store (``executor.Column.distinct``) and are
normalized (lowercase, whitespace collapsed) into a dict from pattern to the
columns holding it, each with the position of the column's first-seen
spelling among its distinct values, so a match names that cell by position
as well as by text. Matches are anchored at word boundaries, so a match can
only start at 0 or after a non-alphanumeric character and end at the end or
before one: a question is matched by looking up each such boundary-anchored
substring no longer than the longest pattern.
Matches are case-insensitive and resolved left-to-right longest-first with no
overlaps. The index is read-only after build and safe for concurrent readers.
``find_phrases`` is that lookup over any phrase dict; augmentation uses it to
find relational phrases.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .sketch import Table


def _normalize_with_map(text: str) -> tuple[str, Sequence[int]]:
    """Lowercase and collapse whitespace, keeping a map from each normalized
    character position back to its original position. ASCII text that
    collapses to its own length keeps every offset; other text takes the
    loop, because ``str.lower()`` lowers Σ by context and expands İ."""
    if text.isascii():
        collapsed = " ".join(text.split())
        if len(collapsed) == len(text):
            return collapsed.lower(), range(len(text))
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
    """``_normalize_with_map``'s text, which for ASCII is the collapsed text
    lowered: no offsets to keep and no letter that lowers by context. An
    unchanged text is returned itself, so an index key shares its cell's string."""
    pattern = " ".join(text.split()).lower() if text.isascii() else _normalize_with_map(text)[0]
    return text if pattern == text else pattern


class Match(NamedTuple):
    column_index: int
    cell: str  # original cell string
    span: tuple[int, int]  # char offsets into the original question
    position: int  # of ``cell`` in its column's ``Column.distinct``


@dataclass
class ContentIndex:
    """The pattern lookup for one table."""

    table_id: str
    # per column, its distinct non-empty cells (``Column.distinct``)
    _cells: tuple[tuple[str, ...], ...] = field(repr=False)
    # normalized pattern -> (column, position of its first-seen cell in
    # _cells[column]) pairs laid flat, in ascending column order
    _patterns: dict[str, tuple[int, ...]] = field(repr=False)
    _longest: int  # length of the longest pattern

    @property
    def n_patterns(self) -> int:
        return len(self._patterns)


def build_index(table: Table) -> ContentIndex:
    """Index every distinct non-empty cell of a table.

    Cells that normalize identically share one pattern; each column keeps its
    first-seen original spelling for reporting.
    """
    cells = tuple(column.distinct for column in table.columns)
    patterns: dict[str, tuple[int, ...]] = {}
    for col, distinct in enumerate(cells):
        for position, cell in enumerate(distinct):
            pattern = normalize_pattern(cell)
            places = patterns.get(pattern)
            if places is None:
                patterns[pattern] = (col, position)
            elif places[-2] != col:  # columns come in ascending order
                patterns[pattern] = places + (col, position)
    return ContentIndex(table.table_id, cells, patterns,
                        max(map(len, patterns), default=0))


def find_phrases(phrases: dict, longest: int, text: str) -> list[tuple]:
    """``(start, end, value)`` in original-text offsets for each phrase of
    ``text`` that is a key of ``phrases`` (normalized, none longer than
    ``longest``), found and resolved as the module docstring describes."""
    normalized, index_map = _normalize_with_map(text)
    cuts = [i for i, ch in enumerate(normalized) if not ch.isalnum()]
    ends = cuts + [len(normalized)]
    spans = []
    cursor = 0
    for start in [0] + [i + 1 for i in cuts]:
        if start < cursor:
            continue
        # Candidates at one start, longest first: the first hit is the one
        # the left-to-right, longest-first resolution keeps.
        lo = bisect_right(ends, start)
        hi = bisect_right(ends, start + longest)
        for end in reversed(ends[lo:hi]):
            value = phrases.get(normalized[start:end])
            if value is not None:
                cursor = end
                spans.append((index_map[start], index_map[end - 1] + 1, value))
                break
    return spans


def extract_matches(index: ContentIndex, question: str) -> list[Match]:
    """Find cells mentioned in a question. A pattern present in several
    columns yields one Match per column (ascending column order)."""
    cells = index._cells
    return [Match(col, cells[col][position], (start, end), position)
            for start, end, places in find_phrases(index._patterns, index._longest,
                                                   question)
            for col, position in zip(places[::2], places[1::2])]
