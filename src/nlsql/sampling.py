"""Per-column table-content sampling: random, relevance, and exact-match-1.

Every strategy is one draw (``_draw``): per column, the question's matched
cells first (question order, deduplicated, capped at k), then a seeded fill
from the column's other distinct values. Random sampling has no matches, so
it is question-agnostic and can be generated offline once per table.
Relevance sampling takes the keyword index's matches. Exact-match-1 keeps at
most one matched cell per column and never fills — the strictest baseline.
The fill draws indices into the column's distinct values without the hits,
and the keyword index gives each hit's position among those values, so each
index is mapped past the hit positions before it is read. ``random.sample``
picks by index from the population's length alone, so this draws exactly
what it would from the filtered list, without building that list or
searching the values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .keyword_index import ContentIndex, extract_matches
from .sketch import Table
from .util import child_rng


@dataclass(frozen=True)
class SampleSet:
    table_id: str
    columns: tuple[tuple[str, ...], ...]  # per column, ordered samples

    def __post_init__(self):
        object.__setattr__(
            self, "columns", tuple(tuple(c) for c in self.columns)
        )


def _draw(table: Table, matches, k: int, seed: int, fill: bool = True) -> SampleSet:
    """Per column, the first k distinct matched cells in question order, then
    (with ``fill``) a seeded draw from the column's other distinct values."""
    # per column, each hit's cell -> its position in the column's distinct values
    matched: list[dict[str, int]] = [{} for _ in table.columns]
    for match in matches:
        bucket = matched[match.column_index]
        if match.cell not in bucket and len(bucket) < k:
            bucket[match.cell] = match.position
    columns = []
    for col, bucket in enumerate(matched):
        cells = list(bucket)
        if fill and len(cells) < k:
            values = table.columns[col].distinct
            skip = sorted(bucket.values())
            n = len(values) - len(skip)
            rng = child_rng("sample", seed, table.table_id, col)
            for i in rng.sample(range(n), min(k - len(cells), n)):
                for position in skip:
                    if position > i:
                        break
                    i += 1
                cells.append(values[i])
        columns.append(tuple(cells))
    return SampleSet(table.table_id, tuple(columns))


def sample_random(table: Table, k: int, seed: int = 0) -> SampleSet:
    """Draw up to k distinct non-empty values per column, without
    replacement, independent of any question."""
    return _draw(table, (), k, seed)


def sample_relevance(table: Table, index: ContentIndex, question: str,
                     k: int, seed: int = 0) -> SampleSet:
    """Question-matched cells first (question order, deduplicated, capped at
    k), then seeded random fill from the remaining distinct values."""
    return _draw(table, extract_matches(index, question), k, seed)


def sample_exact_match_one(table: Table, index: ContentIndex,
                           question: str) -> SampleSet:
    """At most one sample per column: the earliest exact match in the
    question. No random fill."""
    return _draw(table, extract_matches(index, question), 1, 0, fill=False)
