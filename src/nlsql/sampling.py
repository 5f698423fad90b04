"""Per-column table-content sampling: random, relevance, and exact-match-1.

Random sampling is question-agnostic and can be generated offline once per
table. Relevance sampling puts question-matched cells first and pads the
remainder with seeded random fill. The fill draws from the column's distinct
values without the hits: the keyword index gives each hit's position among
those values, and ``random.sample`` reads a view that skips those positions,
so it draws exactly what it would from the filtered list, without building
that list or searching the values. Exact-match-1 keeps at most one matched
cell per column and never pads — the strictest baseline.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    @classmethod
    def empty(cls, table_id: str, n_columns: int) -> "SampleSet":
        return cls(table_id, ((),) * n_columns)


class _Without(Sequence):
    """``values`` without the entries at the sorted positions ``skip``: a
    read-only view that ``random.sample`` draws from exactly as it would
    from the filtered list, without building that list."""

    def __init__(self, values: tuple[str, ...], skip: list[int]):
        self._values = values
        self._skip = skip

    def __len__(self) -> int:
        return len(self._values) - len(self._skip)

    def __getitem__(self, i: int) -> str:
        for position in self._skip:
            if position > i:
                break
            i += 1
        return self._values[i]


def _remaining(values: tuple[str, ...], skip: list[int]) -> Sequence:
    """``values`` without the entries at the sorted positions ``skip``: the
    tuple itself when there are none."""
    return _Without(values, skip) if skip else values


def sample_random(table: Table, k: int, seed: int = 0) -> SampleSet:
    """Draw up to k distinct non-empty values per column, without
    replacement, independent of any question."""
    if k < 0:
        raise ValueError("k must be >= 0")
    columns = []
    for col, values in enumerate(column.distinct for column in table.columns):
        rng = child_rng("sample", seed, table.table_id, col)
        columns.append(tuple(rng.sample(values, min(k, len(values)))))
    return SampleSet(table.table_id, tuple(columns))


def sample_relevance(table: Table, index: ContentIndex, question: str,
                     k: int, seed: int = 0) -> SampleSet:
    """Question-matched cells first (question order, deduplicated, capped at
    k), then seeded random fill from the remaining distinct values."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if index.table_id != table.table_id:
        raise ValueError(
            f"index built for {index.table_id!r}, not {table.table_id!r}"
        )
    # per column, each hit's cell -> its position in the column's distinct values
    matched: list[dict[str, int]] = [{} for _ in range(table.schema.n_columns)]
    for match in extract_matches(index, question):
        bucket = matched[match.column_index]
        if match.cell not in bucket and len(bucket) < k:
            bucket[match.cell] = match.position
    columns = []
    for col, bucket in enumerate(matched):
        hits = list(bucket)
        fill_needed = k - len(hits)
        if fill_needed > 0:
            rng = child_rng("sample", seed, table.table_id, col)
            pool = _remaining(table.columns[col].distinct, sorted(bucket.values()))
            hits += rng.sample(pool, min(fill_needed, len(pool)))
        columns.append(tuple(hits))
    return SampleSet(table.table_id, tuple(columns))


def sample_exact_match_one(table: Table, index: ContentIndex,
                           question: str) -> SampleSet:
    """At most one sample per column: the earliest exact match in the
    question. No random fill."""
    if index.table_id != table.table_id:
        raise ValueError(
            f"index built for {index.table_id!r}, not {table.table_id!r}"
        )
    columns: list[tuple[str, ...]] = [()] * table.schema.n_columns
    for match in extract_matches(index, question):
        if not columns[match.column_index]:
            columns[match.column_index] = (match.cell,)
    return SampleSet(table.table_id, tuple(columns))

