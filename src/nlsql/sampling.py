"""Per-column table-content sampling: random, relevance, and exact-match-1.

Random sampling is question-agnostic and can be generated offline once per
table. Relevance sampling puts question-matched cells first and pads the
remainder with seeded random fill. Exact-match-1 keeps at most one matched
cell per column and never pads — the strictest baseline.

Sample sets persist to a line-delimited sidecar file, one record per
(table, strategy) pair.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

from .keyword_index import ContentIndex, distinct_columns, extract_matches
from .sketch import Table
from .util import child_rng

STRATEGY_RANDOM = "random"
STRATEGY_RELEVANCE = "relevance"
STRATEGY_EM1 = "em1"


@dataclass(frozen=True)
class SampleSet:
    table_id: str
    strategy: str
    k: int
    columns: tuple[tuple[str, ...], ...]  # per column, ordered samples
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "columns", tuple(tuple(c) for c in self.columns)
        )

    @classmethod
    def empty(cls, table_id: str, n_columns: int) -> "SampleSet":
        return cls(table_id=table_id, strategy=STRATEGY_RANDOM, k=0,
                   columns=((),) * n_columns)


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


def _remaining(values: tuple[str, ...], hits: list[str]) -> Sequence:
    """``values`` without ``hits``: the tuple itself when there are none."""
    return _Without(values, sorted(map(values.index, hits))) if hits else values


def sample_random(table: Table, k: int, seed: int = 0) -> SampleSet:
    """Draw up to k distinct non-empty values per column, without
    replacement, independent of any question."""
    if k < 0:
        raise ValueError("k must be >= 0")
    columns = []
    for col, values in enumerate(distinct_columns(table)):
        rng = child_rng("sample", seed, table.table_id, col)
        columns.append(tuple(rng.sample(values, min(k, len(values)))))
    return SampleSet(table.table_id, STRATEGY_RANDOM, k, tuple(columns), seed)


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
    matched: list[list[str]] = [[] for _ in range(table.schema.n_columns)]
    for match in extract_matches(index, question):
        bucket = matched[match.column_index]
        if match.cell not in bucket and len(bucket) < k:
            bucket.append(match.cell)
    columns = []
    for col, hits in enumerate(matched):
        fill_needed = k - len(hits)
        if fill_needed > 0:
            rng = child_rng("sample", seed, table.table_id, col)
            pool = _remaining(index.distinct_values[col], hits)
            hits = hits + rng.sample(pool, min(fill_needed, len(pool)))
        columns.append(tuple(hits))
    return SampleSet(table.table_id, STRATEGY_RELEVANCE, k, tuple(columns), seed)


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
    return SampleSet(table.table_id, STRATEGY_EM1, 1, tuple(columns), None)


def save_sample_sets(sample_sets, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in sample_sets:
            record = {
                "table_id": s.table_id,
                "strategy": s.strategy,
                "k": s.k,
                "seed": s.seed,
                "columns": [list(c) for c in s.columns],
            }
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


def load_sample_sets(path) -> list[SampleSet]:
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            out.append(SampleSet(
                table_id=record["table_id"],
                strategy=record["strategy"],
                k=int(record["k"]),
                columns=tuple(tuple(c) for c in record["columns"]),
                seed=record.get("seed"),
            ))
    return out
