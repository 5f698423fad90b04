"""Line-delimited corpus and table IO plus corpus validation.

Wire formats (UTF-8, one JSON record per line, unknown fields ignored):

  examples:  {"question": str, "table_id": str,
              "sql": {"sel": int, "agg": int, "conds": [[col, op, value], ...]}}
  tables:    {"id": str, "header": [str, ...], "types": [str, ...],
              "n_rows": int, "codebooks": [[str, ...], ...], "codes": str}
         or  {"id": str, "header": [str, ...], "types": [str, ...],
              "rows": [[cell, ...], ...]}

``sel``, ``agg`` and each condition's column and op must be JSON integers.
Condition values may arrive as JSON numbers or strings; both are accepted and
normalized to strings at load — typing is the executor's job.

A table record with ``codebooks`` is in column form, which ``save_tables``
writes: per column, its distinct cells in first-seen order, and in
``codes`` the base64 of n_columns × n_rows little-endian ``int32`` codes,
column after column, one blob per table. Loading checks the codebook count
and entry types and ``n_rows``; the codes are decoded and checked on first
use (``executor.columns_from_codes``), as decoding costs a pass over every
code and a training set-up never reads them. A record in rows form is
neither copied nor scanned at load: its column store, built on first use,
turns the cells of a column holding a non-string into ``str()``.
"""

from __future__ import annotations

import base64
import gc
import json
import logging
from collections import Counter
from dataclasses import dataclass, field

from .sketch import (
    AggOp,
    CondOp,
    Condition,
    Example,
    PROV_ORIGINAL,
    SqlSketch,
    Table,
    TableSchema,
    validate_sketch,
)
from .util import all_str

logger = logging.getLogger(__name__)

COLUMN_TYPES = ("text", "real")


class CorpusFormatError(ValueError):
    """A record failed schema validation in strict mode."""


@dataclass
class Corpus:
    examples: list[Example]
    meta: dict = field(default_factory=dict)


def _not_an_integer(fields: dict) -> ValueError:
    """The error naming the first of ``fields`` whose value is not a JSON
    integer: a float, a bool or a string is not one."""
    name, value = next((n, v) for n, v in fields.items() if type(v) is not int)
    return ValueError(f"{name}: expected an integer, got {value!r}")


def sketch_from_record(sql: dict) -> SqlSketch:
    """The sketch of an example's ``sql`` record; ``sel``, ``agg`` and each
    condition's column and op must be integers, tested two at a time."""
    sel, agg = sql["sel"], sql["agg"]
    if type(sel) is not int or type(agg) is not int:
        raise _not_an_integer({"sel": sel, "agg": agg})
    conds = []
    for i, (col, op, value) in enumerate(sql.get("conds", [])):
        if type(col) is not int or type(op) is not int:
            raise _not_an_integer({f"cond {i} column": col, f"cond {i} op": op})
        conds.append(Condition(col, CondOp(op), str(value)))
    return SqlSketch(select_column=sel, agg=AggOp(agg), conds=tuple(conds))


def _parse_example(record: dict) -> Example:
    question = record["question"]
    table_id = str(record["table_id"])
    if not isinstance(question, str) or not question.strip():
        raise ValueError("question must be a non-empty string")
    return Example(
        question=question,
        table_id=table_id,
        gold=sketch_from_record(record["sql"]),
        provenance=record.get("provenance", PROV_ORIGINAL),
        style=record.get("style", ""),
    )


def read_jsonl(path, strict: bool, consume) -> None:
    """Pass each non-blank line's JSON record to ``consume``. A line that is
    not UTF-8, that does not decode (nested too deep, say) or that ``consume``
    rejects raises CorpusFormatError naming the file and line (strict) or is
    skipped with a line-numbered warning (lenient)."""
    was_enabled = gc.isenabled()
    gc.disable()  # decoded JSON forms no cycles: collector passes would find nothing
    try:
        with open(path, "rb") as handle:
            # Not enumerate: its reused result tuple would keep each line's
            # bytes alive next to the decoded text (a table can be one
            # multi-MB line).
            lineno = 0
            for line in handle:
                lineno += 1
                try:
                    line = line.decode("utf-8")
                    if line.strip():
                        consume(json.loads(line))
                except (KeyError, TypeError, ValueError, OverflowError,
                        RecursionError) as exc:
                    if strict:
                        raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
                    logger.warning("%s:%d: skipping malformed line (%s)",
                                   path, lineno, exc)
    finally:
        if was_enabled:
            gc.enable()


def write_jsonl(records, path) -> None:
    """Write one compact JSON record per line, non-ASCII kept as is."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


def write_json(record, path) -> None:
    """Write one indented JSON record and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def load_examples(path, strict: bool = True) -> Corpus:
    """Load a line-delimited example file (malformed lines: ``read_jsonl``).
    An empty file yields an empty corpus with a warning."""
    examples: list[Example] = []
    read_jsonl(path, strict, lambda record: examples.append(_parse_example(record)))
    if not examples:
        logger.warning("%s: no examples loaded", path)
    return Corpus(examples=examples)


def example_to_record(example: Example) -> dict:
    record = {
        "question": example.question,
        "table_id": example.table_id,
        "sql": {
            "sel": example.gold.select_column,
            "agg": int(example.gold.agg),
            "conds": [[c.column_index, int(c.op), c.value] for c in example.gold.conds],
        },
    }
    if example.provenance != PROV_ORIGINAL:
        record["provenance"] = example.provenance
    if example.style:
        record["style"] = example.style
    return record


def save_examples(corpus: Corpus, path) -> None:
    write_jsonl(map(example_to_record, corpus.examples), path)


def _parse_table(record: dict) -> Table:
    table_id = str(record["id"])
    headers = [str(h) for h in record["header"]]
    raw_types = record.get("types") or ["text"] * len(headers)
    types = []
    for t in raw_types:
        if t not in COLUMN_TYPES:
            logger.warning("table %s: unknown column type %r mapped to text", table_id, t)
            t = "text"
        types.append(t)
    schema = TableSchema(table_id=table_id, headers=tuple(headers), types=tuple(types))
    if "codebooks" in record:
        codebooks, n_rows, codes = (record["codebooks"], record.get("n_rows"),
                                    record.get("codes"))
        if type(codebooks) is not list or not set(map(type, codebooks)) <= {list} \
                or not all(map(all_str, codebooks)):
            raise ValueError(f"table {table_id!r}: codebooks must be a list of "
                             f"arrays of strings")
        if type(n_rows) is not int or n_rows < 0:
            raise ValueError(f"table {table_id!r}: n_rows must be a non-negative "
                             f"integer, got {n_rows!r}")
        if type(codes) is not str:
            raise ValueError(f"table {table_id!r}: codes must be a base64 string")
        return Table.coded(schema, n_rows, codebooks, codes)
    rows = record.get("rows", [])
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise ValueError(f"table {table_id!r}: rows must be a list of arrays")
    return Table(schema=schema, rows=rows)


def load_tables(path, strict: bool = True) -> dict[str, Table]:
    """Load a line-delimited table file into a table_id -> Table map."""
    tables: dict[str, Table] = {}

    def add(record: dict) -> None:
        table = _parse_table(record)
        if table.table_id in tables:
            raise ValueError(f"duplicate table_id {table.table_id!r}")
        tables[table.table_id] = table

    read_jsonl(path, strict, add)
    return tables


def table_to_record(table: Table) -> dict:
    """The column-form record of ``table``."""
    columns = table.columns
    codes = b"".join(column.codes.astype("<i4", copy=False).tobytes()
                     for column in columns)
    return {
        "id": table.table_id,
        "header": list(table.schema.headers),
        "types": list(table.schema.types),
        "n_rows": table.n_rows,
        "codebooks": [list(column.codebook) for column in columns],
        "codes": base64.b64encode(codes).decode("ascii"),
    }


def save_tables(tables: dict[str, Table], path) -> None:
    write_jsonl(map(table_to_record, tables.values()), path)


def example_table(i: int, example: Example, tables: dict[str, Table]) -> Table:
    """The table of example ``i``. Raises ValueError naming the example when
    the table is unknown or ``validate_sketch`` rejects the gold sketch
    against it, so no command reads or supervises a column that is not
    there."""
    table = tables.get(example.table_id)
    if table is None:
        raise ValueError(f"example {i}: unknown table {example.table_id!r}")
    violations = validate_sketch(example.gold, table.schema)
    if violations:
        raise ValueError(f"example {i}: {'; '.join(violations)}")
    return table


@dataclass
class CorpusReport:
    n_examples: int
    violations: list[tuple[int, str]]  # (example index, description)
    agg_histogram: Counter
    conds_histogram: Counter
    question_length_histogram: Counter

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"examples: {self.n_examples}",
            f"violations: {len(self.violations)}",
            "agg distribution: "
            + ", ".join(f"{AggOp(k).name}={v}" for k, v in sorted(self.agg_histogram.items())),
            "conds count: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.conds_histogram.items())),
            "question words: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.question_length_histogram.items())),
        ]
        for idx, desc in self.violations[:20]:
            lines.append(f"  example {idx}: {desc}")
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)


def validate_corpus(corpus: Corpus, tables: dict[str, Table]) -> CorpusReport:
    """Per-example sketch validation plus corpus statistics."""
    violations = []
    agg_hist: Counter = Counter()
    conds_hist: Counter = Counter()
    qlen_hist: Counter = Counter()
    for idx, example in enumerate(corpus.examples):
        agg_hist[int(example.gold.agg)] += 1
        conds_hist[len(example.gold.conds)] += 1
        qlen_hist[len(example.question.split())] += 1
        table = tables.get(example.table_id)
        if table is None:
            violations.append((idx, f"dangling table_id {example.table_id!r}"))
            continue
        for desc in validate_sketch(example.gold, table.schema):
            violations.append((idx, desc))
    return CorpusReport(
        n_examples=len(corpus.examples),
        violations=violations,
        agg_histogram=agg_hist,
        conds_histogram=conds_hist,
        question_length_histogram=qlen_hist,
    )
