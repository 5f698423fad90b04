"""Correctness checks for the benchmark's outputs, computed apart from the
program and run outside the timed regions.

Every checker returns a list of problems; an empty list means the output
passed. The reference interpreter and the keyword matcher are written from
scratch against the documented semantics and share no helper code with the
engine they check.
"""

from __future__ import annotations

import math
import re

import numpy as np

from nlsql.serialize import SEG_HEADER, SEG_QUESTION, token_texts
from nlsql.sketch import AggOp, CondOp, validate_sketch

# ---------------------------------------------------------------------------
# Reference interpreter (row by row)


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


def reference_execute(sketch, table) -> list:
    """Result multiset of a sketch as a plain list (numbers for aggregates)."""
    survivors = []
    for row in table.rows:
        keep = True
        for cond in sketch.conds:
            cell = row[cond.column_index]
            if cond.op is CondOp.EQ:
                keep = _norm(cell) == _norm(cond.value)
            else:
                left, right = _num(cell), _num(cond.value)
                if left is None or right is None:
                    keep = False
                elif cond.op is CondOp.GT:
                    keep = left > right
                else:
                    keep = left < right
            if not keep:
                break
        if keep:
            survivors.append(row)
    col = sketch.select_column
    if sketch.agg is AggOp.NONE:
        return [row[col] for row in survivors]
    if sketch.agg is AggOp.COUNT:
        return [len(survivors)]
    numbers = [n for n in (_num(row[col]) for row in survivors) if n is not None]
    if not numbers:
        return []
    if sketch.agg is AggOp.MAX:
        return [max(numbers)]
    if sketch.agg is AggOp.MIN:
        return [min(numbers)]
    if sketch.agg is AggOp.SUM:
        return [sum(numbers)]
    return [sum(numbers) / len(numbers)]


def check_result(values, sketch, table) -> list[str]:
    """The executor's result equals the reference interpreter's: the same
    multiset of cells, or the same number within 1e-9 relative."""
    expected = reference_execute(sketch, table)
    got = list(values)
    if sketch.agg in (AggOp.NONE, AggOp.COUNT):
        if sorted(map(str, got)) != sorted(map(str, expected)):
            return [f"result {_short(got)} != reference {_short(expected)}"]
        return []
    if len(got) != len(expected) or not all(
            isinstance(g, (int, float))
            and math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-12)
            for g, e in zip(got, expected)):
        return [f"aggregate {got} != reference {expected}"]
    return []


def _short(values, limit=5):
    return values[:limit] + (["..."] if len(values) > limit else [])


# ---------------------------------------------------------------------------
# Content sampling


def distinct_cells(table) -> list[set[str]]:
    """Per column, the distinct non-empty cell strings."""
    out = [set() for _ in range(table.schema.n_columns)]
    for row in table.rows:
        for col, cell in enumerate(row):
            if cell.strip():
                out[col].add(cell)
    return out


class BruteForceMatcher:
    """Word-boundary regex scan over every distinct cell value of a table.

    Matches resolve left to right, longest first, without overlaps; a value
    present in several columns matches in each of them.
    """

    def __init__(self, table):
        patterns: dict[str, dict[int, str]] = {}
        for row in table.rows:
            for col, cell in enumerate(row):
                norm = _norm(cell)
                if norm:
                    patterns.setdefault(norm, {}).setdefault(col, cell)
        self._patterns = [(norm.split(" "), norm, columns)
                          for norm, columns in patterns.items()]
        self._compiled: dict[str, re.Pattern] = {}

    def matches(self, question: str) -> list[tuple[int, str]]:
        lowered = question.lower()
        candidates = []
        # Every word of a matching value occurs in the lowered question; the
        # substring test only skips the regex for values that cannot match.
        for words, norm, columns in self._patterns:
            if words[0] not in lowered or not all(w in lowered for w in words):
                continue
            regex = self._compiled.get(norm)
            if regex is None:
                body = r"\s+".join(re.escape(w) for w in words)
                regex = re.compile(rf"(?=({body}))", flags=re.IGNORECASE)
                self._compiled[norm] = regex
            for m in regex.finditer(question):
                start, end = m.start(1), m.start(1) + len(m.group(1))
                if (start == 0 or not question[start - 1].isalnum()) and \
                        (end == len(question) or not question[end].isalnum()):
                    candidates.append((start, end, columns))
        candidates.sort(key=lambda c: (c[0], -(c[1] - c[0])))
        out, cursor = [], 0
        for start, end, columns in candidates:
            if start < cursor:
                continue
            cursor = end
            out.extend((col, columns[col]) for col in sorted(columns))
        return out


def expected_hits(matcher: BruteForceMatcher, question: str, n_columns: int,
                  k: int) -> list[list[str]]:
    """Question-matched cells per column, in question order, deduplicated,
    at most k."""
    hits: list[list[str]] = [[] for _ in range(n_columns)]
    for col, cell in matcher.matches(question):
        if cell not in hits[col] and len(hits[col]) < k:
            hits[col].append(cell)
    return hits


def check_samples(columns, distinct: list[set[str]], k: int,
                  hits: list[list[str]] | None = None) -> list[str]:
    """Every sample is a distinct non-empty value of its column, each column
    holds min(k, its distinct count) samples, and relevance samples start
    with the matched cells."""
    problems = []
    if len(columns) != len(distinct):
        return [f"{len(columns)} sample columns for {len(distinct)} columns"]
    for col, values in enumerate(columns):
        if len(set(values)) != len(values):
            problems.append(f"column {col}: repeated sample in {list(values)}")
        stray = [v for v in values if v not in distinct[col]]
        if stray:
            problems.append(f"column {col}: {stray} not a non-empty value of the column")
        if len(values) != min(k, len(distinct[col])):
            problems.append(f"column {col}: {len(values)} samples, "
                            f"expected {min(k, len(distinct[col]))}")
        if hits is not None and list(values[:len(hits[col])]) != hits[col]:
            problems.append(f"column {col}: samples {list(values)} do not start "
                            f"with the matched cells {hits[col]}")
    return problems


# ---------------------------------------------------------------------------
# Serialization


def check_serialized(serialized, question: str, schema, served_columns,
                     budget: int) -> tuple[list[str], int]:
    """Budget, question and header token order, and sample recovery.

    Returns (problems, number of samples shed to fit the budget).
    """
    problems = []
    if len(serialized.tokens) > budget:
        problems.append(f"{len(serialized.tokens)} tokens over budget {budget}")
    q_tokens = [t for t, s in zip(serialized.tokens, serialized.segments)
                if s == SEG_QUESTION]
    if q_tokens != token_texts(question):
        problems.append(f"question tokens {q_tokens} out of order")
    header_order = [c for s, c in zip(serialized.segments, serialized.columns)
                    if s == SEG_HEADER]
    if header_order != sorted(header_order):
        problems.append("column blocks out of order")
    shed = 0
    recovered = serialized.recover_columns()
    if len(recovered) != schema.n_columns:
        problems.append(f"recovered {len(recovered)} of {schema.n_columns} columns")
        return problems, shed
    for col, (header, samples) in enumerate(recovered):
        if header != token_texts(schema.headers[col]):
            problems.append(f"column {col}: header tokens {header}")
        served = [token_texts(v) for v in served_columns[col]]
        if len(samples) > len(served) or samples != served[:len(samples)]:
            problems.append(f"column {col}: recovered samples {samples} "
                            f"are not a prefix of those served {served}")
        shed += max(0, len(served) - len(samples))
    return problems, shed


# ---------------------------------------------------------------------------
# Decoded sketches


def check_sketch(sketch, schema, question: str) -> list[str]:
    problems = list(validate_sketch(sketch, schema))
    for cond in sketch.conds:
        if cond.value not in question:
            problems.append(f"condition value {cond.value!r} not in the question")
    return problems


# ---------------------------------------------------------------------------
# Training


def finite_difference_check(loss_fn, params: dict, grads: dict,
                            per_block: int = 3, seed: int = 0,
                            focus: dict | None = None) -> list[str]:
    """Central differences on a few entries of every parameter block.

    The same rule as acceptance criterion 5: step 1e-5, relative error
    |an - fd| / max(|an|, |fd|, 1e-3) below 1e-4. ``focus`` maps a block
    name to flat indices to include (rows an example actually uses).
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    problems = []
    if sorted(grads) != sorted(params):
        problems.append(f"gradient blocks {sorted(set(params) ^ set(grads))} "
                        "missing or extra")
    for name in sorted(params):
        flat = params[name].reshape(-1)
        indices = list(rng.choice(flat.size, size=min(per_block, flat.size),
                                  replace=False))
        indices += list((focus or {}).get(name, ()))
        for i in indices:
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn(params)
            flat[i] = keep - h
            down = loss_fn(params)
            flat[i] = keep
            fd = (up - down) / (2 * h)
            an = float(grads[name].reshape(-1)[i]) if name in grads else 0.0
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-3)
            if not rel < 1e-4:
                problems.append(f"{name}[{i}]: analytic {an:.6e} vs "
                                f"finite difference {fd:.6e}")
    return problems


def check_history(history: list[dict], epochs: int) -> list[str]:
    problems = []
    if len(history) != epochs:
        problems.append(f"{len(history)} history rows for {epochs} epochs")
    losses = [row["loss"] for row in history]
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite loss in {losses}")
    elif len(losses) < 2 or not losses[-1] < losses[0]:
        problems.append(f"last-epoch loss {losses[-1:]} not below the first "
                        f"{losses[:1]}")
    return problems


def check_round_trip(saved, loaded) -> list[str]:
    """A loaded checkpoint is bit-identical to the one saved."""
    problems = []
    if loaded.config != saved.config:
        problems.append("config changed in the round trip")
    if loaded.vocab.tokens != saved.vocab.tokens:
        problems.append("vocabulary changed in the round trip")
    if sorted(loaded.params) != sorted(saved.params):
        problems.append("parameter names changed in the round trip")
    for name, value in saved.params.items():
        other = loaded.params.get(name)
        if other is None or other.shape != value.shape or other.dtype != value.dtype \
                or other.tobytes() != value.tobytes():
            problems.append(f"parameter {name} changed in the round trip")
    return problems
