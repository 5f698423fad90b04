"""Tokenization and encoder-input serialization.

The serialized form is
``[CLS] q1..qn [SEP] H1 || s11 | s12 ... [SEP] H2 || ... [SEP]``:
one block per schema column, `||` between a header and its samples, `|`
between samples, `[SEP]` closing each column block. A column with no samples
contributes only its header tokens. Every token carries a segment label
(question / header / sample / separator) and header/sample/delimiter tokens
inside a column block carry that column's ordinal, so headers and samples
are exactly recoverable from the labels.

Positions follow from the layout, and the encoder's features rely on it:
with m question tokens, the question is positions 1..m (``[CLS]`` is 0), and
each column's header tokens form one run, the runs in column order. Every
header has at least one token, since a schema rejects blank headers and each
non-space character makes a token.

Over-budget inputs shed samples — the last sample of whichever column
currently has the most sample tokens goes first — and never question or
header tokens; if those alone exceed the budget, serialization fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .sampling import SampleSet
from .sketch import TableSchema

CLS = "[CLS]"
SEP = "[SEP]"
HEADER_DELIM = "||"
SAMPLE_DELIM = "|"

SEG_QUESTION = 0
SEG_HEADER = 1
SEG_SAMPLE = 2
SEG_SEPARATOR = 3
N_SEGMENTS = 4

DEFAULT_BUDGET = 512

_TOKEN_RE = re.compile(r"\d+\.\d+|\w+|[^\w\s]")


class Token(NamedTuple):
    text: str  # normalized (lowercase) surface
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Split into lowercase word/number/punctuation tokens with original
    character offsets."""
    return [
        Token(m.group().lower(), m.start(), m.end())
        for m in _TOKEN_RE.finditer(text)
    ]


def token_texts(text: str) -> list[str]:
    return [t.text for t in tokenize(text)]


class BudgetError(ValueError):
    """Question plus headers alone exceed the token budget."""


@dataclass(frozen=True)
class SerializedInput:
    tokens: tuple[str, ...]
    segments: tuple[int, ...]
    columns: tuple[int, ...]  # column ordinal, -1 outside column blocks
    question_spans: tuple[tuple[int, int], ...]  # per question token
    question: str

    def __len__(self) -> int:
        return len(self.tokens)

    def recover_columns(self) -> list[tuple[list[str], list[list[str]]]]:
        """Rebuild (header tokens, sample token lists) per column from the
        segment/column labels alone."""
        n_columns = max(self.columns, default=-1) + 1
        out = []
        for col in range(n_columns):
            header = [
                t for t, seg, c in zip(self.tokens, self.segments, self.columns)
                if c == col and seg == SEG_HEADER
            ]
            samples: list[list[str]] = []
            current: list[str] | None = None
            for t, seg, c in zip(self.tokens, self.segments, self.columns):
                if c != col:
                    continue
                if t == HEADER_DELIM:
                    current = []
                elif t == SAMPLE_DELIM:
                    samples.append(current or [])
                    current = []
                elif seg == SEG_SAMPLE:
                    (current if current is not None else samples).append(t)
            if current is not None:
                samples.append(current)
            out.append((header, samples))
        return out

    def render(self) -> str:
        return " ".join(self.tokens)


def serialize_input(
    question_tokens: Sequence[Token],
    schema: TableSchema,
    samples: SampleSet | None,
    budget: int = DEFAULT_BUDGET,
    question: str = "",
) -> SerializedInput:
    """Assemble the delimited token sequence for one (question, table) pair."""
    header_tokens = [token_texts(h) for h in schema.headers]
    sample_tokens: list[list[list[str]]] = []
    for col in range(schema.n_columns):
        cells = samples.columns[col] if samples is not None else ()
        sample_tokens.append([token_texts(c) for c in cells])

    base = 2 + len(question_tokens) + sum(len(h) for h in header_tokens)
    base += schema.n_columns  # one [SEP] per column block
    if base > budget:
        raise BudgetError(
            f"question and headers need {base} tokens, budget is {budget}"
        )

    def block_width(col: int) -> int:
        return sum(len(s) for s in sample_tokens[col])

    # A block of n samples has n delimiters: one '||' plus n-1 '|'.
    total = base + sum(block_width(c) + len(sample_tokens[c])
                       for c in range(schema.n_columns))
    while total > budget:
        widest = max(range(schema.n_columns), key=block_width)
        dropped = sample_tokens[widest].pop()
        total -= len(dropped) + 1  # the sample and one delimiter

    tokens: list[str] = [CLS]
    segments: list[int] = [SEG_SEPARATOR]
    columns: list[int] = [-1]
    spans: list[tuple[int, int]] = []
    for tok in question_tokens:
        tokens.append(tok.text)
        segments.append(SEG_QUESTION)
        columns.append(-1)
        spans.append((tok.start, tok.end))
    tokens.append(SEP)
    segments.append(SEG_SEPARATOR)
    columns.append(-1)

    for col in range(schema.n_columns):
        for t in header_tokens[col]:
            tokens.append(t)
            segments.append(SEG_HEADER)
            columns.append(col)
        for i, sample in enumerate(sample_tokens[col]):
            tokens.append(HEADER_DELIM if i == 0 else SAMPLE_DELIM)
            segments.append(SEG_SEPARATOR)
            columns.append(col)
            for t in sample:
                tokens.append(t)
                segments.append(SEG_SAMPLE)
                columns.append(col)
        tokens.append(SEP)
        segments.append(SEG_SEPARATOR)
        columns.append(-1)

    assert len(tokens) <= budget
    return SerializedInput(
        tokens=tuple(tokens),
        segments=tuple(segments),
        columns=tuple(columns),
        question_spans=tuple(spans),
        question=question,
    )
