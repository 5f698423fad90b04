"""Tokenization and encoder-input serialization.

The serialized form is
``[CLS] q1..qn [SEP] H1 || s11 | s12 ... [SEP] H2 || ... [SEP]``:
one block per schema column, `||` between a header and its samples, `|`
between samples, `[SEP]` closing each column block. A column with no samples
contributes only its header tokens. Every token carries a segment label
(question / header / sample / separator) and header/sample/delimiter tokens
inside a column block carry that column's ordinal, so headers and samples
are exactly recoverable from the labels: inside a column block a delimiter
is known by its separator label, not by its text, so a `|` in a header or a
cell round-trips as an ordinary header or sample token.

Positions follow from the layout, and the encoder's features rely on it:
with m question tokens, the question is positions 1..m (``[CLS]`` is 0), and
each column's header tokens form one run, the runs in column order. Every
header has at least one token, since a schema rejects blank headers and each
non-space character makes a token.

Over-budget inputs shed samples — the last sample of whichever column
currently has the most sample tokens goes first, ties going to the first
column that has samples — and never question or header tokens; if those
alone exceed the budget, serialization fails.
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
SEGMENT_LETTERS = "qhs-"  # indexed by segment label, for debug printing

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
    """The texts of ``tokenize(text)``, without building the tokens."""
    return [s.lower() for s in _TOKEN_RE.findall(text)]


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
        """Rebuild (header tokens, sample token lists) per column in one pass
        over the segment/column labels; no token text is compared."""
        out = [([], []) for _ in range(max(self.columns, default=-1) + 1)]
        for token, segment, col in zip(self.tokens, self.segments, self.columns):
            if col < 0:
                continue
            header, samples = out[col]
            if segment == SEG_HEADER:
                header.append(token)
            elif segment == SEG_SEPARATOR:  # '||' or '|' opens a sample
                samples.append([])
            else:
                samples[-1].append(token)
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
    cells = samples.columns if samples is not None else [()] * schema.n_columns
    sample_tokens = [[token_texts(c) for c in column] for column in cells]

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
        # A blank cell has no tokens but still a delimiter, so every width
        # can be 0: the tie goes to the first column with samples left.
        widest = max(range(schema.n_columns),
                     key=lambda c: (block_width(c), bool(sample_tokens[c])))
        dropped = sample_tokens[widest].pop()
        total -= len(dropped) + 1  # the sample and one delimiter

    layout = [(CLS, SEG_SEPARATOR, -1)]
    layout += [(tok.text, SEG_QUESTION, -1) for tok in question_tokens]
    layout.append((SEP, SEG_SEPARATOR, -1))
    for col in range(schema.n_columns):
        layout += [(t, SEG_HEADER, col) for t in header_tokens[col]]
        for i, sample in enumerate(sample_tokens[col]):
            layout.append((SAMPLE_DELIM if i else HEADER_DELIM, SEG_SEPARATOR, col))
            for t in sample:  # a comprehension per sample would cost a call each
                layout.append((t, SEG_SAMPLE, col))
        layout.append((SEP, SEG_SEPARATOR, -1))

    assert len(layout) <= budget
    tokens, segments, columns = zip(*layout)
    return SerializedInput(
        tokens=tokens,
        segments=segments,
        columns=columns,
        question_spans=tuple((tok.start, tok.end) for tok in question_tokens),
        question=question,
    )
