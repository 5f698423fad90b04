"""Token vocabulary shared by the encoder and the checkpoint format."""

from __future__ import annotations

from collections import Counter

from .serialize import CLS, HEADER_DELIM, SAMPLE_DELIM, SEP, token_texts

PAD = "[PAD]"
UNK = "[UNK]"
SPECIALS = (PAD, UNK, CLS, SEP, HEADER_DELIM, SAMPLE_DELIM)
VOCAB_MAX_SIZE = 30_000  # the cap on tokens, specials included


class Vocab:
    def __init__(self, tokens: list[str]):
        """``tokens`` start with ``SPECIALS`` and are kept as given."""
        self.tokens = tokens
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.unk_id = self.index[UNK]

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        index = self.index
        unk = self.unk_id
        return [index.get(t, unk) for t in tokens]

    @classmethod
    def build(cls, corpus, tables, max_size: int = VOCAB_MAX_SIZE) -> "Vocab":
        """Count tokens over questions, headers, and cell values; keep the
        most frequent (ties break lexicographically for determinism).

        Each distinct cell of a column is tokenized once and its tokens
        counted once per row that holds it (from the table's column store).
        """
        counts: Counter = Counter()
        for example in corpus.examples:
            counts.update(token_texts(example.question))
        for table in tables.values():
            for header in table.schema.headers:
                counts.update(token_texts(header))
            for column in table.columns:
                for cell, n in zip(column.codebook, column.counts.tolist()):
                    for token in token_texts(cell):
                        counts[token] += n
        for special in SPECIALS:
            counts.pop(special, None)
        budget = max(0, max_size - len(SPECIALS))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:budget]
        return cls(list(SPECIALS) + [t for t, _ in ranked])
