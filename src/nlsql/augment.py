"""Question synthesis from gold sketches and relational-symbol rewriting.

Synthesis turns a gold sketch into short keyword-style question variants:
the select header lands at the front or the back, each condition shows up as
"value", "header value", or "value header", and condition order is permuted.
Symbol substitution rewrites relational ngrams ("more than", "under", ...)
to their operator symbols, but only when the gold sketch actually contains a
condition with that operator, so the rewrite is meaning-preserving by
construction. Phrases are found by the content index's lookup
(``keyword_index.find_phrases``): case-insensitive, word-boundary-anchored,
longest first, and a space in a pattern matches any whitespace run. Gold
sketches are never modified.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .corpus import Corpus, example_table
from .keyword_index import find_phrases, normalize_pattern
from .sketch import (
    AggOp,
    CondOp,
    Condition,
    Example,
    PROV_SYMBOL,
    PROV_SYNTHESIZED,
    Table,
    TableSchema,
)
from .util import child_rng, normalize_value

AGG_WORDS = {
    AggOp.COUNT: "number of",
    AggOp.MAX: "highest",
    AggOp.MIN: "lowest",
    AggOp.SUM: "total",
    AggOp.AVG: "average",
}


@dataclass(frozen=True)
class Replacement:
    pattern: str  # lowercase ngram
    op: CondOp
    symbol: str


DEFAULT_REPLACEMENTS: tuple[Replacement, ...] = (
    Replacement("bigger than", CondOp.GT, ">"),
    Replacement("larger than", CondOp.GT, ">"),
    Replacement("more than", CondOp.GT, ">"),
    Replacement("over", CondOp.GT, ">"),
    Replacement("less than", CondOp.LT, "<"),
    Replacement("smaller than", CondOp.LT, "<"),
    Replacement("under", CondOp.LT, "<"),
    Replacement("fewer than", CondOp.LT, "<"),
)


@dataclass(frozen=True)
class ReplacementMap:
    entries: tuple[Replacement, ...] = DEFAULT_REPLACEMENTS

    def __post_init__(self):
        for entry in self.entries:
            if not entry.pattern or entry.pattern != entry.pattern.lower():
                raise ValueError(f"patterns must be lowercase and non-empty: {entry}")
        # Longest first: the order synthesis uses each operator's phrases in;
        # of patterns that normalize alike, the first one's symbol is used.
        ordered = tuple(sorted(self.entries, key=lambda e: -len(e.pattern)))
        object.__setattr__(self, "entries", ordered)

    def patterns_for(self, op: CondOp) -> tuple[str, ...]:
        return tuple(e.pattern for e in self.entries if e.op is op)


def load_replacement_map(path) -> ReplacementMap:
    """Read `pattern <TAB> op <TAB> symbol` lines; op is a symbol or name."""
    entries = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            pattern, op_text, symbol = (p.strip() for p in parts)
            try:
                op = CondOp.from_symbol(op_text)
            except ValueError:
                if op_text.upper() not in CondOp.__members__:
                    raise ValueError(
                        f"{path}:{lineno}: unknown operator {op_text!r}"
                    ) from None
                op = CondOp[op_text.upper()]
            entries.append(Replacement(pattern.lower(), op, symbol))
    return ReplacementMap(tuple(entries))


@dataclass(frozen=True)
class AugmentConfig:
    variants_per_example: int = 8
    symbol_substitution_probability: float = 0.5
    mix_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.symbol_substitution_probability <= 1.0:
            raise ValueError("symbol_substitution_probability must be in [0, 1]")
        if not 0.0 <= self.mix_ratio < float("inf"):
            raise ValueError("mix_ratio must be finite and >= 0")
        if self.variants_per_example < 0:
            raise ValueError("variants_per_example must be >= 0")


def _condition_forms(header: str, cond: Condition,
                     rmap: ReplacementMap) -> list[str]:
    h = header.lower()
    v = normalize_value(cond.value)
    if cond.op is CondOp.EQ:
        return [v, f"{h} {v}", f"{v} {h}"]
    # Order conditions keep a relational phrase so the operator survives in
    # the surface form (and gives symbol substitution something to rewrite).
    phrases = rmap.patterns_for(cond.op) or (cond.op.symbol,)
    forms = [f"{h} {phrase} {v}" for phrase in phrases]
    forms += [f"{phrase} {v}" for phrase in phrases]
    return forms


_MAX_ENUMERATION = 4000


def synthesize_short_questions(
    example: Example,
    schema: TableSchema,
    config: AugmentConfig,
    rng: random.Random,
    replacement_map: ReplacementMap | None = None,
) -> list[Example]:
    """Template-expand one example's gold sketch into short question variants.

    The full template space is enumerated (capped), deduplicated, and then
    sampled down to ``variants_per_example``. The gold sketch is carried
    through unchanged with provenance "synthesized".
    """
    if config.variants_per_example == 0:
        return []
    rmap = replacement_map or ReplacementMap()
    gold = example.gold
    sel = schema.headers[gold.select_column].lower()
    if gold.agg is not AggOp.NONE:
        sel = f"{AGG_WORDS[gold.agg]} {sel}"

    per_cond_forms = [
        _condition_forms(schema.headers[c.column_index], c, rmap)
        for c in gold.conds
    ]
    orderings = itertools.permutations(range(len(gold.conds)))

    def templates():
        for prefix, order in itertools.product((True, False), orderings):
            for combo in itertools.product(*(per_cond_forms[i] for i in order)):
                yield " ".join((sel, *combo) if prefix else (*combo, sel))

    questions: list[str] = []
    seen: set[str] = set()
    for question in templates():
        if question not in seen:
            seen.add(question)
            questions.append(question)
            if len(questions) == _MAX_ENUMERATION:
                break

    if len(questions) > config.variants_per_example:
        questions = rng.sample(questions, config.variants_per_example)
    return [
        Example(question=q, table_id=example.table_id, gold=gold,
                provenance=PROV_SYNTHESIZED, style="short")
        for q in questions
    ]


def substitute_relational_symbols(
    example: Example,
    replacement_map: ReplacementMap,
    rng: random.Random,
    probability: float = 1.0,
) -> Example:
    """Rewrite relational ngrams to operator symbols, gated on the gold ops.

    A pattern is eligible only if the gold sketch has a condition with the
    pattern's operator. Overlapping occurrences resolve left-to-right,
    longest first; each surviving occurrence is rewritten with the given
    probability.
    """
    gold_ops = {c.op for c in example.gold.conds}
    symbols: dict[str, str] = {}
    for entry in replacement_map.entries:
        if entry.op in gold_ops:
            symbols.setdefault(normalize_pattern(entry.pattern), entry.symbol)
    if not symbols:
        return example
    selected = find_phrases(symbols, max(map(len, symbols), default=0),
                            example.question)
    fired = [span for span in selected if rng.random() < probability]
    if not fired:
        return example
    out = []
    cursor = 0
    for start, end, symbol in fired:
        out.append(example.question[cursor:start])
        out.append(symbol)
        cursor = end
    out.append(example.question[cursor:])
    return Example(
        question="".join(out),
        table_id=example.table_id,
        gold=example.gold,
        provenance=PROV_SYMBOL,
        style=example.style,
    )


def augment_corpus(
    corpus: Corpus,
    tables: dict[str, Table],
    config: AugmentConfig,
    replacement_map: ReplacementMap | None = None,
) -> Corpus:
    """Blend synthesized variants into a corpus at ``mix_ratio``.

    Output = originals plus round(mix_ratio * len(originals)) variants drawn
    from the synthesized pool, shuffled deterministically under the seed.
    """
    rmap = replacement_map or ReplacementMap()
    originals = list(corpus.examples)
    pool: list[Example] = []
    for i, example in enumerate(originals):
        table = example_table(i, example, tables)
        ex_rng = child_rng("augment", config.seed, i)
        for variant in synthesize_short_questions(
            example, table.schema, config, ex_rng, rmap
        ):
            pool.append(substitute_relational_symbols(
                variant, rmap, ex_rng, config.symbol_substitution_probability
            ))

    rng = child_rng("augment", config.seed, "mix")
    rng.shuffle(pool)
    n_add = min(len(pool), round(config.mix_ratio * len(originals)))
    added = pool[:n_add]

    out = originals + added
    rng.shuffle(out)
    stats = {
        "originals": len(originals),
        "added": len(added),
        "pool": len(pool),
        "symbol_substituted": sum(1 for e in added if e.provenance == PROV_SYMBOL),
    }
    meta = dict(corpus.meta)
    meta["augmentation"] = stats
    return Corpus(examples=out, meta=meta)
