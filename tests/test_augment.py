import pytest
from hypothesis import given, settings, strategies as st

from nlsql.augment import (
    AugmentConfig,
    Replacement,
    ReplacementMap,
    augment_corpus,
    load_replacement_map,
    substitute_relational_symbols,
    synthesize_short_questions,
)
from nlsql.sketch import (
    AggOp,
    CondOp,
    Condition,
    Example,
    SqlSketch,
    Table,
    TableSchema,
    lf_equal,
)
from nlsql.synth import SynthConfig, generate_synthetic_corpus
from nlsql.util import child_rng

from oracles import oracle_matches


@pytest.fixture
def roster_table() -> Table:
    return Table(
        TableSchema("roster", ("Player", "Jersey", "Nationality"),
                    ("text", "real", "text")),
        (("Dylan Carter", "42", "australian"),),
    )


@pytest.fixture
def roster_example(roster_table) -> Example:
    gold = SqlSketch(0, AggOp.NONE, (
        Condition(1, CondOp.EQ, "42"),
        Condition(2, CondOp.EQ, "australian"),
    ))
    return Example(
        "Who is the player of Australian nationality that wears jersey number 42?",
        "roster", gold,
    )


def test_synthesize_covers_expected_variants(roster_example, roster_table):
    config = AugmentConfig(variants_per_example=200)
    variants = synthesize_short_questions(
        roster_example, roster_table.schema, config, child_rng("t", 0)
    )
    questions = {v.question for v in variants}
    assert "player jersey 42 australian nationality" in questions
    assert "42 jersey australian nationality player" in questions
    for v in variants:
        assert v.provenance == "synthesized"
        assert v.gold == roster_example.gold


def test_synthesize_zero_conditions_degenerates_to_header():
    schema = TableSchema("t", ("Accounts",), ("text",))
    example = Example("list all accounts", "t", SqlSketch(0))
    variants = synthesize_short_questions(
        example, schema, AugmentConfig(variants_per_example=5), child_rng("t", 1)
    )
    assert [v.question for v in variants] == ["accounts"]


def test_synthesize_respects_cap(roster_example, roster_table):
    config = AugmentConfig(variants_per_example=4)
    variants = synthesize_short_questions(
        roster_example, roster_table.schema, config, child_rng("t", 2)
    )
    assert len(variants) == 4
    assert len({v.question for v in variants}) == 4


def test_synthesize_count_prepends_number_of(roster_table):
    gold = SqlSketch(0, AggOp.COUNT, (Condition(2, CondOp.EQ, "australian"),))
    example = Example("how many players are australian?", "roster", gold)
    variants = synthesize_short_questions(
        example, roster_table.schema, AugmentConfig(variants_per_example=50),
        child_rng("t", 3),
    )
    assert any(v.question.startswith("number of player") for v in variants)


def test_substitute_rewrites_gated_ngram(motogp_table):
    gold = SqlSketch(3, AggOp.NONE, (
        Condition(1, CondOp.EQ, "bmw"),
        Condition(2, CondOp.GT, "200"),
    ))
    example = Example("grid of bmw rider with more than 200 laps",
                      "2-14125739-3", gold)
    out = substitute_relational_symbols(example, ReplacementMap(),
                                        child_rng("s", 0), probability=1.0)
    assert out.question == "grid of bmw rider with > 200 laps"
    assert out.provenance == "symbol-substituted"
    assert out.gold == gold


def test_substitute_requires_matching_gold_op():
    gold = SqlSketch(0, AggOp.NONE, (Condition(0, CondOp.EQ, "x"),))
    example = Example("accounts with more than ten users", "t", gold)
    out = substitute_relational_symbols(example, ReplacementMap(),
                                        child_rng("s", 1), probability=1.0)
    assert out is example


def test_substitute_probability_zero_is_identity():
    gold = SqlSketch(0, AggOp.NONE, (Condition(0, CondOp.GT, "10"),))
    example = Example("revenue over 10", "t", gold)
    out = substitute_relational_symbols(example, ReplacementMap(),
                                        child_rng("s", 2), probability=0.0)
    assert out is example


def test_substitute_word_boundaries():
    gold = SqlSketch(0, AggOp.NONE, (Condition(0, CondOp.GT, "10"),))
    example = Example("moreover the laps are over 10", "t", gold)
    out = substitute_relational_symbols(example, ReplacementMap(),
                                        child_rng("s", 3), probability=1.0)
    assert out.question == "moreover the laps are > 10"


def test_substitute_keeps_offsets_after_a_letter_that_lowers_to_two():
    # "İ".lower() is two characters; the rewrite must still land on the
    # phrase in the original question.
    gold = SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.GT, "5"),))
    example = Example("İzmir laps more than 5", "t", gold)
    out = substitute_relational_symbols(example, ReplacementMap(),
                                        child_rng("s", 4), probability=1.0)
    assert out.question == "İzmir laps > 5"


SUBSTITUTION_WORDS = ("over", "moreover", "more", "than", "more than", "less",
                      "under", "fewer", "larger", "bigger than", "laps", "10",
                      "İzmir", "overs")


@given(st.lists(st.tuples(st.sampled_from(SUBSTITUTION_WORDS),
                          st.sampled_from((" ", "  ", "\t", " \t ", "-", "")),
                          st.integers(0, 2**16)),
                max_size=10),
       st.sets(st.sampled_from((CondOp.EQ, CondOp.GT, CondOp.LT)), min_size=1))
@settings(max_examples=200, deadline=None)
def test_substitute_matches_the_brute_force_oracle(words, ops):
    """At probability 1 every phrase the oracle finds among the eligible
    patterns, and nothing else, becomes its symbol."""
    question = ""
    for word, join, case_bits in words:
        if word.isascii():
            word = "".join(ch.upper() if case_bits >> i & 1 else ch
                           for i, ch in enumerate(word))
        question += (join if question else "") + word
    question = question or "laps"
    rmap = ReplacementMap()
    eligible = [e for e in rmap.entries if e.op in ops]
    symbol = {}
    for entry in eligible:
        symbol.setdefault(entry.pattern, entry.symbol)
    table = Table(TableSchema("t", ("Pattern",), ("text",)),
                  tuple((e.pattern,) for e in eligible))
    expected, cursor = "", 0
    for _, cell, (start, end) in oracle_matches(table, question):
        expected += question[cursor:start] + symbol[cell]
        cursor = end
    expected += question[cursor:]

    gold = SqlSketch(0, AggOp.NONE,
                     tuple(Condition(0, op, "10") for op in sorted(ops)))
    out = substitute_relational_symbols(Example(question, "t", gold), rmap,
                                        child_rng("s", 5), probability=1.0)
    assert out.question == expected


def test_replacement_map_longest_first_and_file_round_trip(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("over\t>\t>\nmore than\tGT\t>\n", encoding="utf-8")
    rmap = load_replacement_map(path)
    assert [e.pattern for e in rmap.entries] == ["more than", "over"]
    with pytest.raises(ValueError):
        ReplacementMap((Replacement("Upper Case", CondOp.GT, ">"),))


def corpus_fixture():
    config = SynthConfig(n_tables=3, rows_per_table=5, questions_per_table=6, seed=5)
    return generate_synthetic_corpus(config)


def test_augment_corpus_mix_zero_is_identity_up_to_order():
    corpus, tables = corpus_fixture()
    out = augment_corpus(corpus, tables, AugmentConfig(mix_ratio=0.0, seed=1))
    assert sorted(e.question for e in out.examples) \
        == sorted(e.question for e in corpus.examples)


def test_augment_corpus_mix_ratio_adds_expected_count():
    corpus, tables = corpus_fixture()
    out = augment_corpus(corpus, tables, AugmentConfig(mix_ratio=0.5, seed=1))
    assert len(out.examples) == len(corpus.examples) + round(0.5 * len(corpus.examples))
    assert out.meta["augmentation"]["added"] == round(0.5 * len(corpus.examples))


def test_augment_corpus_deterministic():
    corpus, tables = corpus_fixture()
    config = AugmentConfig(mix_ratio=0.7, seed=9)
    first = augment_corpus(corpus, tables, config)
    second = augment_corpus(corpus, tables, config)
    assert [e.question for e in first.examples] \
        == [e.question for e in second.examples]


def test_augment_never_alters_gold():
    corpus, tables = corpus_fixture()
    out = augment_corpus(corpus, tables, AugmentConfig(mix_ratio=1.0, seed=2))
    golds = {}
    for example in corpus.examples:
        golds.setdefault(example.table_id, []).append(example.gold)
    for example in out.examples:
        assert any(lf_equal(example.gold, g) for g in golds[example.table_id])


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_synthesized_variants_keep_gold(seed):
    corpus, tables = corpus_fixture()
    rng = child_rng("prop", seed)
    example = rng.choice(corpus.examples)
    schema = tables[example.table_id].schema
    for variant in synthesize_short_questions(
        example, schema, AugmentConfig(variants_per_example=6), rng
    ):
        assert lf_equal(variant.gold, example.gold)
        assert variant.question
