import random

import pytest
from hypothesis import given, settings, strategies as st

from nlsql.model import prepare_features
from nlsql.sampling import SampleSet, sample_random
from nlsql.serialize import (
    BudgetError,
    SEG_HEADER,
    SEG_QUESTION,
    SEG_SAMPLE,
    SEG_SEPARATOR,
    serialize_input,
    token_texts,
    tokenize,
)
from nlsql.sketch import TableSchema
from nlsql.vocab import SPECIALS, Vocab


def test_tokenize_spans_recover_text():
    text = "Grid of BMW rider with > 200 laps?"
    for token in tokenize(text):
        assert text[token.start:token.end].lower() == token.text


def test_tokenize_keeps_decimals_whole():
    assert token_texts("pace 3.5 laps") == ["pace", "3.5", "laps"]


_TRICKY = st.sampled_from(["İ", "ǅ", "1.5", "٣.٤", "²", "½", "…", "?!", "a_b",
                           " ", "\t", "x", "Σ", "ß"])


@given(st.lists(st.one_of(_TRICKY, st.text(max_size=6)), max_size=8).map("".join))
@settings(max_examples=200, deadline=None)
def test_token_texts_are_the_texts_of_tokenize(text):
    assert token_texts(text) == [t.text for t in tokenize(text)]


def test_serialize_motogp_layout(motogp_table):
    samples = SampleSet(
        table_id=motogp_table.table_id,
        columns=(
            ("Nicolas Terol", "Mike Di Meglio", "Stevie Bonsey"),
            ("Derbi", "Honda", "KTM"),
            ("1", "24", "0"),
            ("20", "29", "25"),
        ),
    )
    question = "grid of bmw rider with > 200 laps"
    serialized = serialize_input(tokenize(question), motogp_table.schema,
                                 samples, budget=64, question=question)
    assert serialized.render() == (
        "[CLS] grid of bmw rider with > 200 laps [SEP] "
        "rider || nicolas terol | mike di meglio | stevie bonsey [SEP] "
        "manufacturer || derbi | honda | ktm [SEP] "
        "laps || 1 | 24 | 0 [SEP] "
        "grid || 20 | 29 | 25 [SEP]"
    )


def test_serialize_without_samples(motogp_table):
    question = "grid of bmw"
    serialized = serialize_input(tokenize(question), motogp_table.schema,
                                 None, budget=32, question=question)
    assert serialized.render() == (
        "[CLS] grid of bmw [SEP] rider [SEP] manufacturer [SEP] "
        "laps [SEP] grid [SEP]"
    )


def test_budget_error_when_headers_do_not_fit(motogp_table):
    with pytest.raises(BudgetError):
        serialize_input(tokenize("grid of bmw"), motogp_table.schema, None,
                        budget=8)


def test_truncation_drops_widest_column_last_sample_first(motogp_table):
    samples = SampleSet(
        table_id=motogp_table.table_id,
        columns=(
            ("Nicolas Terol", "Mike Di Meglio"),  # 4 sample tokens
            ("Derbi",),
            ("1", "24"),
            (),
        ),
    )
    question = "grid of bmw"
    full = serialize_input(tokenize(question), motogp_table.schema, samples,
                           budget=64, question=question)
    assert len(full) == 26
    # budget 21 forces two drops: "Mike Di Meglio" (widest column's last
    # sample), then the width tie between Rider and Laps goes to the lower
    # index, so "Nicolas Terol" goes next and Rider loses its sample block.
    trimmed = serialize_input(tokenize(question), motogp_table.schema,
                              samples, budget=21, question=question)
    assert trimmed.render() == (
        "[CLS] grid of bmw [SEP] rider [SEP] "
        "manufacturer || derbi [SEP] laps || 1 | 24 [SEP] grid [SEP]"
    )
    assert len(trimmed) <= 21
    # question and headers always survive
    assert [t for t, s in zip(trimmed.tokens, trimmed.segments)
            if s == SEG_QUESTION] == ["grid", "of", "bmw"]
    assert [t for t, s in zip(trimmed.tokens, trimmed.segments)
            if s == SEG_HEADER] \
        == ["rider", "manufacturer", "laps", "grid"]


def test_segment_and_column_labels(tennis_table):
    samples = sample_random(tennis_table, 1, seed=0)
    question = "who won?"
    serialized = serialize_input(tokenize(question), tennis_table.schema,
                                 samples, budget=64, question=question)
    assert serialized.segments[0] == SEG_SEPARATOR
    assert serialized.columns[0] == -1
    for seg, col, token in zip(serialized.segments, serialized.columns,
                               serialized.tokens):
        if seg in (SEG_HEADER, SEG_SAMPLE):
            assert col >= 0
        if seg == SEG_QUESTION:
            assert col == -1
    assert serialized.question_spans == ((0, 3), (4, 7), (7, 8))


# Round-trip property ---------------------------------------------------------

HEADER_WORDS = ["Result", "Court", "Player Name", "No.(s)", "Laps", "No.|Pos"]
CELL_WORDS = ["winner", "Rafael Nadal", "200", "runner-up", "x 1", "KTM",
              "AC|DC", "x || y"]


def test_delimiter_text_in_headers_and_cells_round_trips():
    # Inside a column block a delimiter is known by its segment label, so a
    # '|' token of a header or a cell is an ordinary header or sample token.
    def recovered(header, cells):
        schema = TableSchema("t", (header,), ("text",))
        samples = SampleSet("t", (cells,))
        return serialize_input(tokenize("q"), schema, samples,
                               budget=64).recover_columns()

    assert recovered("A|B", ("x",)) == [(["a", "|", "b"], [["x"]])]
    assert recovered("Band", ("AC|DC",)) == [(["band"], [["ac", "|", "dc"]])]


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_round_trip_recovers_headers_and_samples(seed):
    rng = random.Random(seed)
    n_cols = rng.randint(1, 4)
    headers = tuple(rng.choice(HEADER_WORDS) for _ in range(n_cols))
    schema = TableSchema("t", headers, ("text",) * n_cols)
    columns = tuple(
        tuple(rng.choice(CELL_WORDS) for _ in range(rng.randint(0, 3)))
        for _ in range(n_cols)
    )
    samples = SampleSet("t", columns)
    question = " ".join(rng.choice(CELL_WORDS) for _ in range(rng.randint(1, 5)))
    serialized = serialize_input(tokenize(question), schema, samples,
                                 budget=512, question=question)
    assert len(serialized) <= 512
    recovered = serialized.recover_columns()
    assert len(recovered) == n_cols
    for col in range(n_cols):
        header_tokens, sample_lists = recovered[col]
        assert header_tokens == token_texts(headers[col])
        assert sample_lists == [token_texts(c) for c in columns[col]]


def test_shedding_blank_samples_takes_them_from_columns_that_have_them(motogp_table):
    # A blank cell has no tokens but costs a delimiter, so every column can
    # have width 0 while the input is still over budget.
    samples = SampleSet(motogp_table.table_id, ((), ("",), (" ",), ()))
    question = "grid of bmw"
    bare = serialize_input(tokenize(question), motogp_table.schema, None,
                           question=question)
    trimmed = serialize_input(tokenize(question), motogp_table.schema, samples,
                              budget=len(bare) + 1, question=question)
    assert trimmed.render() == (
        "[CLS] grid of bmw [SEP] rider [SEP] manufacturer [SEP] laps || [SEP] "
        "grid [SEP]"
    )
    assert trimmed.recover_columns()[2] == (["laps"], [[]])


# Layout contract ---------------------------------------------------------------

@given(st.data())
@settings(max_examples=100, deadline=None)
def test_question_and_header_positions_follow_the_layout(data):
    # With m question tokens the question is positions 1..m, and each
    # column's header tokens are one run, in column order, whatever the
    # samples and however many of them the budget sheds.
    header = st.text(st.characters(codec="utf-8"), max_size=12).filter(str.strip)
    headers = tuple(data.draw(st.lists(header, min_size=1, max_size=5)))
    n_cols = len(headers)
    schema = TableSchema("t", headers, ("text",) * n_cols)
    columns = tuple(data.draw(st.lists(st.sampled_from(CELL_WORDS), max_size=3))
                    for _ in range(n_cols))
    question = data.draw(st.text(max_size=40))
    question_tokens = tokenize(question)
    m = len(question_tokens)
    base = 2 + m + sum(len(token_texts(h)) for h in headers) + n_cols
    budget = data.draw(st.integers(base, base + 30))
    serialized = serialize_input(question_tokens, schema,
                                 SampleSet("t", columns), budget,
                                 question=question)

    assert serialized.tokens[1:1 + m] == tuple(t.text for t in question_tokens)
    assert [i for i, s in enumerate(serialized.segments) if s == SEG_QUESTION] \
        == list(range(1, 1 + m))
    runs = []
    for col in range(n_cols):
        rows = [i for i, (s, c) in enumerate(zip(serialized.segments,
                                                 serialized.columns))
                if s == SEG_HEADER and c == col]
        assert rows == list(range(rows[0], rows[-1] + 1))
        assert [serialized.tokens[i] for i in rows] == token_texts(headers[col])
        runs.append((rows[0], rows[-1] + 1))
    assert runs == sorted(runs)
    assert prepare_features(serialized, Vocab(list(SPECIALS))).header_spans == runs
