import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nlsql.keyword_index import (
    _normalize_with_map,
    build_index,
    extract_matches,
    normalize_pattern,
)
from nlsql.sketch import Table, TableSchema

from oracles import oracle_matches


def test_index_contains_all_distinct_cells(tennis_table):
    index = build_index(tennis_table)
    assert tennis_table.columns[0].distinct == ("winner", "runner-up")
    assert tennis_table.columns[2].distinct == (
        "Rafael Nadal", "Novak Djokovic", "Jarkko Nieminen")
    # "winner" appears in two rows of one column: one pattern entry
    assert index.n_patterns == 8


def test_empty_table_builds_empty_index():
    table = Table(TableSchema("t", ("A",), ("text",)), ())
    index = build_index(table)
    assert index.n_patterns == 0
    assert extract_matches(index, "anything at all") == []


def test_extract_tennis_question(tennis_table):
    index = build_index(tennis_table)
    matches = extract_matches(index, "courts with Rafael Nadal as winner")
    assert [(m.column_index, m.cell) for m in matches] == [
        (2, "Rafael Nadal"), (0, "winner")]
    start, end = matches[0].span
    assert "courts with Rafael Nadal as winner"[start:end] == "Rafael Nadal"


def test_no_partial_word_matches(league_table):
    index = build_index(league_table)
    assert extract_matches(index, "Which countries hosted the MHL league?") == []


def test_longest_match_wins():
    table = Table(
        TableSchema("t", ("City", "Borough"), ("text", "text")),
        (("new york", "york"), ("new", "york")),
    )
    index = build_index(table)
    matches = extract_matches(index, "offices in new york please")
    assert [(m.column_index, m.cell) for m in matches] == [(0, "new york")]


def test_case_insensitive_and_whitespace_collapsed():
    table = Table(TableSchema("t", ("M",), ("text",)), (("BMW",), ("Di  Meglio",)))
    index = build_index(table)
    assert [m.cell for m in extract_matches(index, "grid of bmw rider")] == ["BMW"]
    assert [m.cell for m in extract_matches(index, "mike di meglio laps")] \
        == ["Di  Meglio"]


def test_pattern_in_multiple_columns_reports_each():
    table = Table(
        TableSchema("t", ("Home", "Away"), ("text", "text")),
        (("Lyon", "Nice"), ("Nice", "Lyon")),
    )
    index = build_index(table)
    matches = extract_matches(index, "games in nice")
    assert [(m.column_index, m.cell) for m in matches] == [(0, "Nice"), (1, "Nice")]


def test_index_queries_do_not_mutate(tennis_table):
    index = build_index(tennis_table)
    question = "did Rafael Nadal play on grass or clay"
    first = extract_matches(index, question)
    for _ in range(5):
        assert extract_matches(index, question) == first


# Brute-force oracle equivalence ---------------------------------------------

WORDS = ["fox", "new", "york", "bmw", "rafael", "nadal", "42", "200", "x1",
         "clay-court", "Di Meglio", "a", "ab", "a a", "(a)", "x.",
         "İstanbul", "ΣΟΦΙΑ", "straße", "ﬁne"]
# Joins between words: spaces, tab and \x1c whitespace, punctuation, none.
JOINS = [" ", " ", "  ", "\t", "\x1c", "", ", ", "-", "? ", "."]


def _spelling(word: str, rng: random.Random) -> str:
    """The word as written, in upper, lower or mixed case."""
    case = rng.randrange(4)
    if case == 1:
        return word.upper()
    if case == 2:
        return word.lower()
    if case == 3:
        return "".join(ch.upper() if rng.random() < 0.5 else ch.lower()
                       for ch in word)
    return word


def _phrase(rng: random.Random, n_words: int) -> str:
    text = ""
    for i in range(n_words):
        text += (rng.choice(JOINS) if i else "") + _spelling(rng.choice(WORDS), rng)
    return text


def random_table_and_question(rng: random.Random):
    n_cols = rng.randint(1, 3)
    rows = tuple(
        tuple(_phrase(rng, rng.randint(1, 2)) for _ in range(n_cols))
        for _ in range(rng.randint(0, 8))
    )
    table = Table(
        TableSchema("t", tuple(f"C{i}" for i in range(n_cols)),
                    ("text",) * n_cols),
        rows,
    )
    return table, _phrase(rng, rng.randint(0, 10))


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_matches_brute_force_oracle(seed):
    rng = random.Random(seed)
    table, question = random_table_and_question(rng)
    index = build_index(table)
    got = [(m.column_index, m.cell, m.span)
           for m in extract_matches(index, question)]
    assert got == oracle_matches(table, question)


# The ASCII fast path against the character loop -----------------------------

def loop_normalize(text):
    """Reference: lowercase and collapse whitespace one character at a time,
    mapping each output character to its original position."""
    out, index_map = [], []
    pending_space_at = -1
    for i, ch in enumerate(text):
        if ch.isspace():
            if out and pending_space_at < 0:
                pending_space_at = i
            continue
        if pending_space_at >= 0:
            out.append(" ")
            index_map.append(pending_space_at)
            pending_space_at = -1
        lowered = ch.lower()
        out.append(lowered if len(lowered) == 1 else ch)
        index_map.append(i)
    return "".join(out), index_map


def assert_matches_loop(text):
    normalized, index_map = _normalize_with_map(text)
    assert (normalized, list(index_map)) == loop_normalize(text), repr(text)
    assert normalize_pattern(text) == normalized


def test_an_unchanged_pattern_is_its_cell():
    # A cell that normalizing leaves alone keys the index with its own string.
    for text in ("new york", "c-00042", "straße", ""):
        assert normalize_pattern(text) is text
    assert normalize_pattern("New  York") == "new york"
    table = Table(TableSchema("t", ("A",), ("text",)), (("bmw",), ("Di Meglio",)))
    keys = list(build_index(table)._patterns)
    assert keys == ["bmw", "di meglio"] and keys[0] is table.columns[0].distinct[0]


def test_normalize_pattern_matches_the_loop_on_every_3_char_ascii_string():
    ascii_chars = [chr(i) for i in range(128)]
    for text in map("".join, itertools.product(ascii_chars, repeat=3)):
        assert_matches_loop(text)


@pytest.mark.parametrize("text", [
    "More than 5", "a\tb c", " leading", "trailing ", "double  space",
    "\tTab\tand\t\ttabs\t", "a \t\nb", "\x1cX\x1fY",
])
def test_ascii_offsets_match_the_loop(text):
    assert_matches_loop(text)


@given(st.text(st.characters(codec="ascii"), max_size=20)
       | st.text(st.characters(codec="utf-8")
                 | st.sampled_from(["İ", "Σ", "ß", "ﬁ", "\x1c", "\t"]), max_size=20))
@settings(max_examples=300, deadline=None)
def test_normalize_pattern_matches_the_loop(text):
    assert_matches_loop(text)
