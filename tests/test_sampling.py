import random

import pytest
from hypothesis import given, settings, strategies as st

from nlsql.keyword_index import build_index, extract_matches
from nlsql.sampling import (
    _remaining,
    load_sample_sets,
    sample_exact_match_one,
    sample_random,
    sample_relevance,
    save_sample_sets,
)
from nlsql.sketch import Table, TableSchema


def test_random_k_zero_gives_empty_lists(tennis_table):
    samples = sample_random(tennis_table, 0, seed=1)
    assert samples.columns == ((), (), ())


def test_random_exhausts_small_columns(league_table):
    samples = sample_random(league_table, 5, seed=3)
    assert sorted(samples.columns[1]) == ["MLB", "NBA", "NHL"]


def test_random_deterministic(tennis_table):
    assert sample_random(tennis_table, 2, seed=9) \
        == sample_random(tennis_table, 2, seed=9)


def test_random_without_replacement(motogp_table):
    samples = sample_random(motogp_table, 3, seed=4)
    for column in samples.columns:
        assert len(set(column)) == len(column)


def test_relevance_falls_back_to_random(league_table):
    index = build_index(league_table)
    samples = sample_relevance(league_table, index,
                               "Which countries hosted the MHL league?", 3, 0)
    assert sorted(samples.columns[1]) == ["MLB", "NBA", "NHL"]


def test_relevance_puts_match_first():
    table = Table(
        TableSchema("2-11206371-5", ("Animal Name", "Species", "Gender"),
                    ("text", "text", "text")),
        (("Jack", "Fox", "male"),
         ("The Big Owl", "Badger", "female"),
         ("The Wild Boar", "Boar", "male")),
    )
    index = build_index(table)
    samples = sample_relevance(table, index, "fox tv series female", 3, 0)
    assert samples.columns[1][0] == "Fox"
    assert samples.columns[2][0] == "female"


def test_relevance_caps_at_k_matches():
    table = Table(
        TableSchema("t", ("Tag",), ("text",)),
        (("alpha",), ("beta",), ("gamma",), ("delta",)),
    )
    index = build_index(table)
    samples = sample_relevance(table, index, "alpha beta gamma delta", 2, 0)
    assert samples.columns[0] == ("alpha", "beta")


def test_em1_no_match_no_fallback(league_table):
    index = build_index(league_table)
    samples = sample_exact_match_one(
        league_table, index, "Which countries hosted the MHL league?")
    assert samples.columns == ((), ())


def test_em1_tennis(tennis_table):
    index = build_index(tennis_table)
    samples = sample_exact_match_one(
        tennis_table, index, "courts with Rafael Nadal as winner")
    assert samples.columns == (("winner",), (), ("Rafael Nadal",))


def test_em1_keeps_earliest_match(tennis_table):
    index = build_index(tennis_table)
    samples = sample_exact_match_one(tennis_table, index, "grass before clay")
    assert samples.columns[1] == ("grass",)


def test_index_table_mismatch_rejected(tennis_table, league_table):
    index = build_index(league_table)
    with pytest.raises(ValueError):
        sample_relevance(tennis_table, index, "q", 1, 0)


def test_sidecar_round_trip(tmp_path, tennis_table, league_table):
    sets = [sample_random(tennis_table, 2, seed=5),
            sample_random(league_table, 1, seed=5)]
    path = tmp_path / "samples.jsonl"
    save_sample_sets(sets, path)
    assert load_sample_sets(path) == sets


# Properties ------------------------------------------------------------------

POOL = ["winner", "clay", "Rafael Nadal", "BMW", "42", "200", "fox", "", "KTM"]


def random_table(rng: random.Random) -> Table:
    n_cols = rng.randint(1, 4)
    rows = tuple(
        tuple(rng.choice(POOL) for _ in range(n_cols))
        for _ in range(rng.randint(0, 10))
    )
    return Table(
        TableSchema("rt", tuple(f"C{i}" for i in range(n_cols)),
                    ("text",) * n_cols),
        rows,
    )


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_random_sampling_is_question_agnostic(seed):
    # sample_random never sees a question; assert invariants instead:
    # verbatim membership, distinctness, per-column caps.
    rng = random.Random(seed)
    table = random_table(rng)
    k = rng.randint(0, 4)
    samples = sample_random(table, k, seed=seed)
    for col, column in enumerate(samples.columns):
        cells = {row[col] for row in table.rows if row[col].strip()}
        assert len(column) == min(k, len(cells))
        assert set(column) <= cells
        assert len(set(column)) == len(column)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_relevance_superset_property(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    question = " ".join(rng.choice(POOL) for _ in range(rng.randint(0, 6)))
    k = rng.randint(1, 4)
    index = build_index(table)
    samples = sample_relevance(table, index, question, k, seed=seed)
    matched: dict[int, list[str]] = {}
    for m in extract_matches(index, question):
        matched.setdefault(m.column_index, [])
        if m.cell not in matched[m.column_index]:
            matched[m.column_index].append(m.cell)
    for col, cells in matched.items():
        if len(cells) <= k:
            assert set(cells) <= set(samples.columns[col])
        else:
            assert samples.columns[col] == tuple(cells[:k])


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_em1_emits_at_most_one_per_column(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    question = " ".join(rng.choice(POOL) for _ in range(rng.randint(0, 6)))
    index = build_index(table)
    samples = sample_exact_match_one(table, index, question)
    assert all(len(column) <= 1 for column in samples.columns)


@pytest.mark.parametrize("n_values", [12, 500])
def test_relevance_fill_draws_match_the_filtered_list(n_values):
    # random.sample copies a small population and probes a large one by
    # index; the view must give the filtered list's draws on both paths.
    values = tuple(f"value {i}" for i in range(n_values))
    for hits in ([], [values[7]], [values[-1], values[2]]):
        pool = [v for v in values if v not in hits]
        remaining = _remaining(values, hits)
        assert len(remaining) == len(pool) and list(remaining) == pool
        for seed in range(200):
            for n in (1, 3, 8, len(pool)):
                assert random.Random(seed).sample(remaining, n) \
                    == random.Random(seed).sample(pool, n), (hits, seed, n)
