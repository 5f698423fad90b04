import random

import pytest
from hypothesis import given, settings, strategies as st

from nlsql.keyword_index import Match, build_index, extract_matches
from nlsql.sampling import (
    _draw,
    sample_exact_match_one,
    sample_random,
    sample_relevance,
)
from nlsql.sketch import Table, TableSchema
from nlsql.synth import generate_bench_table
from nlsql.train import Sampler
from nlsql.util import child_rng


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


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_every_strategy_is_one_draw(seed):
    # rand is rel with no matches, em1 is rel at k=1 without the fill, and
    # none serves nothing whatever k says.
    rng = random.Random(seed)
    table = random_table(rng)
    question = " ".join(rng.choice(POOL) for _ in range(rng.randint(0, 6)))
    k = rng.randint(0, 4)
    index = build_index(table)
    assert sample_random(table, k, seed) == sample_relevance(table, index, "", k, seed)
    first = sample_relevance(table, index, question, 1, seed).columns
    matched = {m.column_index for m in extract_matches(index, question)}
    assert sample_exact_match_one(table, index, question).columns == tuple(
        first[col] if col in matched else () for col in range(len(first)))
    assert Sampler({"rt": table}, "none", k, seed).sample_for("rt", question).columns \
        == ((),) * table.schema.n_columns


@pytest.mark.parametrize("n_values", [12, 500])
def test_relevance_fill_draws_match_the_filtered_list(n_values):
    # random.sample copies a small population and probes a large one by
    # index; the fill's indices, mapped past the sorted hit positions, must
    # give the filtered list's draws on both paths.
    values = tuple(f"value {i}" for i in range(n_values))
    table = Table(TableSchema("t", ("V",), ("text",)), tuple((v,) for v in values))
    for hits in ([], [values[7]], [values[-1], values[2]]):
        matches = [Match(0, v, (0, 0), values.index(v)) for v in hits]
        pool = [v for v in values if v not in hits]
        for seed in range(200):
            for n in (1, 3, 8, len(pool)):
                drawn = _draw(table, matches, len(hits) + n, seed).columns[0]
                rng = child_rng("sample", seed, "t", 0)
                assert drawn == tuple(hits + rng.sample(pool, n)), (hits, seed, n)


@pytest.fixture(scope="module", params=[0, 1])
def shared_code_table(request):
    # A 20k-row bench table plus one row whose Name cell is a Code cell, so
    # "c-10000" is a distinct value of both columns.
    table = generate_bench_table(20_000, seed=request.param)
    extra = ("c-10000",) + table.rows[0][1:]
    return Table(table.schema, tuple(table.rows) + (extra,)), request.param


def reference_relevance(table: Table, question: str, k: int, seed: int):
    """Hits in question order, capped at k, then a fill drawn from the
    filtered list of the column's distinct non-empty cells."""
    index = build_index(table)
    hits = [[] for _ in table.schema.headers]
    for m in extract_matches(index, question):
        if m.cell not in hits[m.column_index] and len(hits[m.column_index]) < k:
            hits[m.column_index].append(m.cell)
    columns = []
    for col, cells in enumerate(hits):
        distinct = dict.fromkeys(row[col] for row in table.rows if row[col].strip())
        pool = [v for v in distinct if v not in cells]
        n = min(k - len(cells), len(pool))
        rng = child_rng("sample", seed, table.table_id, col)
        columns.append(tuple(cells + (rng.sample(pool, n) if n > 0 else [])))
    return tuple(columns), hits


@pytest.mark.parametrize("question, code_hits", [
    ("code c-19999 or c-00000", ["c-19999", "c-00000"]),
    ("code c-10000 please", ["c-10000"]),  # also the extra row's Name
    ("c-00000 c-19999 c-10000 c-05000 c-00001", ["c-00000", "c-19999", "c-10000"]),
    ("no code at all", []),
])
def test_relevance_fill_equals_a_draw_from_the_filtered_list(shared_code_table,
                                                            question, code_hits):
    table, seed = shared_code_table
    codes = table.columns[3].distinct
    assert (codes.index("c-00000"), codes.index("c-10000"), codes.index("c-19999")) \
        == (0, 10_000, 19_999) == (0, len(codes) // 2, len(codes) - 1)
    assert table.columns[0].distinct[-1] == "c-10000"
    want, hits = reference_relevance(table, question, 3, seed)
    assert hits[3] == code_hits
    assert hits[0] == (["c-10000"] if "c-10000" in code_hits else [])
    got = sample_relevance(table, build_index(table), question, 3, seed=seed)
    assert got.columns == want
