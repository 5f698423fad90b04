import random

import pytest
from hypothesis import given, settings, strategies as st

import nlsql.executor as executor_module
from nlsql.executor import (
    WARN_AGGREGATION,
    WARN_COMPARISON,
    QueryResult,
    ex_equal,
    execute,
    results_equal,
)
from nlsql.sketch import (
    AggOp,
    CondOp,
    Condition,
    SketchError,
    SqlSketch,
    Table,
    TableSchema,
)
from nlsql.synth import generate_bench_table

from naive_executor import naive_execute_with_warnings


def test_select_with_two_conditions(tennis_table):
    sketch = SqlSketch(1, AggOp.NONE, (
        Condition(2, CondOp.EQ, "rafael nadal"),
        Condition(0, CondOp.EQ, "winner"),
    ))
    assert execute(sketch, tennis_table).values == ("clay",)


def test_count_winners(tennis_table):
    sketch = SqlSketch(2, AggOp.COUNT, (Condition(0, CondOp.EQ, "winner"),))
    assert execute(sketch, tennis_table).values == (2,)


def test_count_without_conditions_is_row_count(tennis_table):
    assert execute(SqlSketch(0, AggOp.COUNT), tennis_table).values == (3,)


def test_invalid_sketch_raises(tennis_table):
    with pytest.raises(SketchError):
        execute(SqlSketch(9), tennis_table)


def test_order_comparison_skips_unparseable_cells():
    table = Table(
        TableSchema("t", ("Name", "Laps"), ("text", "real")),
        (("a", "200"), ("b", "n/a"), ("c", "300")),
    )
    result = execute(SqlSketch(0, AggOp.NONE,
                               (Condition(1, CondOp.GT, "100"),)), table)
    assert result.values == ("a", "c")
    assert result.warnings[WARN_COMPARISON] == 1


def test_aggregation_over_unparseable_cells():
    table = Table(
        TableSchema("t", ("Laps",), ("real",)),
        (("abc",), ("xyz",)),
    )
    result = execute(SqlSketch(0, AggOp.AVG), table)
    assert result.values == ()
    assert result.warnings[WARN_AGGREGATION] == 2


def test_ex_equal_different_sketches_same_result(tennis_table):
    pred = SqlSketch(1, AggOp.NONE, (Condition(2, CondOp.EQ, "rafael nadal"),))
    gold = SqlSketch(1, AggOp.NONE, (
        Condition(0, CondOp.EQ, "winner"),
        Condition(2, CondOp.EQ, "rafael nadal"),
    ))
    assert ex_equal(pred, gold, tennis_table)


def test_ex_equal_reflexive(tennis_table):
    sketch = SqlSketch(2, AggOp.NONE, (Condition(0, CondOp.EQ, "winner"),))
    assert ex_equal(sketch, sketch, tennis_table)


def test_ex_equal_count_vs_text_selection(tennis_table):
    gold = SqlSketch(2, AggOp.NONE, (Condition(0, CondOp.EQ, "winner"),))
    pred = SqlSketch(2, AggOp.COUNT, (Condition(0, CondOp.EQ, "winner"),))
    assert not ex_equal(pred, gold, tennis_table)


def test_results_equal_numeric_tolerance():
    assert results_equal(QueryResult((1.0,)), QueryResult((1.0 + 1e-12,)))
    assert results_equal(QueryResult(("2",)), QueryResult((2,)))
    assert not results_equal(QueryResult((1.0,)), QueryResult((1.001,)))
    assert not results_equal(QueryResult(("a", "a")), QueryResult(("a",)))


# Randomized comparison against the naive interpreter ------------------------

CELL_POOL = ["winner", "clay", "Rafael Nadal", "200", "0", "24", "n/a", "",
             "1,000", "  spaced  out ", "42", "-3.5", "Grass"]


def random_table(rng: random.Random, max_rows: int = 12) -> Table:
    n_cols = rng.randint(1, 4)
    headers = tuple(f"H{i}" for i in range(n_cols))
    types = tuple(rng.choice(("text", "real")) for _ in range(n_cols))
    rows = tuple(
        tuple(rng.choice(CELL_POOL) for _ in range(n_cols))
        for _ in range(rng.randint(0, max_rows))
    )
    return Table(TableSchema(f"rt", headers, types), rows)


def random_sketch(rng: random.Random, n_cols: int) -> SqlSketch:
    conds = tuple(
        Condition(rng.randrange(n_cols), rng.choice(list(CondOp)),
                  rng.choice([c for c in CELL_POOL if c.strip()]))
        for _ in range(rng.randint(0, 3))
    )
    return SqlSketch(rng.randrange(n_cols), rng.choice(list(AggOp)), conds)


def assert_matches_naive(sketch: SqlSketch, table: Table):
    result = execute(sketch, table)
    want, want_warnings = naive_execute_with_warnings(sketch, table)
    assert list(result.values) == want, (sketch, table.rows[:12])
    assert dict(result.warnings) == dict(want_warnings), (sketch, table.rows[:12])
    return result


def test_matches_naive_interpreter_on_random_cases():
    rng = random.Random(1234)
    for _ in range(500):
        table = random_table(rng)
        assert_matches_naive(random_sketch(rng, table.schema.n_columns), table)


def test_matches_naive_interpreter_on_bench_table():
    # Each sketch's condition values are cells of one row, some re-cased, so
    # equality conditions hit; order comparisons on text columns warn.
    table = generate_bench_table(2_000, seed=3)
    rng = random.Random(4321)
    n_cols = table.schema.n_columns
    hits = 0
    for _ in range(300):
        row = rng.choice(table.rows)
        conds = []
        for _ in range(rng.randint(0, 3)):
            col = rng.randrange(n_cols)
            value = row[col]
            conds.append(Condition(col, rng.choice(list(CondOp)),
                                   value.upper() if rng.random() < 0.3 else value))
        sketch = SqlSketch(rng.randrange(n_cols), rng.choice(list(AggOp)),
                           tuple(conds))
        result = assert_matches_naive(sketch, table)
        if any(c.op is CondOp.EQ for c in conds) \
                and result.values not in ((), (0,)):
            hits += 1
    assert hits >= 15


def test_result_values_are_plain_python(motogp_table):
    (count,) = execute(SqlSketch(2, AggOp.COUNT), motogp_table).values
    assert type(count) is int and count == 3
    for agg in (AggOp.MAX, AggOp.MIN, AggOp.SUM, AggOp.AVG):
        (value,) = execute(SqlSketch(2, agg), motogp_table).values
        assert type(value) is float
    cells = execute(SqlSketch(0, AggOp.NONE, (Condition(3, CondOp.GT, "24"),)),
                    motogp_table).values
    assert cells == ("Mike Di Meglio", "Stevie Bonsey")
    assert all(type(cell) is str for cell in cells)


def test_second_query_parses_only_condition_values(motogp_table, monkeypatch):
    calls = []
    for name in ("normalize_value", "parse_number"):
        def counted(text, _name=name, _original=getattr(executor_module, name)):
            calls.append((_name, text))
            return _original(text)
        monkeypatch.setattr(executor_module, name, counted)
    sketch = SqlSketch(3, AggOp.SUM, (
        Condition(1, CondOp.EQ, "KTM"),
        Condition(2, CondOp.LT, "30"),
        Condition(0, CondOp.GT, "5"),
    ))
    first = execute(sketch, motogp_table)
    # The first query normalizes or parses each codebook entry it needs.
    assert len(calls) > 3
    calls.clear()
    assert execute(sketch, motogp_table) == first
    assert calls == [("normalize_value", "KTM"), ("parse_number", "30"),
                     ("parse_number", "5")]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_adding_condition_never_grows_result(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    table = random_table(rng)
    base = random_sketch(rng, table.schema.n_columns)
    if len(base.conds) >= 4:
        base = SqlSketch(base.select_column, base.agg, base.conds[:3])
    extra = Condition(rng.randrange(table.schema.n_columns), CondOp.EQ,
                      rng.choice([c for c in CELL_POOL if c.strip()]))
    narrowed = SqlSketch(base.select_column, AggOp.COUNT, base.conds + (extra,))
    wide = SqlSketch(base.select_column, AggOp.COUNT, base.conds)
    assert execute(narrowed, table).values[0] <= execute(wide, table).values[0]
