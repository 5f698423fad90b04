import base64
import random
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

import nlsql.executor as executor_module
from nlsql.executor import (
    Column,
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
             "1,000", "  spaced  out ", "42", "-3.5", "Grass", "-0", "-0.0"]


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
    # == takes -0.0 for 0.0; repr tells the sign of a zero apart
    assert list(map(repr, result.values)) == list(map(repr, want)), \
        (sketch, table.rows[:12])
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


@pytest.mark.parametrize("conds", [(), (Condition(0, CondOp.LT, "100"),),
                                   (Condition(1, CondOp.EQ, "x"),)])
@pytest.mark.parametrize("cells, agg, want", [
    (("0", "-0"), AggOp.MAX, "0.0"),
    (("-0", "0"), AggOp.MAX, "-0.0"),
    (("0", "-0"), AggOp.MIN, "0.0"),
    (("-0", "0"), AggOp.MIN, "-0.0"),
    (("7", "-0.0", "n/a", "0", "-3"), AggOp.MAX, "7.0"),
    (("7", "-0.0", "n/a", "0", "-3"), AggOp.MIN, "-3.0"),
    (("n/a", "-0.0", "0", "-0"), AggOp.MAX, "-0.0"),
])
def test_min_max_ties_keep_the_first_extreme_in_row_order(cells, agg, want, conds):
    # Zeros of either sign compare equal, so the first one in row order is
    # the result, as builtin max/min give it.
    table = Table(TableSchema("t", ("N", "Tag"), ("real", "text")),
                  tuple((cell, "x") for cell in cells))
    (value,) = execute(SqlSketch(0, agg, conds), table).values
    assert repr(value) == want


def test_unconditioned_min_max_match_naive_on_tied_entries():
    # With no condition MIN/MAX reduce one number per codebook entry. Entries
    # that tie ("5" and "5.0", zeros of either sign) must give the value of
    # the first such row, and unparseable rows must each warn once.
    rng = random.Random(77)
    pool = ["5", "5.0", "0", "-0", "-0.0", "0.0", "-5", "-5.00", "1,000",
            "1000", "n/a", ""]
    for _ in range(400):
        cells = rng.sample(pool, rng.randint(1, 5))
        table = Table(TableSchema("t", ("N", "Tag"), ("real", "text")),
                      tuple((rng.choice(cells), "x")
                            for _ in range(rng.randint(0, 25))))
        for agg in (AggOp.MAX, AggOp.MIN):
            assert_matches_naive(SqlSketch(0, agg), table)


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


def _coded(codebooks, codes):
    """A column-form table of ``codebooks`` and per-column ``codes``."""
    width, n_rows = len(codebooks), len(codes[0])
    blob = struct.pack(f"<{width * n_rows}i", *(c for column in codes for c in column))
    schema = TableSchema("t", tuple(f"H{i}" for i in range(width)), ("text",) * width)
    return Table.coded(schema, n_rows, codebooks, base64.b64encode(blob).decode("ascii"))


def _codes_as_built(codebook, codes) -> bool:
    """Whether ``Column.from_cells`` codes the cells that ``codes`` name in
    ``codebook`` to this codebook and these codes."""
    if not all(0 <= c < len(codebook) for c in codes):
        return False
    built = Column.from_cells([[codebook[c]] for c in codes], 0)
    return built.codebook == tuple(codebook) and built.codes.tolist() == list(codes)


@given(data=st.data(), width=st.integers(1, 3), n_rows=st.integers(0, 5))
@settings(max_examples=400, deadline=None)
def test_coded_columns_are_accepted_exactly_when_they_are_as_built(data, width, n_rows):
    codebooks = data.draw(st.lists(st.lists(st.sampled_from(["", "a", "b", "c"]),
                                            max_size=4), min_size=width, max_size=width))
    codes = data.draw(st.lists(st.lists(st.integers(-2, 4), min_size=n_rows,
                                        max_size=n_rows), min_size=width, max_size=width))
    table = _coded(codebooks, codes)
    if all(map(_codes_as_built, codebooks, codes)):
        assert [list(c.codebook) for c in table.columns] == codebooks
        assert [c.codes.tolist() for c in table.columns] == codes
    else:
        with pytest.raises(ValueError, match=r"^table 't'"):
            table.columns


@pytest.mark.parametrize("codebooks, codes, message", [
    ([["x", "y"]], "AAAA", ": codes hold 3 bytes, not 4 × 1 columns × 3 rows"),
    ([["x", "y"]], "AAAA*AAA", ": codes are not base64"),
    ([["x", "y"]], [[0, 1, 2]], " column 0: code 2 is out of range of 2 codebook entries"),
    ([["x", "y"]], [[0, 0, 2]], " column 0: codes are not in first-seen order"),
    ([["x", "y"]], [[1, 0, 1]], " column 0: codes are not in first-seen order"),
    ([["x", "y"]], [[0, -1, 1]], " column 0: codes are not in first-seen order"),
    ([["x", "y", "z"]], [[0, 1, 0]], " column 0: codebook entry 2 is never used"),
    ([["x", "x"]], [[0, 1, 0]], " column 0: a codebook entry repeats"),
], ids=["wrong-length", "bad-base64", "out-of-range", "skips-a-code", "starts-past-0",
        "negative", "unused-entry", "repeated-entry"])
def test_a_failed_code_check_names_the_table_and_keeps_the_codes(codebooks, codes,
                                                                 message):
    table = _coded(codebooks, codes) if isinstance(codes, list) else Table.coded(
        TableSchema("t", ("A",), ("text",)), 3, codebooks, codes)
    for _ in range(2):  # a failed build leaves the table as it was given
        with pytest.raises(ValueError, match="^" + re.escape(f"table 't'{message}")):
            table.columns
