import pytest
from hypothesis import given, strategies as st

from nlsql.sketch import (
    MAX_CONDS,
    AggOp,
    CondOp,
    Condition,
    SketchError,
    SqlSketch,
    TableSchema,
    lf_equal,
    render_sql,
    validate_sketch,
)

from oracles import canonical_form


def schema4() -> TableSchema:
    return TableSchema("t", ("A", "B", "C", "D"), ("text",) * 4)


def test_agg_wire_indices_round_trip():
    assert len(AggOp) == 6
    for op in AggOp:
        assert AggOp(int(op)) is op
    assert int(AggOp.NONE) == 0 and int(AggOp.AVG) == 5


def test_cond_op_symbols_round_trip():
    assert len(CondOp) == 3
    assert [op.symbol for op in CondOp] == ["=", ">", "<"]
    for op in CondOp:
        assert CondOp.from_symbol(op.symbol) is op
        assert CondOp(int(op)) is op


def test_render_motogp(motogp_table):
    sketch = SqlSketch(3, AggOp.NONE, (
        Condition(1, CondOp.EQ, "bmw"),
        Condition(2, CondOp.GT, "200"),
    ))
    assert render_sql(sketch, motogp_table.schema) == (
        "SELECT (Grid) FROM 2-14125739-3 WHERE Manufacturer = bmw AND Laps > 200"
    )


def test_render_count_canonical_casing():
    schema = TableSchema("_", ("Rnd", "Race Name", "Winning driver"),
                         ("real", "text", "text"))
    sketch = SqlSketch(2, AggOp.COUNT, (Condition(0, CondOp.EQ, "5"),))
    assert render_sql(sketch, schema) == (
        "SELECT COUNT(Winning driver) FROM _ WHERE Rnd = 5"
    )


def test_render_omits_empty_where():
    schema = TableSchema("t", ("col0",), ("text",))
    assert render_sql(SqlSketch(0), schema) == "SELECT (col0) FROM t"


def test_render_rejects_bad_column():
    with pytest.raises(SketchError):
        render_sql(SqlSketch(7), schema4())


def test_lf_equal_order_insensitive():
    a = SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.EQ, "fox"),
                                  Condition(3, CondOp.EQ, "female")))
    b = SqlSketch(0, AggOp.NONE, (Condition(3, CondOp.EQ, "female"),
                                  Condition(1, CondOp.EQ, "fox")))
    assert lf_equal(a, b)


def test_lf_equal_agg_mismatch():
    a = SqlSketch(0, AggOp.COUNT, (Condition(1, CondOp.EQ, "x"),))
    b = SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.EQ, "x"),))
    assert not lf_equal(a, b)


def test_lf_equal_value_normalization():
    a = SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.EQ, "Fox "),))
    b = SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.EQ, "fox"),))
    assert lf_equal(a, b)
    c = SqlSketch(0, AggOp.NONE, (Condition(1, CondOp.EQ, "fox x"),))
    assert not lf_equal(a, c)


def test_validate_sketch_bounds():
    assert validate_sketch(SqlSketch(7), schema4()) \
        == ["select-column-out-of-range: 7 not in [0, 4)"]
    too_many = SqlSketch(0, AggOp.NONE, tuple(
        Condition(0, CondOp.EQ, "v") for _ in range(MAX_CONDS + 1)
    ))
    assert any(v.startswith("too-many-conditions") for v in
               validate_sketch(too_many, schema4()))
    ok = SqlSketch(1, AggOp.MAX, (Condition(2, CondOp.LT, "3"),))
    assert validate_sketch(ok, schema4()) == []


def test_validate_flags_empty_value():
    bad = SqlSketch(0, AggOp.NONE, (Condition(0, CondOp.EQ, ""),))
    assert validate_sketch(bad, schema4()) == ["empty-condition-value: cond 0"]


# Property tests -------------------------------------------------------------

values = st.text(
    alphabet=st.sampled_from("abcXYZ 019 "), min_size=1, max_size=8
).filter(lambda s: s.strip())
conditions = st.builds(
    Condition,
    column_index=st.integers(0, 3),
    op=st.sampled_from(list(CondOp)),
    value=values,
)
sketches = st.builds(
    SqlSketch,
    select_column=st.integers(0, 3),
    agg=st.sampled_from(list(AggOp)),
    conds=st.lists(conditions, max_size=MAX_CONDS).map(tuple),
)


@given(sketches)
def test_lf_equal_reflexive(a):
    assert lf_equal(a, a)


@given(sketches, sketches)
def test_lf_equal_symmetric(a, b):
    assert lf_equal(a, b) == lf_equal(b, a)


@given(sketches, sketches, sketches)
def test_lf_equal_transitive(a, b, c):
    if lf_equal(a, b) and lf_equal(b, c):
        assert lf_equal(a, c)


@given(sketches, sketches)
def test_canonical_form_matches_lf_equal(a, b):
    schema = schema4()
    assert lf_equal(a, b) == (canonical_form(a, schema) == canonical_form(b, schema))
