import base64
import gc
import json
import math
import struct
import sys
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from nlsql.corpus import (
    Corpus,
    CorpusFormatError,
    load_examples,
    load_tables,
    read_jsonl,
    save_examples,
    save_tables,
    validate_corpus,
)
from nlsql.executor import execute
from nlsql.sketch import AggOp, CondOp, Condition, Example, SqlSketch, Table, TableSchema
from nlsql.synth import SynthConfig, generate_synthetic_corpus


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                    encoding="utf-8")


def test_load_examples_happy_path(tmp_path):
    path = tmp_path / "dev.jsonl"
    write_lines(path, [{
        "question": "how many winning drivers for 5?",
        "table_id": "t1",
        "sql": {"sel": 6, "agg": 3, "conds": [[0, 0, "5"]]},
    }])
    corpus = load_examples(path)
    example = corpus.examples[0]
    assert example.gold.agg is AggOp.COUNT
    assert example.gold.conds == (Condition(0, CondOp.EQ, "5"),)
    assert example.gold.select_column == 6


def test_load_examples_numeric_value_coerced(tmp_path):
    path = tmp_path / "x.jsonl"
    write_lines(path, [{
        "question": "laps over 200",
        "table_id": "t",
        "sql": {"sel": 0, "agg": 0, "conds": [[1, 1, 200]]},
    }])
    assert load_examples(path).examples[0].gold.conds[0].value == "200"


def test_load_examples_empty_file(tmp_path, caplog):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with caplog.at_level("WARNING"):
        corpus = load_examples(path)
    assert corpus.examples == []
    assert "no examples" in caplog.text


def test_load_examples_bad_op_index(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [{
        "question": "q", "table_id": "t",
        "sql": {"sel": 0, "agg": 0, "conds": [[0, 5, "x"]]},
    }])
    with pytest.raises(CorpusFormatError, match="bad.jsonl:1"):
        load_examples(path)
    assert load_examples(path, strict=False).examples == []


def test_load_tables_tennis(tmp_path, tennis_table):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [{
        "id": "1-tennis",
        "header": ["Result", "Court", "Player"],
        "types": ["text", "text", "text"],
        "rows": [["winner", "clay", "Rafael Nadal"],
                 ["runner-up", "grass", "Novak Djokovic"],
                 ["winner", "hard", "Jarkko Nieminen"]],
    }])
    tables = load_tables(path)
    assert tables["1-tennis"] == tennis_table
    assert_rows_are_string_tuples(tables["1-tennis"].rows)


def assert_rows_are_string_tuples(rows):
    # rows is a view over the column store: indexing and iterating agree
    assert [rows[i] for i in range(len(rows))] == list(rows)
    assert all(type(row) is tuple for row in rows)
    assert all(type(cell) is str for row in rows for cell in row)


def test_load_tables_empty_rows_ok(tmp_path):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [{"id": "t", "header": ["A"], "types": ["text"], "rows": []}])
    rows = load_tables(path)["t"].rows
    assert len(rows) == 0 and tuple(rows) == ()


def test_load_tables_numeric_cells_coerced(tmp_path):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [{"id": "t", "header": ["A", "B"], "types": ["text", "real"],
                        "rows": [["x", 200], [1.5, True], [False, None]]}])
    rows = load_tables(path)["t"].rows
    assert tuple(rows) == (("x", "200"), ("1.5", "True"), ("False", "None"))
    assert_rows_are_string_tuples(rows)


def test_load_tables_arity_mismatch(tmp_path):
    path = tmp_path / "tables.jsonl"
    for cells in (["x", "y"], [1, 2]):  # string cells, and cells made strings
        rows = [["a", "b", "c"], ["d", "e", "f"], cells, ["g"]]
        write_lines(path, [{"id": "t", "header": ["A", "B", "C"],
                            "types": ["text"] * 3, "rows": rows}])
        with pytest.raises(CorpusFormatError, match=r"tables.jsonl:1: "
                           r"table 't' row 2: 2 cells for 3 columns"):
            load_tables(path)


def rows_as_first_parsed(rows):
    """The rows that ``_parse_table`` made before the column store held the
    cells: every cell's ``str()`` when any cell of the table is not a
    ``str``, and the cells as given otherwise."""
    if not set(map(type, chain.from_iterable(rows))) <= {str}:
        rows = [tuple(map(str, row)) for row in rows]
    return tuple(map(tuple, rows))


# JSON cells that share a dict key but not a str(): 1, 1.0 and True; -0.0 and
# 0.0. NaN is not equal to itself. Strings that some of them print as.
JSON_CELLS = (st.sampled_from([1, 1.0, True, False, 0, 0.0, -0.0, math.nan, None,
                               "1", "1.0", "True", "0.0", "-0.0", "nan", "None"])
              | st.integers(-2, 2) | st.floats() | st.text(max_size=3)
              | st.lists(st.sampled_from([1, "a", None]), max_size=2)
              | st.dictionaries(st.sampled_from("ab"), st.integers(0, 1), max_size=2))


@given(data=st.data(), width=st.integers(1, 3), all_str=st.booleans())
@settings(max_examples=300, deadline=None)
def test_cells_read_back_as_the_whole_table_str_gave_them(data, width, all_str):
    cells = st.text(max_size=3) if all_str else JSON_CELLS
    rows = json.loads(json.dumps(data.draw(st.lists(
        st.lists(cells, min_size=width, max_size=width), max_size=6))))
    schema = TableSchema("t", tuple(f"H{i}" for i in range(width)), ("text",) * width)
    table = Table(schema, rows)
    expected = rows_as_first_parsed(rows)
    assert tuple(table.rows) == expected
    assert [table.rows[i] for i in range(len(expected))] == list(expected)
    assert table == Table(schema, expected)


def test_a_width_error_names_the_first_bad_row():
    schema = TableSchema("t", ("A", "B"), ("text", "text"))
    with pytest.raises(ValueError, match=r"^table 't' row 1: 3 cells for 2 columns$"):
        Table(schema, [["a", "b"], ["c", "d", "e"], ["f"]])


def test_building_the_store_drops_the_given_rows():
    rows = [["a", "1"], ["b", "2"]]
    table = Table(TableSchema("t", ("A", "B"), ("text", "real")), rows)
    held = sys.getrefcount(rows)
    assert tuple(table.rows) == (("a", "1"), ("b", "2"))  # builds the store
    assert sys.getrefcount(rows) == held - 1


def test_a_failed_store_build_keeps_the_given_rows():
    # A row of the right length whose cells are not indexed by position
    # fails the build; the table keeps its rows, so a second read fails the
    # same way instead of finding them gone.
    table = Table(TableSchema("t", ("A",), ("text",)), [["a"], {"A": 1}])
    for _ in range(2):
        with pytest.raises(KeyError):
            table.columns


def test_saving_loaded_tables_writes_the_file_again(tmp_path):
    # save_tables writes the column form, which load -> save keeps byte for
    # byte; a rows-form record saves as the column form it loads equal to.
    _, tables = generate_synthetic_corpus(SynthConfig(n_tables=3, seed=4))
    first, second, third = (tmp_path / f"{n}.jsonl" for n in ("first", "second", "third"))
    save_tables(tables, first)
    with open(first, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "odd", "header": ["Ä", "B"], "types": ["text", "real"],
                                 "rows": [["  ", "1"], ["Ä b", ""], ["  ", "-0.0"]]},
                                ensure_ascii=False) + "\n")
    loaded = load_tables(first)
    save_tables(loaded, second)
    save_tables(load_tables(second), third)
    assert third.read_bytes() == second.read_bytes()
    lines = second.read_text(encoding="utf-8").splitlines()
    assert lines[:3] == first.read_text(encoding="utf-8").splitlines()[:3]
    assert json.loads(lines[3]) == {
        "id": "odd", "header": ["Ä", "B"], "types": ["text", "real"], "n_rows": 3,
        "codebooks": [["  ", "Ä b"], ["1", "", "-0.0"]],
        "codes": base64.b64encode(struct.pack("<6i", 0, 1, 0, 0, 1, 2)).decode("ascii")}
    reloaded = load_tables(second)
    assert reloaded == loaded
    assert tuple(reloaded["odd"].rows) == tuple(loaded["odd"].rows) == (
        ("  ", "1"), ("Ä b", ""), ("  ", "-0.0"))


@given(data=st.data(), width=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_the_rows_form_and_the_column_form_load_to_equal_tables(tmp_path_factory, data,
                                                                width):
    cells = (st.text(st.sampled_from(" \tÄé€a1.-"), max_size=3) | st.integers()
             | st.floats() | st.booleans() | st.none())
    rows = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                              max_size=6))
    rows_form, column_form = (tmp_path_factory.getbasetemp() / f"{n}.jsonl"
                              for n in ("rows-form", "column-form"))
    write_lines(rows_form, [{"id": "t", "header": [f"H{i}" for i in range(width)],
                             "rows": rows}])
    save_tables(load_tables(rows_form), column_form)
    assert "codebooks" in json.loads(column_form.read_text(encoding="utf-8"))
    by_rows, by_columns = load_tables(rows_form)["t"], load_tables(column_form)["t"]
    assert by_rows == by_columns
    assert tuple(by_rows.rows) == tuple(by_columns.rows) == rows_as_first_parsed(
        json.loads(json.dumps(rows)))


def test_load_tables_rows_must_be_arrays(tmp_path):
    # A row that is an object (or a string) of the right length used to load
    # as its keys (or characters); rows are JSON arrays.
    path = tmp_path / "tables.jsonl"
    for rows in ({"x": ["a"]}, [["a", "b"], {"A": 1, "B": 2}], [["a", "b"], "cd"]):
        write_lines(path, [{"id": "t", "header": ["A", "B"], "types": ["text"] * 2,
                            "rows": rows}])
        with pytest.raises(CorpusFormatError, match=r"tables.jsonl:1: "
                           r"table 't': rows must be a list of arrays"):
            load_tables(path)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The cyclic collector switched on or off for a test, then restored."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_read_jsonl_pauses_the_collector_and_restores_it(tmp_path, collector):
    path = tmp_path / "records.jsonl"
    write_lines(path, [{"n": 1}, {"n": 2}])
    seen = []
    read_jsonl(path, True, lambda record: seen.append(gc.isenabled()))
    assert seen == [False, False]
    assert gc.isenabled() is collector


def test_read_jsonl_restores_the_collector_after_a_strict_error(tmp_path, collector):
    path = tmp_path / "records.jsonl"
    path.write_text('{"n": 1}\nnot json\n{"n": 3}\n', encoding="utf-8")
    seen = []
    with pytest.raises(CorpusFormatError, match="records.jsonl:2"):
        read_jsonl(path, True, seen.append)
    assert seen == [{"n": 1}]
    assert gc.isenabled() is collector


def test_read_jsonl_restores_the_collector_after_lenient_skips(tmp_path, collector,
                                                               caplog):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"n": 1}\nnot json\n\xff\n{"n": 4}\n')
    seen = []
    with caplog.at_level("WARNING"):
        read_jsonl(path, False, seen.append)
    assert seen == [{"n": 1}, {"n": 4}]
    assert "records.jsonl:2" in caplog.text and "records.jsonl:3" in caplog.text
    assert gc.isenabled() is collector


def test_load_tables_duplicate_id(tmp_path):
    path = tmp_path / "tables.jsonl"
    record = {"id": "t", "header": ["A"], "types": ["text"], "rows": []}
    write_lines(path, [record, record])
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_tables(path)


def test_unknown_column_type_maps_to_text(tmp_path, caplog):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [{"id": "t", "header": ["A"], "types": ["blob"], "rows": []}])
    with caplog.at_level("WARNING"):
        tables = load_tables(path)
    assert tables["t"].schema.types == ("text",)


def test_round_trip(tmp_path):
    example = Example(
        question="laps over 200?", table_id="t",
        gold=SqlSketch(1, AggOp.MIN, (Condition(0, CondOp.GT, "200"),)),
        provenance="synthesized", style="short",
    )
    corpus = Corpus([example])
    path = tmp_path / "c.jsonl"
    save_examples(corpus, path)
    assert load_examples(path).examples == [example]


def test_tables_round_trip(tmp_path, motogp_table):
    path = tmp_path / "t.jsonl"
    save_tables({motogp_table.table_id: motogp_table}, path)
    assert load_tables(path)[motogp_table.table_id] == motogp_table


def test_synthetic_corpus_deterministic(tmp_path):
    config = SynthConfig(n_tables=3, rows_per_table=4, questions_per_table=5, seed=7)
    first_c, first_t = generate_synthetic_corpus(config)
    second_c, second_t = generate_synthetic_corpus(config)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_examples(first_c, a)
    save_examples(second_c, b)
    assert a.read_bytes() == b.read_bytes()
    assert first_t == second_t


def test_synthetic_table_shapes():
    config = SynthConfig(n_tables=2, rows_per_table=3, n_columns_min=3,
                         n_columns_max=3, questions_per_table=2, seed=0)
    _, tables = generate_synthetic_corpus(config)
    for table in tables.values():
        assert table.schema.n_columns == 3
        assert len(table.rows) == 3


def test_synthetic_gold_always_executes():
    config = SynthConfig(n_tables=6, rows_per_table=6, questions_per_table=6, seed=3)
    corpus, tables = generate_synthetic_corpus(config)
    for example in corpus.examples:
        result = execute(example.gold, tables[example.table_id])
        if example.gold.agg is AggOp.NONE:
            assert len(result.values) >= 1
    assert set(corpus.meta["archetypes"]) == set(tables)


def test_synthetic_examples_come_in_style_pairs():
    config = SynthConfig(n_tables=2, rows_per_table=4, questions_per_table=3, seed=0)
    corpus, _ = generate_synthetic_corpus(config)
    for verbose, short in zip(corpus.examples[::2], corpus.examples[1::2]):
        assert verbose.style == "verbose" and short.style == "short"
        assert verbose.gold == short.gold


def test_validate_corpus_reports(tmp_path, tennis_table):
    good = Example("who won on clay?", "1-tennis",
                   SqlSketch(2, AggOp.NONE, (Condition(1, CondOp.EQ, "clay"),)))
    dangling = Example("q", "missing", SqlSketch(0))
    report = validate_corpus(Corpus([good, dangling]),
                             {"1-tennis": tennis_table})
    assert not report.ok
    assert report.violations == [(1, "dangling table_id 'missing'")]
    assert report.conds_histogram == {1: 1, 0: 1}
    assert max(report.conds_histogram) <= 4


def test_validate_corpus_clean(tennis_table):
    good = Example("who won on clay?", "1-tennis",
                   SqlSketch(2, AggOp.NONE, (Condition(1, CondOp.EQ, "clay"),)))
    assert validate_corpus(Corpus([good]), {"1-tennis": tennis_table}).ok
