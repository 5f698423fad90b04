import gc
import json

import pytest

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
from nlsql.sketch import AggOp, CondOp, Condition, Example, SqlSketch
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
    assert type(rows) is tuple
    assert all(type(row) is tuple for row in rows)
    assert all(type(cell) is str for row in rows for cell in row)


def test_load_tables_empty_rows_ok(tmp_path):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [{"id": "t", "header": ["A"], "types": ["text"], "rows": []}])
    assert load_tables(path)["t"].rows == ()


def test_load_tables_numeric_cells_coerced(tmp_path):
    path = tmp_path / "tables.jsonl"
    write_lines(path, [{"id": "t", "header": ["A", "B"], "types": ["text", "real"],
                        "rows": [["x", 200], [1.5, True], [False, None]]}])
    rows = load_tables(path)["t"].rows
    assert rows == (("x", "200"), ("1.5", "True"), ("False", "None"))
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
