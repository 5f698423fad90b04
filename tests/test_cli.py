import argparse
import base64
import contextlib
import io
import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nlsql import cli
from nlsql.cli import cli_dispatch
from nlsql.corpus import (
    load_examples,
    load_tables,
    save_examples,
    save_tables,
    write_jsonl,
)
from nlsql.model import load_checkpoint, save_checkpoint
from nlsql.sampling import sample_random
from nlsql.sketch import Example, SqlSketch, Table, TableSchema


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("NLSQL_OUT_DIR", str(tmp_path / "out"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv) -> int:
    return cli_dispatch(list(argv))


def run_captured(*argv) -> tuple[int, str]:
    """``run``'s exit code and stderr, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


def stdin(text: str | bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` holding ``text``, with the byte buffer
    that ``repl`` reads."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def synth(workspace, **over):
    out = workspace / "synth"
    args = ["synth", "--out-dir", str(out), "--n-tables", "2", "--rows", "4",
            "--questions", "3", "--seed", "5"]
    for key, value in over.items():
        args += [f"--{key}", str(value)]
    assert run(*args) == 0
    return out / "corpus.jsonl", out / "tables.jsonl"


def test_no_arguments_is_usage_error(capsys):
    assert run() == 2


def test_unknown_flag_is_usage_error(workspace):
    assert run("synth", "--definitely-not-a-flag") == 2


def test_synth_validate_roundtrip(workspace, capsys):
    data, tables = synth(workspace)
    assert data.exists() and tables.exists()
    manifest = json.loads((data.parent / "synth.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 5
    assert run("validate", "--data", str(data), "--tables", str(tables)) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_validate_fails_on_dangling_table(workspace, capsys):
    data, tables = synth(workspace)
    bad = Example("q", "nowhere", SqlSketch(0))
    corpus = load_examples(data)
    corpus.examples.append(bad)
    save_examples(corpus, data)
    assert run("validate", "--data", str(data), "--tables", str(tables)) == 1
    out, err = capsys.readouterr()
    assert "violations: 1" in out and "dangling table_id 'nowhere'" in out
    assert err == "error: 1 violations\n"


def _set_first_gold(data, sel=None, cond_column=None, conds=None):
    """Rewrite example 0's gold: its select column, or one condition on
    ``cond_column`` whose value is the question's first word, or ``conds``."""
    lines = data.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    if sel is not None:
        record["sql"]["sel"] = sel
    if cond_column is not None:
        record["sql"]["conds"] = [[cond_column, 0, record["question"].split()[0]]]
    if conds is not None:
        record["sql"]["conds"] = conds
    lines[0] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")


TRAIN_TINY = ("--epochs", "1", "--batch-size", "8", "--d-model", "8", "--layers", "1",
              "--heads", "2")


@pytest.mark.parametrize("command, gold, message", [
    (("train",), {"sel": -1}, "select-column-out-of-range: -1 not in [0, "),
    (("train",), {"cond_column": -1}, "condition-column-out-of-range: cond 0 column -1"),
    (("train", "--augment"), {"sel": 9}, "select-column-out-of-range: 9 not in [0, "),
    (("train",), {"conds": [[0, 0, "a"]] * 5}, "too-many-conditions: 5 > 4"),
    (("train",), {"conds": [[0, 0, ""]]}, "empty-condition-value: cond 0"),
    (("augment",), {"sel": -1}, "select-column-out-of-range: -1 not in [0, "),
    (("augment",), {"cond_column": -1}, "condition-column-out-of-range: cond 0 column -1"),
    (("augment",), {"sel": 9}, "select-column-out-of-range: 9 not in [0, "),
    (("augment",), {"cond_column": 9}, "condition-column-out-of-range: cond 0 column 9"),
], ids=["train-sel-minus-1", "train-cond-column-minus-1", "train-augment-sel-9",
        "train-too-many-conditions", "train-empty-value", "augment-sel-minus-1",
        "augment-cond-column-minus-1", "augment-sel-9", "augment-cond-column-9"])
def test_a_gold_sketch_outside_its_table_is_an_error(workspace, capsys, command, gold,
                                                     message):
    # Columns index from 0, so -1 must not reach the last column, and 9 is
    # past every synth table's 3 to 5 columns.
    data, tables = synth(workspace)
    _set_first_gold(data, **gold)
    extra = (*TRAIN_TINY, "--budget", "128", "--out", "model.ckpt") \
        if command[0] == "train" else ()
    assert run(*command, "--data", str(data), "--tables", str(tables), *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: example 0: {message}")
    assert "Traceback" not in err


DEEP_LINE = "[" * 100_000 + "]" * 100_000
OVERFLOW_EXAMPLE = ('{"question": "q", "table_id": "t", '
                    '"sql": {"sel": 1e400, "agg": 0, "conds": []}}')


NOT_UTF8 = '{"question": "\udcff"}'  # written as the byte 0xff
NEGATIVE_N_ROWS = ('{"id": "bad", "header": ["A"], "n_rows": -1, "codebooks": [[]], '
                   '"codes": ""}')


@pytest.mark.parametrize("which, bad", [
    ("data", DEEP_LINE), ("tables", DEEP_LINE), ("data", OVERFLOW_EXAMPLE),
    ("data", NOT_UTF8), ("tables", NOT_UTF8), ("tables", NEGATIVE_N_ROWS),
], ids=["deep-examples", "deep-tables", "overflow-examples",
        "not-utf8-examples", "not-utf8-tables", "negative-n-rows-tables"])
def test_validate_reports_or_skips_an_undecodable_line(workspace, capsys,
                                                        which, bad):
    data, tables = synth(workspace)
    argv = ("validate", "--data", str(data), "--tables", str(tables))
    capsys.readouterr()
    assert run(*argv) == 0
    clean = capsys.readouterr().out
    path = data if which == "data" else tables
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_bytes(("\n".join([lines[0], bad, *lines[1:]]) + "\n")
                     .encode("utf-8", "surrogateescape"))
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
    assert run(*argv, "--lenient") == 0
    assert capsys.readouterr().out == clean


def test_validate_on_a_directory_is_an_error(workspace, capsys):
    data, tables = synth(workspace)
    capsys.readouterr()
    assert run("validate", "--data", str(workspace), "--tables", str(tables)) == 1
    assert capsys.readouterr().err.startswith(f"error: {workspace}: ")


def test_a_huge_number_in_a_table_is_text(workspace, capsys):
    # A table record has no integer field: 1e400 is a cell, read as "inf".
    data, tables = synth(workspace)
    with open(tables, "a", encoding="utf-8") as handle:
        handle.write('{"id": "big", "header": ["A"], "rows": [[1e400]], '
                     '"sel": 1e400}\n')
    assert run("validate", "--data", str(data), "--tables", str(tables)) == 0
    assert capsys.readouterr().err == ""


def test_render_matches_canonical_form(workspace, tmp_path, motogp_table, capsys):
    tables_path = tmp_path / "tables.jsonl"
    save_tables({motogp_table.table_id: motogp_table}, tables_path)
    sketch = json.dumps({"sel": 3, "agg": 0,
                         "conds": [[1, 0, "bmw"], [2, 1, "200"]]})
    assert run("render", "--tables", str(tables_path),
               "--table-id", "2-14125739-3", "--sketch", sketch) == 0
    assert capsys.readouterr().out.strip() == (
        "SELECT (Grid) FROM 2-14125739-3 WHERE Manufacturer = bmw AND Laps > 200"
    )


@pytest.mark.parametrize("sketch", [
    '{"agg":0}', '[1,2]', '{"sel":0,"conds":5}', '{"sel":0,"conds":[[1,0]]}',
    '{"sel":1e400}', '{"sel":0,"agg":9}', 'not json',
    pytest.param("[" * 100_000, id="nested-too-deep"),
])
def test_render_rejects_a_malformed_sketch(workspace, motogp_table, capsys,
                                           sketch):
    tables_path = workspace / "tables.jsonl"
    save_tables({motogp_table.table_id: motogp_table}, tables_path)
    assert run("render", "--tables", str(tables_path),
               "--table-id", "2-14125739-3", "--sketch", sketch) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --sketch") and "Traceback" not in err


@pytest.mark.parametrize("value", [1.9, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("path, name", [
    (("sel",), "sel"), (("agg",), "agg"),
    (("conds", 0, 0), "cond 0 column"), (("conds", 0, 1), "cond 0 op"),
], ids=["sel", "agg", "cond-column", "cond-op"])
def test_sketch_indices_must_be_json_integers(workspace, tennis_table, capsys,
                                              path, name, value):
    # Through int(), each value would read as 1: a valid index in every field.
    sql = {"sel": 1, "agg": 1, "conds": [[1, 1, "clay"]]}
    node = sql
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    tables, data = workspace / "tables.jsonl", workspace / "corpus.jsonl"
    save_tables({tennis_table.table_id: tennis_table}, tables)
    data.write_text(json.dumps({"question": "court past clay", "sql": sql,
                                "table_id": tennis_table.table_id}) + "\n",
                    encoding="utf-8")
    message = f"{name}: expected an integer, got {value!r}"
    assert run("validate", "--data", str(data), "--tables", str(tables)) == 1
    assert capsys.readouterr().err == f"error: {data}:1: {message}\n"
    assert run("render", "--tables", str(tables), "--table-id", tennis_table.table_id,
               "--sketch", json.dumps(sql)) == 1
    assert capsys.readouterr().err == f"error: --sketch: {message}\n"


@pytest.mark.parametrize("subcommand, extra", [
    ("index", []),
    ("sample", []),
    ("serialize", ["--question", "q"]),
    ("render", ["--sketch", '{"sel":0}']),
    ("repl", ["--ckpt", "missing.ckpt"]),
])
def test_unknown_table_id_is_an_error(workspace, capsys, subcommand, extra):
    _, tables = synth(workspace)
    capsys.readouterr()
    assert run(subcommand, "--tables", str(tables), "--table-id", "nope",
               *extra) == 1
    assert capsys.readouterr().err == "error: unknown table 'nope'\n"


def test_index_and_sample_and_serialize(workspace, capsys):
    data, tables = synth(workspace)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    assert run("index", "--tables", str(tables), "--table-id", table_id) == 0
    assert "patterns" in capsys.readouterr().out

    out_file = workspace / "samples.jsonl"
    assert run("sample", "--tables", str(tables), "--table-id", table_id,
               "--strategy", "rand:2", "--out", str(out_file)) == 0
    assert out_file.exists()

    assert run("serialize", "--tables", str(tables), "--table-id", table_id,
               "--question", "anything here", "--strategy", "rand:1") == 0
    assert "[CLS]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sample", "--tables", "t.jsonl", "--table-id", "t"],
    ["serialize", "--tables", "t.jsonl", "--table-id", "t", "--question", "q"],
    ["train", "--data", "d.jsonl", "--tables", "t.jsonl"],
    ["bench"],
    ["eval", "--data", "d.jsonl", "--tables", "t.jsonl", "--ckpt", "m.ckpt"],
    ["repl", "--tables", "t.jsonl", "--table-id", "t", "--ckpt", "m.ckpt"],
], ids=lambda argv: argv[0])
def test_k_flag_is_a_usage_error(workspace, capsys, argv):
    # The label carries k: --strategy rel:2, not --strategy rel --k 2.
    assert run(*argv, "--strategy", "rel", "--k", "2") == 2
    assert "unrecognized arguments: --k 2" in capsys.readouterr().err
    assert run(argv[0], "--help") == 0
    assert "--k" not in capsys.readouterr().out


def test_sample_out_writes_one_sidecar_record(workspace, tennis_table):
    tables = workspace / "tables.jsonl"
    save_tables({tennis_table.table_id: tennis_table}, tables)
    out_file = workspace / "samples.jsonl"

    def sidecar(*flags):
        assert run("sample", "--tables", str(tables), "--table-id",
                   tennis_table.table_id, "--out", str(out_file), *flags) == 0
        [record] = [json.loads(line)
                    for line in out_file.read_text(encoding="utf-8").splitlines()]
        config = json.loads((workspace / "sample.manifest.json").read_text())["config"]
        assert config["strategy"] == record["strategy"] and "k" not in config
        return record

    drawn = sample_random(tennis_table, 2, seed=5)
    assert sidecar("--strategy", "none") == {
        "table_id": tennis_table.table_id, "strategy": "none:0", "seed": 0,
        "columns": [[], [], []]}
    assert sidecar("--strategy", "rand:2", "--seed", "5") == {
        "table_id": tennis_table.table_id, "strategy": "rand:2", "seed": 5,
        "columns": [list(c) for c in drawn.columns]}
    record = sidecar("--strategy", "rel:2")
    assert record["strategy"] == "rel:2"
    assert all(len(column) == 2 for column in record["columns"])


def test_index_prints_pattern_and_cell_counts(workspace, tennis_table, capsys):
    # Blank cells are not counted; cells that normalize alike share a pattern.
    blanks = Table(TableSchema("blanks", ("A", "B"), ("text", "text")),
                   (("x", ""), ("X", "  "), ("Y  y", "z")))
    tables = workspace / "tables.jsonl"
    save_tables({t.table_id: t for t in (tennis_table, blanks)}, tables)
    assert run("index", "--tables", str(tables)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(", built in ")[0] for line in lines] == [
        "1-tennis: 8 patterns over 9 cells",
        "blanks: 3 patterns over 4 cells",
    ]


@given(rows=st.lists(st.lists(st.sampled_from(["", " ", "a", "A ", "b b"]),
                              min_size=2, max_size=2), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_index_counts_the_non_blank_cells(tmp_path_factory, rows):
    table = Table(TableSchema("t", ("A", "B"), ("text", "text")), rows)
    tables = tmp_path_factory.mktemp("index") / "tables.jsonl"
    save_tables({"t": table}, tables)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run("index", "--tables", str(tables)) == 0
    n_cells = sum(1 for row in rows for cell in row if cell.strip())
    assert f" patterns over {n_cells} cells, built in " in out.getvalue()


def test_augment_command(workspace, capsys):
    data, tables = synth(workspace)
    out_file = workspace / "augmented.jsonl"
    assert run("augment", "--data", str(data), "--tables", str(tables),
               "--out", str(out_file), "--mix-ratio", "0.5") == 0
    augmented = load_examples(out_file)
    original = load_examples(data)
    assert len(augmented.examples) \
        == len(original.examples) + round(0.5 * len(original.examples))


def test_train_eval_compare_smoke(workspace, capsys):
    data, tables = synth(workspace)
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "2", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--strategy", "rand:2", "--budget", "128") == 0
    assert ckpt.exists()
    assert (workspace / "train.manifest.json").exists()

    report = workspace / "eval.json"
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--strategy", "rand:2",
               "--out", str(report)) == 0
    payload = json.loads(report.read_text())
    assert set(payload) >= {"n", "lf", "ex", "subtasks"}
    assert report.with_suffix(".predictions.jsonl").exists()

    cmp_path = workspace / "cmp.json"
    assert run("compare", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--strategies", "none,rand:2",
               "--out", str(cmp_path)) == 0
    rows = json.loads(cmp_path.read_text())["rows"]
    assert [r["strategy"] for r in rows] == ["none", "rand:2"]


@pytest.mark.parametrize("strategies", ["", ",", " , "])
def test_compare_with_no_strategy_is_an_error(workspace, capsys, strategies):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    capsys.readouterr()
    out = workspace / "cmp.json"
    assert run("compare", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), f"--strategies={strategies}",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --strategies: no strategy given\n"
    assert not out.exists() and not (workspace / "compare.manifest.json").exists()


def test_train_reports_the_epochs_it_ran(workspace, capsys):
    data, tables = synth(workspace)
    capsys.readouterr()
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "200", "--stop-loss", "100",
               "--batch-size", "8", "--d-model", "16", "--layers", "1",
               "--heads", "2", "--budget", "128") == 0
    assert len(json.loads(ckpt.with_suffix(".history.json").read_text())) == 1
    assert capsys.readouterr().out.startswith("trained 1 epochs,")


@pytest.mark.parametrize("level, shown", [("warning", False), ("info", True)])
def test_log_level_info_shows_each_training_epoch(workspace, capsys, level,
                                                  shown):
    data, tables = synth(workspace)
    capsys.readouterr()
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(workspace / "m.ckpt"), "--epochs", "2",
               "--batch-size", "8", "--d-model", "16", "--layers", "1",
               "--heads", "2", "--budget", "128", "--log-level", level) == 0
    epochs = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("INFO: epoch ")]
    assert len(epochs) == (2 if shown else 0)


def test_unknown_log_level_is_an_error(workspace, capsys):
    data, tables = synth(workspace)
    capsys.readouterr()
    assert run("validate", "--data", str(data), "--tables", str(tables),
               "--log-level", "loud") == 1
    assert capsys.readouterr().err == "error: unknown --log-level 'loud'\n"


def test_train_out_makes_no_default_output_dir(workspace, monkeypatch):
    data, tables = synth(workspace)
    monkeypatch.delenv("NLSQL_OUT_DIR")
    elsewhere = workspace / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    ckpt = workspace / "m.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--budget", "128") == 0
    assert ckpt.exists() and (workspace / "train.manifest.json").exists()
    assert list(elsewhere.iterdir()) == []


def test_bench_command(workspace):
    out = workspace / "bench.json"
    assert run("bench", "--strategy", "rel:2",
               "--rows", "50,200", "--queries", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert [r["rows"] for r in payload["rows"]] == [50, 200]
    assert all(r["setup_seconds"] >= 0 for r in payload["rows"])


@pytest.mark.parametrize("rows", ["0", "100,0", "-5", "x", ","])
def test_bench_rejects_table_sizes_below_one(workspace, capsys, monkeypatch,
                                             rows):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "generate_bench_table", no_tables)
    out = workspace / "bench.json"
    assert run("bench", f"--rows={rows}", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --rows: ")
    assert not out.exists()


def test_config_file_defaults_and_flag_precedence(workspace):
    config = workspace / "run.conf"
    config.write_text("n-tables = 3\nrows = 4\nquestions = 2\n", encoding="utf-8")
    out = workspace / "fromconf"
    assert run("synth", "--config", str(config), "--out-dir", str(out),
               "--n-tables", "1") == 0
    tables = (out / "tables.jsonl").read_text().splitlines()
    assert len(tables) == 1  # flag beat config
    out2 = workspace / "fromconf2"
    assert run("synth", "--config", str(config), "--out-dir", str(out2)) == 0
    assert len((out2 / "tables.jsonl").read_text().splitlines()) == 3
    out3 = workspace / "fromconf3"
    assert run("synth", f"--config={config}", "--out-dir", str(out3)) == 0
    assert len((out3 / "tables.jsonl").read_text().splitlines()) == 3


def test_config_file_unknown_key(workspace):
    config = workspace / "bad.conf"
    config.write_text("not_a_real_option = 1\n", encoding="utf-8")
    assert run("synth", "--config", str(config)) == 2
    config.write_text("encoder-lr = 0.5\n", encoding="utf-8")  # a retired setting
    assert run("train", "--data", "d", "--tables", "t",
               "--config", str(config)) == 2


@pytest.mark.parametrize("text, message", [
    ("epochs = 3\nlr 0.1\n", "bad.conf:2: expected key = value"),
    ("# comment\n\nepochs = abc\n", "bad.conf:3: epochs: invalid literal"),
    ("augment = maybe\n", "bad.conf:1: augment: expected one of"),
    (None, "bad.conf: cannot read config file"),
], ids=["no-equals", "bad-int", "bad-bool", "missing-file"])
def test_malformed_config_file_is_an_error(workspace, capsys, text, message):
    config = workspace / "bad.conf"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    assert run("train", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}") and message in err
    assert "Traceback" not in err


def test_config_values_parse_like_their_flags(workspace):
    config = workspace / "run.conf"
    config.write_text("lenient = Yes\nclip-norm = 0.5\nbudget = 64\n",
                      encoding="utf-8")
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    cli._apply_config_defaults(parser, subparsers, ["train", "--config", str(config)])
    args = parser.parse_args(["train", "--data", "d", "--tables", "t"])
    assert (args.lenient, args.clip_norm, args.budget) == (True, 0.5, 64)


@pytest.mark.parametrize("argv, config, message", [
    (("train", "--heads", "0"), "", "all ModelConfig dimensions must be >= 1"),
    (("train",), "heads = 0\n", "all ModelConfig dimensions must be >= 1"),
    (("train", "--clip-norm", "-1"), "", "lr and clip_norm must be >= 0"),
    (("train", "--lr", "inf"), "", "lr and clip_norm must be >= 0, and lr finite"),
    (("augment", "--mix-ratio", "inf"), "", "mix_ratio must be finite"),
    (("train", "--augment", "--mix-ratio", "inf"), "", "mix_ratio must be finite"),
], ids=["heads-flag", "heads-config", "clip-norm", "lr-inf", "augment-mix",
        "train-mix"])
def test_out_of_range_setting_is_an_error(workspace, capsys, argv, config, message):
    data, tables = synth(workspace)
    conf = workspace / "run.conf"
    conf.write_text(config, encoding="utf-8")
    assert run(*argv, "--data", str(data), "--tables", str(tables),
               "--config", str(conf), "--out-dir", str(workspace / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_training_that_diverges_is_an_error(workspace, capsys):
    # A finite rate so large that the loss overflows within a few epochs.
    data, tables = synth(workspace)
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "5", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--lr", "1e300") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epoch ") and "mean loss is nan" in err
    assert "Traceback" not in err
    assert not ckpt.exists() and not ckpt.with_suffix(".history.json").exists()


def test_a_last_step_that_overflows_is_an_error(workspace, capsys):
    # One step on one batch: the loss before it is finite, so only the check
    # after the last step sees that it sent the parameters to about 1e300.
    data, tables = synth(workspace)
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "16",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--lr", "1e300") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the loss after the last step is nan")
    assert "Traceback" not in err
    assert not ckpt.exists() and not ckpt.with_suffix(".history.json").exists()


def test_repl_predicts_and_executes(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--strategy", "none:0", "--budget", "128") == 0
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    before = (data.read_bytes(), tables.read_bytes(), ckpt.read_bytes())
    monkeypatch.setattr("sys.stdin", stdin("anything about the table\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt), "--strategy", "rel:1") == 0
    out = capsys.readouterr().out
    assert "SELECT" in out and "->" in out
    # repl must not mutate corpora, tables, or checkpoints
    assert (data.read_bytes(), tables.read_bytes(), ckpt.read_bytes()) == before


def train_small(workspace, data, tables, budget=128):
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--strategy", "rand:2", "--budget", str(budget)) == 0
    return ckpt


def test_repl_reports_bad_line_and_goes_on(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    capsys.readouterr()
    long_line = " ".join(["word"] * 40)
    monkeypatch.setattr("sys.stdin", stdin(f"{long_line}\nfoo\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt), "--budget", "20") == 0
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "budget is 20" in errors[0]
    assert sum(line.startswith("SELECT") for line in captured.out.splitlines()) == 1


def test_repl_reports_a_line_that_is_not_utf8_and_goes_on(workspace, capsys,
                                                          monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", stdin(b"player 3\n\xff\xfe bad\n\nplayer 4\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt)) == 0
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: not UTF-8\n"
    assert sum(line.startswith("SELECT") for line in captured.out.splitlines()) == 2


def test_repl_prints_the_sql_eval_predicts(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    report = workspace / "eval.json"
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--strategy", "rel:2",
               "--out", str(report)) == 0
    predictions = [json.loads(line) for line in
                   report.with_suffix(".predictions.jsonl").read_text().splitlines()]
    table_id = predictions[0]["table_id"]
    mine = [p for p in predictions if p["table_id"] == table_id]
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin",
                        stdin("".join(p["question"] + "\n" for p in mine)))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt), "--strategy", "rel:2") == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("SELECT")]
    assert printed == [p["pred_sql"] for p in mine]


@pytest.mark.parametrize("argv", [
    ["serialize", "--tables", "t.jsonl", "--table-id", "t", "--question", "q"],
    ["train", "--data", "d.jsonl", "--tables", "t.jsonl"],
    ["eval", "--data", "d.jsonl", "--tables", "t.jsonl", "--ckpt", "m.ckpt"],
    ["compare", "--data", "d.jsonl", "--tables", "t.jsonl", "--ckpt", "m.ckpt"],
    ["bench"],
    ["repl", "--tables", "t.jsonl", "--table-id", "t", "--ckpt", "m.ckpt"],
])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_is_rejected(workspace, capsys, argv, budget):
    assert run(*argv, "--budget", budget) == 1
    assert capsys.readouterr().err.startswith(f"error: --budget: must be at least 1, got {budget}")


def test_train_manifest_records_peak_rss(workspace):
    data, tables = synth(workspace)
    train_small(workspace, data, tables)
    manifest = json.loads((workspace / "train.manifest.json").read_text())
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 1.0


def test_serving_budget_defaults_to_checkpoint(workspace, capsys):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables, budget=128)
    report = workspace / "eval.json"
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--out", str(report)) == 0
    manifest = json.loads((workspace / "eval.manifest.json").read_text())
    assert manifest["config"]["budget"] == 128
    capsys.readouterr()
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--budget", "512",
               "--out", str(report)) == 1
    assert "max_positions 128" in capsys.readouterr().err


def test_eval_on_truncated_checkpoint_is_an_error(workspace, capsys):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    ckpt.write_bytes(ckpt.read_bytes()[:-64])
    capsys.readouterr()
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt)) == 1
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: truncated")


def _edit_header(path, edit):
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + header_len])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(raw)) + raw
                     + data[16 + header_len:])


def _not_utf8(path):
    data = bytearray(path.read_bytes())
    data[16] = 0xFF  # the header's opening brace
    path.write_bytes(bytes(data))


def _pad_vocab(header, config_too=False):
    # 50 tokens after the specials move each later token's id 50 rows on,
    # past the end of tok_emb for most of them.
    header["vocab"][6:6] = [f"pad{i}" for i in range(50)]
    if config_too:
        header["config"]["vocab_size"] += 50


def _tensor(header, name):
    return next(spec for spec in header["tensors"] if spec["name"] == name)


def _huge_pos_emb(header):
    # A consistent header whose pos_emb (1.14 PiB) exceeds any address space:
    # its extent is checked against the file before anything is allocated.
    rows = 10**13
    header["config"]["max_positions"] = rows
    _tensor(header, "pos_emb").update(shape=[rows, 16], nbytes=rows * 16 * 8)


@pytest.mark.parametrize("damage, message", [
    (lambda header: header.pop("tensors"), "header has no 'tensors' field"),
    (lambda header: header["config"].update(x=1), "ModelConfig.__init__() got"),
    (_not_utf8, "'utf-8' codec"),
    (_pad_vocab, "125 vocab tokens do not fit vocab_size 75"),
    (lambda header: _pad_vocab(header, True), "tensor 'tok_emb' of shape"),
    (lambda header: header["config"].update(max_positions=129),
     "tensor 'pos_emb' of shape [128, 16] does not fit the config's [129, 16]"),
    (lambda header: header.update(config=[1]), "config is not a JSON object"),
    (lambda header: header.update(extra=[]), "extra and its train_config"),
    (lambda header: header.update(extra="x"), "extra and its train_config"),
    (lambda header: header.update(extra=7), "extra and its train_config"),
    (lambda header: header.update(extra=None), "extra and its train_config"),
    (lambda header: header["extra"].update(train_config=[]),
     "extra and its train_config"),
    (lambda header: header["config"].update(n_layers=1.5),
     "ModelConfig.n_layers must be an int, got 1.5"),
    (lambda header: header["config"].update(n_heads=True),
     "ModelConfig.n_heads must be an int, got True"),
    (lambda header: header["config"].update(n_layers=10**12),
     "55 tensors cannot hold 1000000000000 layers"),
    (lambda header: _tensor(header, "agg.att_w").update(name="agg.att_x"),
     "tensor 'agg.att_x' of shape [16, 16] does not fit the config's blocks"),
    (lambda header: header["tensors"].remove(_tensor(header, "agg.att_w")),
     "no tensor 'agg.att_w' (1 blocks missing)"),
    (lambda header: header["tensors"].append(dict(_tensor(header, "agg.b1"),
                                                  name="agg.b3")),
     "tensor 'agg.b3' of shape [16] does not fit the config's blocks"),
    (lambda header: header["tensors"].append(_tensor(header, "agg.b1")),
     "tensor 'agg.b1' of shape [16] does not fit the config's blocks, or repeats"),
    (lambda header: _tensor(header, "agg.w2").update(shape=[6, 16]),
     "tensor 'agg.w2' of shape [6, 16] does not fit the config's [16, 6]"),
    (_huge_pos_emb, "truncated tensor 'pos_emb' ("),
    (lambda header: header["vocab"].append(header["vocab"].pop(0)),
     "vocab is not a list of strings that starts with ['[PAD]', '[UNK]'"),
    (lambda header: header["vocab"].__setitem__(-1, header["vocab"][6]),
     "vocab repeats a token (1 repeats)"),
    (lambda header: _tensor(header, "agg.b1").update(dtype="<f4"),
     "tensor 'agg.b1' has dtype '<f4', not '<f8'"),
], ids=["no-tensors", "unknown-config-key", "header-not-utf8",
        "vocab-vs-config", "vocab-vs-tok-emb", "max-positions-vs-pos-emb",
        "config-not-an-object", "extra-a-list", "extra-a-string",
        "extra-a-number", "extra-null", "train-config-not-an-object",
        "n-layers-not-an-int", "n-heads-a-bool", "n-layers-past-the-tensors",
        "tensor-renamed", "tensor-missing", "tensor-extra", "tensor-repeated",
        "tensor-mis-shaped", "tensor-past-the-address-space", "vocab-rotated",
        "vocab-repeats-a-token", "tensor-dtype-f4"])
def test_eval_on_a_malformed_checkpoint_header_is_an_error(workspace, capsys,
                                                           damage, message):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    if damage is _not_utf8:  # the one case that damages bytes, not fields
        _not_utf8(ckpt)
    else:
        _edit_header(ckpt, damage)
    capsys.readouterr()
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and "Traceback" not in err
    assert message in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A synth corpus and a checkpoint trained on it, shared by a module."""
    root = tmp_path_factory.mktemp("trained")
    data, tables = synth(root)
    return data, tables, train_small(root, data, tables)


# Paths to one field of a checkpoint header: each top-level field, each
# config value, the training record and its strategy, one vocabulary token,
# and one tensor entry and each of its fields.
HEADER_FIELDS = (
    ("version",), ("config",), ("vocab",), ("extra",), ("tensors",),
    *(("config", key) for key in ("vocab_size", "d_model", "n_layers",
                                  "n_heads", "max_positions", "seed")),
    ("extra", "train_config"), ("extra", "train_config", "strategy"),
    ("extra", "train_config", "k"), ("vocab", 6), ("tensors", 0),
    *(("tensors", 0, key) for key in ("name", "shape", "dtype", "offset", "nbytes")),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


@given(path=st.sampled_from(HEADER_FIELDS), value=JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_eval_on_any_value_in_one_header_field_exits_0_or_1(trained, path, value):
    data, tables, ckpt = trained
    mutated = ckpt.with_name("mutated.ckpt")
    mutated.write_bytes(ckpt.read_bytes())

    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    _edit_header(mutated, edit)
    code, err = run_captured("eval", "--data", str(data), "--tables", str(tables),
                             "--ckpt", str(mutated),
                             "--out", str(mutated.with_name("eval.json")))
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ")


def test_eval_loads_a_checkpoint_with_retired_config_keys(workspace):
    # Checkpoints written before the FFN width, the weight std, the condition
    # and span limits and dropout became constants carry them in their
    # config, and their training record holds retired settings.
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    report = workspace / "eval.json"
    argv = ("eval", "--data", str(data), "--tables", str(tables),
            "--ckpt", str(ckpt), "--out", str(report))
    assert run(*argv) == 0
    before = report.with_suffix(".predictions.jsonl").read_bytes()

    def retire(header):
        header["config"].update(ffn_dim=0, dropout=0.0, init_scale=0.02,
                                max_conds=4, max_span_len=16)
        header["extra"]["train_config"].update(
            encoder_lr=None, checkpoint_every=0, vocab_max_size=30_000)

    _edit_header(ckpt, retire)
    assert run(*argv) == 0
    assert report.with_suffix(".predictions.jsonl").read_bytes() == before


def test_serving_strategy_defaults_to_checkpoint(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)  # trained at rand:2
    report = workspace / "eval.json"

    def eval_strategy(*flags):
        assert run("eval", "--data", str(data), "--tables", str(tables),
                   "--ckpt", str(ckpt), "--out", str(report), *flags) == 0
        config = json.loads((workspace / "eval.manifest.json").read_text())["config"]
        return config["strategy"]

    assert eval_strategy() == "rand:2"
    assert eval_strategy("--strategy", "rand:1") == "rand:1"
    assert eval_strategy("--strategy", "rel:3") == "rel:3"
    # A bare name takes its own default k, not the checkpoint's.
    assert eval_strategy("--strategy", "rand") == "rand:3"

    served = []

    class SpySampler(cli.Sampler):
        def __init__(self, tables, strategy, k, seed=0):
            served.append((strategy, k))
            super().__init__(tables, strategy, k, seed)

    monkeypatch.setattr(cli, "Sampler", SpySampler)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    monkeypatch.setattr("sys.stdin", stdin("anything\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt)) == 0
    assert served == [("rand", 2)]

    # Older checkpoints record k=3 beside none and em1, which serve 0 and 1.
    checkpoint = load_checkpoint(ckpt)
    checkpoint.extra["train_config"].update(strategy="none", k=3)
    save_checkpoint(ckpt, checkpoint)
    assert eval_strategy() == "none:0"

    # One whose training config records no strategy serves the default.
    checkpoint.extra["train_config"] = {"k": 2}
    save_checkpoint(ckpt, checkpoint)
    assert eval_strategy() == "rand:2"

    # A checkpoint that records no training config keeps the old defaults.
    checkpoint.extra.pop("train_config")
    save_checkpoint(ckpt, checkpoint)
    assert eval_strategy() == "rand:3"
    monkeypatch.setattr("sys.stdin", stdin("anything\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt)) == 0
    assert served[-1] == ("rel", 3)


def test_augment_non_utf8_replacement_line_names_file_and_line(workspace, capsys):
    data, tables = synth(workspace)
    replacements = workspace / "replacements.tsv"
    replacements.write_bytes(b"more than\tGT\t>\nat least\tGE\t\xff\n")
    assert run("augment", "--data", str(data), "--tables", str(tables),
               "--replacements", str(replacements)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {replacements}:2: 'utf-8' codec can't decode")
    assert "Traceback" not in err


def test_augment_unknown_operator_names_file_and_line(workspace, capsys):
    data, tables = synth(workspace)
    replacements = workspace / "replacements.tsv"
    replacements.write_text("# pattern, op, symbol\nmore than\tBOGUS\t>\n",
                            encoding="utf-8")
    assert run("augment", "--data", str(data), "--tables", str(tables),
               "--replacements", str(replacements)) == 1
    err = capsys.readouterr().err
    assert f"{replacements}:2: unknown operator 'BOGUS'" in err
    assert "Traceback" not in err


# Paths to one field of an example record (one with a condition) and of the
# table record it names: each field, and each part of the gold sketch, header,
# types and codebooks, in the column form that synth writes; and each part of
# the rows of the same table in rows form.
EXAMPLE_FIELDS = (
    ("question",), ("table_id",), ("sql",), ("sql", "sel"), ("sql", "agg"),
    ("sql", "conds"), ("sql", "conds", 0), *(("sql", "conds", 0, i) for i in range(3)),
    ("provenance",), ("style",),
)
TABLE_FIELDS = (("id",), ("header",), ("header", 0), ("types",), ("types", 0),
                ("n_rows",), ("codebooks",), ("codebooks", 0), ("codebooks", 0, 0),
                ("codes",), ("rows",), ("rows", 0), ("rows", 0, 0))
RECORD_FIELDS = (*(("data", path) for path in EXAMPLE_FIELDS),
                 *(("tables", path) for path in TABLE_FIELDS))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 2-table, 8-example synth corpus, its tables also in rows form, a tiny
    checkpoint trained on it, and the line of an example with a condition and
    of its table."""
    root = tmp_path_factory.mktemp("records")
    data, tables = synth(root, questions=2)
    rows = root / "tables.rows.jsonl"
    write_jsonl(({"id": t.table_id, "header": list(t.schema.headers),
                  "types": list(t.schema.types), "rows": list(map(list, t.rows))}
                 for t in load_tables(tables).values()), rows)
    ckpt = root / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               *TRAIN_TINY, "--budget", "128", "--out", str(ckpt)) == 0
    examples = [json.loads(line) for line in data.read_text().splitlines()]
    table_ids = [json.loads(line)["id"] for line in tables.read_text().splitlines()]
    index = next(i for i, record in enumerate(examples) if record["sql"]["conds"])
    lines = {"data": index, "tables": table_ids.index(examples[index]["table_id"])}
    return root, {"data": data, "tables": tables, "rows": rows}, ckpt, lines


@given(field=st.sampled_from(RECORD_FIELDS), value=JSON_VALUES)
@settings(max_examples=100, deadline=None)
def test_any_value_in_one_record_field_exits_0_or_1(small_corpus, field, value):
    root, files, ckpt, lines = small_corpus
    which, path = field
    paths = {"data": files["data"], "tables": files["rows" if path[0] == "rows" else "tables"]}
    records = paths[which].read_text(encoding="utf-8").splitlines()
    record = json.loads(records[lines[which]])
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    records[lines[which]] = json.dumps(record)
    paths[which] = root / f"mutated.{which}.jsonl"
    paths[which].write_text("\n".join(records) + "\n", encoding="utf-8")

    for argv in (("validate",), ("augment", "--out", str(root / "augmented.jsonl")),
                 ("train", *TRAIN_TINY, "--budget", "64", "--out", str(root / "fuzz.ckpt")),
                 ("eval", "--ckpt", str(ckpt), "--out", str(root / "eval.json"))):
        code, err = run_captured(*argv, "--data", str(paths["data"]),
                                 "--tables", str(paths["tables"]))
        assert code in (0, 1), argv
        if code == 1:
            # A strict load may log a mapped column type before it fails.
            last = err.splitlines()[-1:]
            assert last and last[0].startswith("error: "), argv


def _codes(*columns) -> str:
    """The ``codes`` field of a column-form record: base64 of the columns'
    codes as little-endian int32, column after column."""
    flat = [code for column in columns for code in column]
    return base64.b64encode(struct.pack(f"<{len(flat)}i", *flat)).decode("ascii")


# A column-form table of three rows, ("x", "1"), ("y", "2"), ("x", "3"), and
# records that each break one rule of the form, with the error each gives.
CODED_TABLE = {"id": "t", "header": ["A", "B"], "types": ["text", "real"], "n_rows": 3,
               "codebooks": [["x", "y"], ["1", "2", "3"]], "codes": _codes([0, 1, 0], [0, 1, 2])}
BAD_CODED_TABLES = {
    "wrong-length-blob": ({"codes": _codes([0, 1, 0], [0, 1])},
                          "table 't': codes hold 20 bytes, not 4 × 2 columns × 3 rows"),
    "bad-base64": ({"codes": "AAAA*" + _codes([0, 1, 0], [0, 1, 2])[5:]},
                   "table 't': codes are not base64"),
    "code-out-of-range": ({"codes": _codes([0, 1, 2], [0, 1, 2])},
                          "table 't' column 0: code 2 is out of range of 2 codebook entries"),
    "codes-not-first-seen": ({"codes": _codes([1, 0, 1], [0, 1, 2])},
                             "table 't' column 0: codes are not in first-seen order"),
    "unused-codebook-entry": ({"codebooks": [["x", "y", "z"], ["1", "2", "3"]]},
                              "table 't' column 0: codebook entry 2 is never used"),
    "repeated-codebook-entry": ({"codebooks": [["x", "y"], ["1", "2", "1"]]},
                                "table 't' column 1: a codebook entry repeats"),
    "negative-n-rows": ({"n_rows": -1}, "table 't': n_rows must be a non-negative "
                        "integer, got -1"),
    "non-integer-n-rows": ({"n_rows": 3.0}, "table 't': n_rows must be a non-negative "
                           "integer, got 3.0"),
    "codebook-count-not-header-count": ({"codebooks": [["x", "y"]]},
                                        "table 't': 1 codebooks for 2 columns"),
}


@pytest.mark.parametrize("command", ["validate", "eval"])
@pytest.mark.parametrize("fields, message", BAD_CODED_TABLES.values(),
                         ids=BAD_CODED_TABLES.keys())
def test_a_bad_column_form_table_is_an_error(small_corpus, tmp_path, command, fields,
                                             message):
    _, _, ckpt, _ = small_corpus
    data, tables = tmp_path / "data.jsonl", tmp_path / "tables.jsonl"
    write_jsonl([{"question": "which x", "table_id": "t",
                  "sql": {"sel": 1, "agg": 0, "conds": [[0, 0, "x"]]}}], data)
    argv = {"validate": (), "eval": ("--ckpt", str(ckpt), "--out", str(tmp_path / "e.json"))}
    write_jsonl([CODED_TABLE], tables)
    assert run_captured(command, "--data", str(data), "--tables", str(tables),
                        *argv[command]) == (0, "")
    write_jsonl([{**CODED_TABLE, **fields}], tables)
    code, err = run_captured(command, "--data", str(data), "--tables", str(tables),
                             *argv[command])
    # A check made at load also names the file and line.
    assert code == 1 and err in (f"error: {message}\n", f"error: {tables}:1: {message}\n")


# Each command's settings as a --config file sets them, one line each; the
# inputs each command requires are flags.
CONFIG_FILES = {
    "validate": {"lenient": "no", "seed": "0", "log-level": "warning"},
    "sample": {"strategy": "rel:2", "question": "more than 3", "seed": "1",
               "lenient": "no"},
    "serialize": {"strategy": "rand:2", "budget": "64", "seed": "1", "lenient": "no"},
    "eval": {"strategy": "rel:2", "budget": "64", "seed": "0", "lenient": "no"},
}
CONFIG_LINES = tuple((command, key) for command, settings in CONFIG_FILES.items()
                     for key in settings)
CONFIG_VALUES = (st.text(st.characters(exclude_characters="\r\n"), max_size=10)
                 | st.integers().map(str) | st.floats().map(str)
                 | st.sampled_from(["rel:0", "rand:-1", "em1:5", "none", "rel:", ":3",
                                    "yes", "off", "debug", "1e400"]))


@given(line=st.sampled_from(CONFIG_LINES), value=CONFIG_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_value_in_one_config_line_exits_0_or_1(small_corpus, line, value):
    root, files, ckpt, _ = small_corpus
    command, key = line
    lines = dict(CONFIG_FILES[command], **{key: value})
    config = root / "mutated.conf"
    # A drawn lone surrogate is written as its undecodable UTF-8-like bytes,
    # so the file reaches the loader instead of failing to be written.
    config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()),
                      encoding="utf-8", errors="surrogatepass")
    table_id = json.loads(files["tables"].read_text().splitlines()[0])["id"]
    argv = {
        "validate": ("--data", str(files["data"])),
        "sample": ("--table-id", table_id),
        "serialize": ("--table-id", table_id, "--question", "more than 3"),
        "eval": ("--data", str(files["data"]), "--ckpt", str(ckpt),
                 "--out", str(root / "eval.json")),
    }[command]
    code, err = run_captured(command, "--tables", str(files["tables"]), *argv,
                             "--config", str(config))
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ")


REPLACEMENT_LINES = ("# pattern<TAB>op<TAB>symbol", "more than\tGT\t>",
                     "at most\tlt\t<=", "fewer than\tLT\t<", "under\t<\t<")
REPLACEMENT_VALUES = (
    st.binary(max_size=12)
    | st.lists(st.text(max_size=6), min_size=1, max_size=4).map("\t".join)
    | st.tuples(st.text(st.characters(exclude_characters="\t\n\r"), min_size=1,
                        max_size=6),
                st.sampled_from(["GT", "lt", "eq", ">", "=", "<=", ""]),
                st.text(max_size=3)).map("\t".join))


@given(index=st.integers(0, len(REPLACEMENT_LINES) - 1), value=REPLACEMENT_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_line_of_a_replacements_file_exits_0_or_1(small_corpus, index, value):
    root, files, _, _ = small_corpus
    lines = [line.encode("utf-8") for line in REPLACEMENT_LINES]
    # A drawn lone surrogate becomes undecodable bytes, as in the config test.
    lines[index] = (value if isinstance(value, bytes)
                    else value.encode("utf-8", "surrogatepass"))
    replacements = root / "mutated.tsv"
    replacements.write_bytes(b"\n".join(lines) + b"\n")
    code, err = run_captured("augment", "--data", str(files["data"]),
                             "--tables", str(files["tables"]),
                             "--replacements", str(replacements), "--symbol-prob", "1",
                             "--out", str(root / "augmented.jsonl"))
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ")



def _files(*roots) -> set:
    return {path for root in roots for path in root.rglob("*") if path.is_file()}


def _argv(small_corpus, argv, **more) -> list[str]:
    """``argv`` with ``{data}``, ``{tables}``, ``{ckpt}``, ``{table_id}`` and
    ``more`` filled in from the small corpus."""
    _, files, ckpt, _ = small_corpus
    table_id = json.loads(files["tables"].read_text().splitlines()[0])["id"]
    return [arg.format(ckpt=ckpt, table_id=table_id, **files, **more) for arg in argv]


SERVING = ("--tables", "{tables}", "--table-id", "{table_id}")

# Each command that writes outputs, with every output under ``{here}``, away
# from the default output directory.
MANIFEST_RUNS = {
    "synth": ("--out-dir", "{here}", "--n-tables", "1", "--rows", "3",
              "--questions", "2"),
    "augment": ("--data", "{data}", "--tables", "{tables}",
                "--out", "{here}/augmented.jsonl"),
    "sample": (*SERVING, "--out", "{here}/samples.jsonl"),
    "train": ("--data", "{data}", "--tables", "{tables}", *TRAIN_TINY,
              "--budget", "64", "--out", "{here}/m.ckpt"),
    "eval": ("--data", "{data}", "--tables", "{tables}", "--ckpt", "{ckpt}",
             "--out", "{here}/report.json"),
    "compare": ("--data", "{data}", "--tables", "{tables}", "--ckpt", "{ckpt}",
                "--strategies", "none,rand:1", "--out", "{here}/cmp.json"),
    "bench": ("--rows", "20", "--queries", "2", "--out", "{here}/b.json"),
}

# Runs that write nothing: the commands with no outputs, and runs that fail.
SILENT_RUNS = {
    "validate": ("validate", "--data", "{data}", "--tables", "{tables}"),
    "index": ("index", "--tables", "{tables}"),
    "serialize": ("serialize", *SERVING, "--question", "more than 3"),
    "render": ("render", *SERVING, "--sketch", '{{"sel": 0}}'),
    "repl": ("repl", *SERVING, "--ckpt", "{ckpt}"),
    "sample-without-out": ("sample", *SERVING),
    "failing-augment": ("augment", "--data", "{data}", "--tables", "{tables}",
                        "--replacements", "missing.tsv"),
    "failing-eval": ("eval", "--data", "{data}", "--tables", "{tables}",
                     "--ckpt", "{ckpt}", "--budget", "100000"),
    "failing-sample": ("sample", "--tables", "{tables}", "--table-id", "nope",
                       "--out", "s.jsonl"),
    "failing-bench": ("bench", "--rows", "0", "--out", "b.json"),
}


@pytest.mark.parametrize("command", MANIFEST_RUNS)
def test_an_output_run_writes_one_manifest_beside_its_first_output(
        workspace, small_corpus, command):
    here = workspace / "here"
    here.mkdir()
    before = _files(workspace, small_corpus[0])
    argv = _argv(small_corpus, MANIFEST_RUNS[command], here=here)
    assert run_captured(command, *argv)[0] == 0
    written = _files(workspace, small_corpus[0]) - before
    manifests = [path for path in written if path.name.endswith(".manifest.json")]
    assert manifests == [here / f"{command}.manifest.json"]
    manifest = json.loads(manifests[0].read_text(encoding="utf-8"))
    outputs = [Path(path) for path in manifest["outputs"]]
    assert manifest["subcommand"] == command and outputs[0].parent == here
    assert sorted(outputs) == sorted(written - set(manifests))


@pytest.mark.parametrize("command", SILENT_RUNS)
def test_a_run_without_outputs_writes_no_manifest(workspace, small_corpus,
                                                  monkeypatch, command):
    monkeypatch.setattr("sys.stdin", stdin("more than 3\n"))
    before = _files(workspace, small_corpus[0])
    code, _ = run_captured(*_argv(small_corpus, SILENT_RUNS[command]))
    assert code == (1 if command.startswith("failing-") else 0)
    assert _files(workspace, small_corpus[0]) == before
