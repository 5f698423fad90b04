import json

import pytest

from nlsql import cli
from nlsql.cli import cli_dispatch
from nlsql.corpus import load_examples, save_examples, save_tables
from nlsql.model import load_checkpoint, save_checkpoint
from nlsql.sketch import Example, SqlSketch


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("NLSQL_OUT_DIR", str(tmp_path / "out"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv) -> int:
    return cli_dispatch(list(argv))


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


def test_validate_fails_on_dangling_table(workspace, tmp_path):
    data, tables = synth(workspace)
    bad = Example("q", "nowhere", SqlSketch(0))
    corpus = load_examples(data)
    corpus.examples.append(bad)
    save_examples(corpus, data)
    assert run("validate", "--data", str(data), "--tables", str(tables)) == 1


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


def test_index_and_sample_and_serialize(workspace, capsys):
    data, tables = synth(workspace)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    assert run("index", "--tables", str(tables), "--table-id", table_id) == 0
    assert "patterns" in capsys.readouterr().out

    out_file = workspace / "samples.jsonl"
    assert run("sample", "--tables", str(tables), "--table-id", table_id,
               "--strategy", "rand", "--k", "2", "--out", str(out_file)) == 0
    assert out_file.exists()

    assert run("serialize", "--tables", str(tables), "--table-id", table_id,
               "--question", "anything here", "--strategy", "rand",
               "--k", "1") == 0
    assert "[CLS]" in capsys.readouterr().out


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
               "--strategy", "rand", "--k", "2", "--budget", "128") == 0
    assert ckpt.exists()
    assert (workspace / "train.manifest.json").exists()

    report = workspace / "eval.json"
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--strategy", "rand", "--k", "2",
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


def test_bench_command(workspace):
    out = workspace / "bench.json"
    assert run("bench", "--strategy", "rel", "--k", "2",
               "--rows", "50,200", "--queries", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert [r["rows"] for r in payload["rows"]] == [50, 200]
    assert all(r["setup_seconds"] >= 0 for r in payload["rows"])


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


def test_repl_predicts_and_executes(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--strategy", "none", "--k", "0", "--budget", "128") == 0
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    before = (data.read_bytes(), tables.read_bytes(), ckpt.read_bytes())
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("anything about the table\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt), "--strategy", "rel", "--k", "1") == 0
    out = capsys.readouterr().out
    assert "SELECT" in out and "->" in out
    # repl must not mutate corpora, tables, or checkpoints
    assert (data.read_bytes(), tables.read_bytes(), ckpt.read_bytes()) == before


def train_small(workspace, data, tables, budget=128):
    ckpt = workspace / "model.ckpt"
    assert run("train", "--data", str(data), "--tables", str(tables),
               "--out", str(ckpt), "--epochs", "1", "--batch-size", "8",
               "--d-model", "16", "--layers", "1", "--heads", "2",
               "--strategy", "rand", "--k", "2", "--budget", str(budget)) == 0
    return ckpt


def test_repl_reports_bad_line_and_goes_on(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    capsys.readouterr()
    import io
    long_line = " ".join(["word"] * 40)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{long_line}\nfoo\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt), "--budget", "20") == 0
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "budget is 20" in errors[0]
    assert sum(line.startswith("SELECT") for line in captured.out.splitlines()) == 1


def test_repl_prints_the_sql_eval_predicts(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)
    report = workspace / "eval.json"
    assert run("eval", "--data", str(data), "--tables", str(tables),
               "--ckpt", str(ckpt), "--strategy", "rel", "--k", "2",
               "--out", str(report)) == 0
    predictions = [json.loads(line) for line in
                   report.with_suffix(".predictions.jsonl").read_text().splitlines()]
    table_id = predictions[0]["table_id"]
    mine = [p for p in predictions if p["table_id"] == table_id]
    capsys.readouterr()
    import io
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("".join(p["question"] + "\n" for p in mine)))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt), "--strategy", "rel", "--k", "2") == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("SELECT")]
    assert printed == [p["pred_sql"] for p in mine]


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


def test_serving_strategy_defaults_to_checkpoint(workspace, capsys, monkeypatch):
    data, tables = synth(workspace)
    ckpt = train_small(workspace, data, tables)  # trained at rand:2
    report = workspace / "eval.json"

    def eval_strategy(*flags):
        assert run("eval", "--data", str(data), "--tables", str(tables),
                   "--ckpt", str(ckpt), "--out", str(report), *flags) == 0
        config = json.loads((workspace / "eval.manifest.json").read_text())["config"]
        return config["strategy"], config["k"]

    assert eval_strategy() == ("rand", 2)
    assert eval_strategy("--k", "1") == ("rand", 1)
    assert eval_strategy("--strategy", "rel:3") == ("rel", 3)

    served = []

    class SpySampler(cli.Sampler):
        def __init__(self, tables, strategy, k, seed=0):
            served.append((strategy, k))
            super().__init__(tables, strategy, k, seed)

    monkeypatch.setattr(cli, "Sampler", SpySampler)
    table_id = json.loads(tables.read_text().splitlines()[0])["id"]
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("anything\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt)) == 0
    assert served == [("rand", 2)]

    # A checkpoint that records no training config keeps the old defaults.
    checkpoint = load_checkpoint(ckpt)
    checkpoint.extra.pop("train_config")
    save_checkpoint(ckpt, checkpoint)
    assert eval_strategy() == ("rand", 3)
    monkeypatch.setattr("sys.stdin", io.StringIO("anything\n"))
    assert run("repl", "--tables", str(tables), "--table-id", table_id,
               "--ckpt", str(ckpt)) == 0
    assert served[-1] == ("rel", 3)


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
