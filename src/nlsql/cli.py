"""Command-line entry point tying the pipeline together.

Subcommands: validate, synth, augment, index, sample, serialize, train,
eval, compare, bench, render, repl. Configuration precedence is flags >
config file > defaults; the config file is flat ``key = value`` text using
the flag destination names (e.g. ``epochs = 300``). Every subcommand that
writes outputs also writes a run manifest next to them. ``NLSQL_OUT_DIR``
sets the default output directory.

Exit codes: 0 success, 1 validation/run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .augment import AugmentConfig, ReplacementMap, augment_corpus, load_replacement_map
from .bench import bench_sampling
from .corpus import (
    CorpusFormatError,
    load_examples,
    load_tables,
    save_examples,
    save_tables,
    validate_corpus,
)
from .executor import execute
from .keyword_index import build_index
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .sampling import save_sample_sets
from .serialize import DEFAULT_BUDGET, serialize_input, tokenize
from .sketch import AggOp, CondOp, Condition, SqlSketch, render_sql
from .synth import SynthConfig, generate_bench_table, generate_synthetic_corpus
from .train import (
    Sampler,
    TrainConfig,
    compare_strategies,
    evaluate,
    parse_strategy,
    predict,
    save_predictions,
    save_report,
    train,
)

ENV_OUT_DIR = "NLSQL_OUT_DIR"


def _out_dir(args) -> Path:
    out = getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(args, directory: Path, started: float,
                   outputs: list[str]) -> Path:
    """One manifest per run: resolved config, seeds, input digests, version."""
    snapshot = {}
    inputs = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        snapshot[key] = str(value) if isinstance(value, Path) else value
        if key in ("data", "tables", "ckpt", "dev", "replacements", "config") \
                and value and Path(str(value)).is_file():
            inputs[str(value)] = _digest(value)
    manifest = {
        "subcommand": args.subcommand,
        "config": snapshot,
        "seed": snapshot.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "started": started,
        "finished": time.time(),
    }
    path = directory / f"{args.subcommand}.manifest.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return path


def _strategy(args, fallback: dict | None = None) -> tuple[str, int]:
    """``--strategy`` as ``strategy:k``, or a bare name that takes ``--k``.
    A flag left unset (None) takes its value from ``fallback``."""
    strategy = fallback["strategy"] if args.strategy is None else args.strategy
    if ":" in strategy:
        return parse_strategy(strategy)
    k = fallback["k"] if args.k is None else args.k
    return parse_strategy(f"{strategy}:{k}")


def _serving_strategy(args, checkpoint, default: str) -> tuple[str, int]:
    """``--strategy``/``--k``, defaulting to the strategy the checkpoint was
    trained with; ``default`` with k=3 only for a checkpoint that records
    none. The resolved values go back into ``args`` for the manifest."""
    trained = checkpoint.extra.get("train_config") \
        or {"strategy": default, "k": 3}
    args.strategy, args.k = _strategy(args, trained)
    return args.strategy, args.k


def _serving_budget(args, checkpoint) -> int:
    """``--budget``, defaulting to the checkpoint's ``max_positions``; a
    larger budget would fail in the encoder, so it is rejected up front."""
    limit = checkpoint.config.max_positions
    if args.budget is None:
        return limit
    if args.budget > limit:
        raise ValueError(f"--budget {args.budget} exceeds the checkpoint's "
                         f"max_positions {limit}")
    return args.budget


def _load_pair(args):
    corpus = load_examples(args.data, strict=not args.lenient)
    tables = load_tables(args.tables, strict=not args.lenient)
    return corpus, tables


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a process exit status)


def cmd_validate(args) -> int:
    corpus, tables = _load_pair(args)
    report = validate_corpus(corpus, tables)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_synth(args) -> int:
    started = time.time()
    config = SynthConfig(
        n_tables=args.n_tables, rows_per_table=args.rows,
        n_columns_min=args.cols_min, n_columns_max=args.cols_max,
        questions_per_table=args.questions, seed=args.seed,
    )
    corpus, tables = generate_synthetic_corpus(config)
    directory = _out_dir(args)
    data_path = directory / "corpus.jsonl"
    tables_path = directory / "tables.jsonl"
    save_examples(corpus, data_path)
    save_tables(tables, tables_path)
    manifest_path = directory / "archetypes.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(corpus.meta["archetypes"], handle, indent=2)
    write_manifest(args, directory, started,
                   [str(data_path), str(tables_path), str(manifest_path)])
    print(f"wrote {len(corpus.examples)} examples over {len(tables)} tables "
          f"to {directory}")
    return 0


def cmd_augment(args) -> int:
    started = time.time()
    corpus, tables = _load_pair(args)
    rmap = load_replacement_map(args.replacements) if args.replacements \
        else ReplacementMap()
    config = AugmentConfig(
        variants_per_example=args.variants,
        symbol_substitution_probability=args.symbol_prob,
        mix_ratio=args.mix_ratio,
        seed=args.seed,
    )
    augmented = augment_corpus(corpus, tables, config, rmap)
    directory = _out_dir(args)
    out_path = Path(args.out) if args.out else directory / "augmented.jsonl"
    save_examples(augmented, out_path)
    write_manifest(args, out_path.parent, started, [str(out_path)])
    stats = augmented.meta["augmentation"]
    print(f"wrote {len(augmented.examples)} examples "
          f"({stats['added']} added from a pool of {stats['pool']}) to {out_path}")
    return 0


def cmd_index(args) -> int:
    tables = load_tables(args.tables, strict=not args.lenient)
    selected = [args.table_id] if args.table_id else sorted(tables)
    for table_id in selected:
        if table_id not in tables:
            print(f"unknown table {table_id!r}", file=sys.stderr)
            return 1
        index = build_index(tables[table_id])
        print(f"{table_id}: {index.n_patterns} patterns over {index.n_cells} "
              f"cells, built in {index.build_seconds:.3f}s")
    return 0


def cmd_sample(args) -> int:
    started = time.time()
    tables = load_tables(args.tables, strict=not args.lenient)
    if args.table_id not in tables:
        print(f"unknown table {args.table_id!r}", file=sys.stderr)
        return 1
    table = tables[args.table_id]
    strategy, k = _strategy(args)
    sampler = Sampler(tables, strategy, k, args.seed)
    samples = sampler.sample_for(args.table_id, args.question or "")
    for col, values in enumerate(samples.columns):
        print(f"{table.schema.headers[col]}: {list(values)}")
    if args.out:
        save_sample_sets([samples], args.out)
        write_manifest(args, Path(args.out).parent, started, [args.out])
    return 0


def cmd_serialize(args) -> int:
    tables = load_tables(args.tables, strict=not args.lenient)
    if args.table_id not in tables:
        print(f"unknown table {args.table_id!r}", file=sys.stderr)
        return 1
    table = tables[args.table_id]
    strategy, k = _strategy(args)
    sampler = Sampler(tables, strategy, k, args.seed)
    samples = sampler.sample_for(args.table_id, args.question)
    serialized = serialize_input(tokenize(args.question), table.schema,
                                 samples, args.budget, question=args.question)
    print(serialized.render())
    seg_names = {0: "q", 1: "h", 2: "s", 3: "-"}
    print(" ".join(seg_names[s] for s in serialized.segments))
    print(" ".join(str(c) if c >= 0 else "." for c in serialized.columns))
    return 0


def cmd_train(args) -> int:
    started = time.time()
    corpus, tables = _load_pair(args)
    dev_corpus = load_examples(args.dev, split="dev") if args.dev else None
    strategy, k = _strategy(args)
    augment_config = None
    if args.augment:
        augment_config = AugmentConfig(mix_ratio=args.mix_ratio,
                                       symbol_substitution_probability=args.symbol_prob,
                                       seed=args.seed)
    train_config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        encoder_lr=args.encoder_lr, clip_norm=args.clip_norm,
        strategy=strategy, k=k, budget=args.budget,
        augment=augment_config, seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        stop_loss=args.stop_loss,
    )
    model_config = ModelConfig(
        vocab_size=1, d_model=args.d_model, n_layers=args.layers,
        n_heads=args.heads, dropout=args.dropout, max_positions=args.budget,
        seed=args.seed,
    )
    checkpoint, history = train(corpus, tables, train_config,
                                model_config=model_config, dev_corpus=dev_corpus)
    directory = _out_dir(args)
    ckpt_path = Path(args.out) if args.out else directory / "model.ckpt"
    save_checkpoint(ckpt_path, checkpoint)
    history_path = ckpt_path.with_suffix(".history.json")
    with open(history_path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
    write_manifest(args, ckpt_path.parent, started,
                   [str(ckpt_path), str(history_path)])
    final = history[-1]
    print(f"trained {train_config.epochs} epochs, final loss {final['loss']:.4f}, "
          f"checkpoint at {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    corpus, tables = _load_pair(args)
    checkpoint = load_checkpoint(args.ckpt)
    args.budget = _serving_budget(args, checkpoint)
    strategy, k = _serving_strategy(args, checkpoint, "rand")
    report = evaluate(checkpoint, corpus, tables, strategy, k,
                      budget=args.budget, seed=args.seed)
    print(report.render_text())
    directory = _out_dir(args)
    report_path = Path(args.out) if args.out else directory / "eval.json"
    save_report(report, report_path)
    predictions_path = report_path.with_suffix(".predictions.jsonl")
    save_predictions(report, predictions_path)
    write_manifest(args, report_path.parent, started,
                   [str(report_path), str(predictions_path)])
    return 0


def cmd_compare(args) -> int:
    started = time.time()
    corpus, tables = _load_pair(args)
    labels = [s.strip() for s in args.strategies.split(",") if s.strip()]
    checkpoint = load_checkpoint(args.ckpt)
    args.budget = _serving_budget(args, checkpoint)
    comparison = compare_strategies(checkpoint, corpus, tables, labels,
                                    budget=args.budget, seed=args.seed)
    print(comparison.render_text())
    directory = _out_dir(args)
    out_path = Path(args.out) if args.out else directory / "comparison.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(comparison.to_dict(), handle, indent=2)
    write_manifest(args, out_path.parent, started, [str(out_path)])
    return 0


def cmd_bench(args) -> int:
    started = time.time()
    sizes = [int(s) for s in args.rows.split(",") if s]
    strategy, k = _strategy(args)
    tables = [generate_bench_table(size, seed=args.seed) for size in sizes]
    report = bench_sampling(tables, strategy, k, n_queries=args.queries,
                            seed=args.seed, budget=args.budget)
    print(report.render_text())
    directory = _out_dir(args)
    out_path = Path(args.out) if args.out else directory / "bench.json"
    report.save(out_path)
    write_manifest(args, out_path.parent, started, [str(out_path)])
    return 0


def _parse_sketch_json(text: str) -> SqlSketch:
    record = json.loads(text)
    conds = tuple(
        Condition(int(col), CondOp(int(op)), str(value))
        for col, op, value in record.get("conds", [])
    )
    return SqlSketch(select_column=int(record["sel"]),
                     agg=AggOp(int(record.get("agg", 0))), conds=conds)


def cmd_render(args) -> int:
    tables = load_tables(args.tables, strict=not args.lenient)
    if args.table_id not in tables:
        print(f"unknown table {args.table_id!r}", file=sys.stderr)
        return 1
    sketch = _parse_sketch_json(args.sketch)
    print(render_sql(sketch, tables[args.table_id].schema))
    return 0


def cmd_repl(args) -> int:
    tables = load_tables(args.tables, strict=not args.lenient)
    if args.table_id not in tables:
        print(f"unknown table {args.table_id!r}", file=sys.stderr)
        return 1
    table = tables[args.table_id]
    checkpoint = load_checkpoint(args.ckpt)
    budget = _serving_budget(args, checkpoint)
    strategy, k = _serving_strategy(args, checkpoint, "rel")
    sampler = Sampler(tables, strategy, k, args.seed)
    print(f"table {args.table_id}: {', '.join(table.schema.headers)}")
    print("enter a question (EOF to quit)")
    for line in sys.stdin:
        question = line.strip()
        if not question:
            continue
        try:
            sketch = predict(checkpoint, sampler, table, question, budget)
            result = execute(sketch, table)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        print(render_sql(sketch, table.schema))
        shown = list(result.values[:10])
        suffix = " ..." if len(result.values) > 10 else ""
        print(f"-> {shown}{suffix}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common_io(sub, tables=True, data=False):
    if data:
        sub.add_argument("--data", required=True, help="examples jsonl")
    if tables:
        sub.add_argument("--tables", required=True, help="tables jsonl")
    sub.add_argument("--lenient", action="store_true",
                     help="skip malformed lines instead of failing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsql",
        description="search-style questions to single-table SQL",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add(name, handler, **kwargs):
        sub = subparsers.add_parser(name, **kwargs)
        sub.set_defaults(func=handler)
        sub.add_argument("--config", help="flat key = value config file")
        sub.add_argument("--out-dir", help=f"output directory (default ${ENV_OUT_DIR} or ./out)")
        sub.add_argument("--seed", type=int, default=0)
        return sub

    sub = add("validate", cmd_validate, help="check a corpus against its tables")
    _add_common_io(sub, data=True)

    sub = add("synth", cmd_synth, help="generate a synthetic corpus")
    sub.add_argument("--n-tables", type=int, default=8)
    sub.add_argument("--rows", type=int, default=8)
    sub.add_argument("--cols-min", type=int, default=3)
    sub.add_argument("--cols-max", type=int, default=5)
    sub.add_argument("--questions", type=int, default=8)

    sub = add("augment", cmd_augment, help="blend synthesized question variants")
    _add_common_io(sub, data=True)
    sub.add_argument("--out", help="output examples jsonl")
    sub.add_argument("--variants", type=int, default=8)
    sub.add_argument("--mix-ratio", type=float, default=0.5)
    sub.add_argument("--symbol-prob", type=float, default=0.5)
    sub.add_argument("--replacements", help="pattern<TAB>op<TAB>symbol file")

    sub = add("index", cmd_index, help="build and report a content index")
    _add_common_io(sub)
    sub.add_argument("--table-id")

    sub = add("sample", cmd_sample, help="draw content samples for one table")
    _add_common_io(sub)
    sub.add_argument("--table-id", required=True)
    sub.add_argument("--strategy", default="rand",
                     help="none|rand|rel|em1, optionally strategy:k")
    sub.add_argument("--k", type=int, default=3)
    sub.add_argument("--question", help="question text (rel/em1)")
    sub.add_argument("--out", help="sample-set sidecar jsonl")

    sub = add("serialize", cmd_serialize, help="debug-print a serialized input")
    _add_common_io(sub)
    sub.add_argument("--table-id", required=True)
    sub.add_argument("--question", required=True)
    sub.add_argument("--strategy", default="rand")
    sub.add_argument("--k", type=int, default=3)
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sub = add("train", cmd_train, help="train a model")
    _add_common_io(sub, data=True)
    sub.add_argument("--dev", help="dev examples jsonl")
    sub.add_argument("--out", help="checkpoint path")
    sub.add_argument("--epochs", type=int, default=50)
    sub.add_argument("--batch-size", type=int, default=16)
    sub.add_argument("--lr", type=float, default=1e-3)
    sub.add_argument("--encoder-lr", type=float, default=None)
    sub.add_argument("--clip-norm", type=float, default=1.0)
    sub.add_argument("--strategy", default="rand")
    sub.add_argument("--k", type=int, default=3)
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--augment", action="store_true",
                     help="blend synthesized variants into training data")
    sub.add_argument("--mix-ratio", type=float, default=0.5)
    sub.add_argument("--symbol-prob", type=float, default=0.5)
    sub.add_argument("--checkpoint-every", type=int, default=0)
    sub.add_argument("--stop-loss", type=float, default=None,
                     help="stop once epoch-mean loss reaches this value")
    sub.add_argument("--d-model", type=int, default=128)
    sub.add_argument("--layers", type=int, default=2)
    sub.add_argument("--heads", type=int, default=4)
    sub.add_argument("--dropout", type=float, default=0.0)

    sub = add("eval", cmd_eval, help="evaluate a checkpoint")
    _add_common_io(sub, data=True)
    sub.add_argument("--ckpt", required=True)
    sub.add_argument("--strategy", default=None,
                     help="default: the checkpoint's training strategy")
    sub.add_argument("--k", type=int, default=None,
                     help="default: the checkpoint's training k")
    sub.add_argument("--budget", type=int, default=None,
                     help="token budget (default: the checkpoint's max_positions)")
    sub.add_argument("--out", help="report json path")

    sub = add("compare", cmd_compare, help="evaluate strategies side by side")
    _add_common_io(sub, data=True)
    sub.add_argument("--ckpt", required=True)
    sub.add_argument("--strategies", default="none,rand:3,rel:3")
    sub.add_argument("--budget", type=int, default=None,
                     help="token budget (default: the checkpoint's max_positions)")
    sub.add_argument("--out", help="comparison json path")

    sub = add("bench", cmd_bench, help="benchmark sampling over a size ladder")
    sub.add_argument("--strategy", default="rel")
    sub.add_argument("--k", type=int, default=3)
    sub.add_argument("--rows", default="1000,100000",
                     help="comma-separated table sizes")
    sub.add_argument("--queries", type=int, default=100)
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--out", help="report json path")

    sub = add("render", cmd_render, help="render a sketch to canonical SQL")
    _add_common_io(sub)
    sub.add_argument("--table-id", required=True)
    sub.add_argument("--sketch", required=True,
                     help='JSON like {"sel":0,"agg":0,"conds":[[1,0,"bmw"]]}')

    sub = add("repl", cmd_repl, help="interactive question loop")
    _add_common_io(sub)
    sub.add_argument("--table-id", required=True)
    sub.add_argument("--ckpt", required=True)
    sub.add_argument("--strategy", default=None,
                     help="default: the checkpoint's training strategy")
    sub.add_argument("--k", type=int, default=None,
                     help="default: the checkpoint's training k")
    sub.add_argument("--budget", type=int, default=None,
                     help="token budget (default: the checkpoint's max_positions)")

    return parser


def _load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _coerce(raw: str, current_default):
    if isinstance(current_default, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(current_default, int) and not isinstance(current_default, bool):
        return int(raw)
    if isinstance(current_default, float):
        return float(raw)
    return raw


def _apply_config_defaults(parser, subparsers_map, argv) -> None:
    """Implement flags > config file > defaults by rewriting subparser
    defaults before the real parse."""
    subcommand = next((a for a in argv if not a.startswith("-")), None)
    if subcommand not in subparsers_map:
        return
    config_path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
    if config_path is None:
        return
    values = _load_config_file(config_path)
    sub = subparsers_map[subcommand]
    known = {action.dest: action.default for action in sub._actions}
    unknown = set(values) - set(known)
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    sub.set_defaults(**{
        key: _coerce(raw, known[key]) for key, raw in values.items()
    })


def cli_dispatch(argv) -> int:
    parser = build_parser()
    subparsers_map = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers_map = action.choices
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _apply_config_defaults(parser, subparsers_map, list(argv))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CorpusFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
