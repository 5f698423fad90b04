"""Command-line entry point tying the pipeline together.

Subcommands: validate, synth, augment, index, sample, serialize, train,
eval, compare, bench, render, repl. Configuration precedence is flags >
config file > defaults; the config file is flat ``key = value`` text using
the flag destination names (e.g. ``epochs = 300``). Each handler returns the
paths it wrote, and ``cli_dispatch`` writes a run manifest next to the first
of them, so every run that writes outputs is recorded. ``NLSQL_OUT_DIR`` sets
the default output directory.

Exit codes: 0 success, 1 validation/run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

from . import __version__
from .augment import AugmentConfig, ReplacementMap, augment_corpus, load_replacement_map
from .bench import bench_sampling
from .corpus import (
    load_examples,
    load_tables,
    save_examples,
    save_tables,
    sketch_from_record,
    validate_corpus,
    write_json,
    write_jsonl,
)
from .executor import execute
from .keyword_index import build_index
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .serialize import DEFAULT_BUDGET, SEGMENT_LETTERS, serialize_input, tokenize
from .sketch import SqlSketch, render_sql
from .synth import SynthConfig, generate_bench_table, generate_synthetic_corpus
from .train import (
    FIXED_K,
    Sampler,
    TrainConfig,
    compare_strategies,
    evaluate,
    parse_strategy,
    predict,
    train,
)

ENV_OUT_DIR = "NLSQL_OUT_DIR"


def _out_dir(args) -> Path:
    out = getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _out_path(args, name: str) -> Path:
    """``--out``, or ``name`` in the output directory when it is absent."""
    return Path(args.out) if args.out else _out_dir(args) / name


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(args, started: float, outputs: list[Path]) -> None:
    """One manifest per run, beside its first output: resolved config, seeds,
    input digests, outputs, version and the peak resident set so far."""
    config = {key: value for key, value in sorted(vars(args).items())
              if key != "func"}
    inputs = {value: _digest(value) for key, value in config.items()
              if key in ("data", "tables", "ckpt", "replacements", "config")
              and value and Path(value).is_file()}
    write_json({
        "subcommand": args.subcommand,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs,
        "outputs": [str(path) for path in outputs],
        "version": __version__,
        "started": started,
        "finished": time.time(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, outputs[0].parent / f"{args.subcommand}.manifest.json")


def _strategy(args, checkpoint=None, default: str = "rand") -> tuple[str, int]:
    """``--strategy``, a ``name[:k]`` label; unset, the strategy and k the
    checkpoint was trained with, or ``default`` for a checkpoint that
    records none. The resolved label goes back into ``args`` for the
    manifest."""
    label = args.strategy
    if label is None:
        trained = checkpoint.extra.get("train_config", {})
        label = str(trained.get("strategy", default))
        # none and em1 serve a fixed k; older checkpoints record k=3 beside them
        if "k" in trained and label not in FIXED_K:
            label = f"{label}:{trained['k']}"
    strategy, k = parse_strategy(label)
    args.strategy = f"{strategy}:{k}"
    return strategy, k


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


def _table(args, tables):
    """The table ``--table-id`` names."""
    if args.table_id not in tables:
        raise ValueError(f"unknown table {args.table_id!r}")
    return tables[args.table_id]


def _load_pair(args):
    corpus = load_examples(args.data, strict=not args.lenient)
    tables = load_tables(args.tables, strict=not args.lenient)
    return corpus, tables


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the paths it wrote, if any)


def cmd_validate(args) -> None:
    corpus, tables = _load_pair(args)
    report = validate_corpus(corpus, tables)
    print(report.summary())
    if not report.ok:
        raise ValueError(f"{len(report.violations)} violations")


def cmd_synth(args) -> list[Path]:
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
    archetypes_path = directory / "archetypes.json"
    with open(archetypes_path, "w", encoding="utf-8") as handle:
        json.dump(corpus.meta["archetypes"], handle, indent=2)
    print(f"wrote {len(corpus.examples)} examples over {len(tables)} tables "
          f"to {directory}")
    return [data_path, tables_path, archetypes_path]


def cmd_augment(args) -> list[Path]:
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
    out_path = _out_path(args, "augmented.jsonl")
    save_examples(augmented, out_path)
    stats = augmented.meta["augmentation"]
    print(f"wrote {len(augmented.examples)} examples "
          f"({stats['added']} added from a pool of {stats['pool']}) to {out_path}")
    return [out_path]


def cmd_index(args) -> None:
    tables = load_tables(args.tables, strict=not args.lenient)
    selected = [_table(args, tables)] if args.table_id \
        else [tables[table_id] for table_id in sorted(tables)]
    for table in selected:
        started = time.perf_counter()
        index = build_index(table)
        seconds = time.perf_counter() - started
        n_cells = sum(n for column in table.columns
                      for cell, n in zip(column.codebook, column.counts.tolist())
                      if cell.strip())
        print(f"{table.table_id}: {index.n_patterns} patterns over "
              f"{n_cells} cells, built in {seconds:.3f}s")


def _table_samples(args):
    """The ``--table-id`` table and its samples for ``--question``."""
    tables = load_tables(args.tables, strict=not args.lenient)
    table = _table(args, tables)
    strategy, k = _strategy(args)
    sampler = Sampler(tables, strategy, k, args.seed)
    return table, sampler.sample_for(args.table_id, args.question or "")


def cmd_sample(args) -> list[Path] | None:
    table, samples = _table_samples(args)
    for col, values in enumerate(samples.columns):
        print(f"{table.schema.headers[col]}: {list(values)}")
    if args.out:
        write_jsonl([{"table_id": samples.table_id, "strategy": args.strategy,
                      "seed": args.seed,
                      "columns": [list(c) for c in samples.columns]}], args.out)
        return [Path(args.out)]


def cmd_serialize(args) -> None:
    table, samples = _table_samples(args)
    serialized = serialize_input(tokenize(args.question), table.schema,
                                 samples, args.budget, question=args.question)
    print(serialized.render())
    print(" ".join(SEGMENT_LETTERS[s] for s in serialized.segments))
    print(" ".join(str(c) if c >= 0 else "." for c in serialized.columns))


def cmd_train(args) -> list[Path]:
    corpus, tables = _load_pair(args)
    strategy, k = _strategy(args)
    augment_config = None
    if args.augment:
        augment_config = AugmentConfig(mix_ratio=args.mix_ratio,
                                       symbol_substitution_probability=args.symbol_prob,
                                       seed=args.seed)
    train_config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        clip_norm=args.clip_norm, strategy=strategy, k=k, budget=args.budget,
        augment=augment_config, seed=args.seed, stop_loss=args.stop_loss,
    )
    model_config = ModelConfig(
        vocab_size=1, d_model=args.d_model, n_layers=args.layers,
        n_heads=args.heads, max_positions=args.budget,
        seed=args.seed,
    )
    checkpoint, history = train(corpus, tables, train_config,
                                model_config=model_config)
    ckpt_path = _out_path(args, "model.ckpt")
    save_checkpoint(ckpt_path, checkpoint)
    history_path = ckpt_path.with_suffix(".history.json")
    with open(history_path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)
    final = history[-1]
    print(f"trained {len(history)} epochs, final loss {final['loss']:.4f}, "
          f"checkpoint at {ckpt_path}")
    return [ckpt_path, history_path]


def cmd_eval(args) -> list[Path]:
    corpus, tables = _load_pair(args)
    checkpoint = load_checkpoint(args.ckpt)
    args.budget = _serving_budget(args, checkpoint)
    strategy, k = _strategy(args, checkpoint)
    report = evaluate(checkpoint, corpus, tables, strategy, k,
                      budget=args.budget, seed=args.seed)
    print(report.render_text())
    report_path = _out_path(args, "eval.json")
    write_json(report.to_dict(), report_path)
    predictions_path = report_path.with_suffix(".predictions.jsonl")
    write_jsonl(report.predictions, predictions_path)
    return [report_path, predictions_path]


def cmd_compare(args) -> list[Path]:
    labels = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not labels:
        raise ValueError("--strategies: no strategy given")
    corpus, tables = _load_pair(args)
    checkpoint = load_checkpoint(args.ckpt)
    args.budget = _serving_budget(args, checkpoint)
    comparison = compare_strategies(checkpoint, corpus, tables, labels,
                                    budget=args.budget, seed=args.seed)
    print(comparison.render_text())
    out_path = _out_path(args, "comparison.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(comparison.to_dict(), handle, indent=2)
    return [out_path]


def cmd_bench(args) -> list[Path]:
    sizes = [int(s) if s.strip().isdecimal() else 0 for s in args.rows.split(",") if s]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--rows: expected comma-separated table sizes of at "
                         f"least 1, got {args.rows!r}")
    strategy, k = _strategy(args)
    tables = [generate_bench_table(size, seed=args.seed) for size in sizes]
    report = bench_sampling(tables, strategy, k, n_queries=args.queries,
                            seed=args.seed, budget=args.budget)
    print(report.render_text())
    out_path = _out_path(args, "bench.json")
    report.save(out_path)
    return [out_path]


def _parse_sketch_json(text: str) -> SqlSketch:
    try:
        record = json.loads(text)
        if not isinstance(record, dict):
            raise TypeError("expected a JSON object")
        return sketch_from_record({"agg": 0, **record})
    except KeyError as exc:
        raise ValueError(f"--sketch: missing key {exc}") from None
    except (OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"--sketch: {exc}") from None


def cmd_render(args) -> None:
    table = _table(args, load_tables(args.tables, strict=not args.lenient))
    sketch = _parse_sketch_json(args.sketch)
    print(render_sql(sketch, table.schema))


def cmd_repl(args) -> None:
    tables = load_tables(args.tables, strict=not args.lenient)
    table = _table(args, tables)
    checkpoint = load_checkpoint(args.ckpt)
    budget = _serving_budget(args, checkpoint)
    strategy, k = _strategy(args, checkpoint, "rel")
    sampler = Sampler(tables, strategy, k, args.seed)
    print(f"table {args.table_id}: {', '.join(table.schema.headers)}")
    print("enter a question (EOF to quit)")
    # Bytes, decoded line by line: an undecodable line is one error, not the end.
    for lineno, line in enumerate(sys.stdin.buffer, start=1):
        try:
            question = line.decode("utf-8").strip()
        except UnicodeDecodeError:
            print(f"error: line {lineno}: not UTF-8", file=sys.stderr)
            continue
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


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common_io(sub, data=False):
    if data:
        sub.add_argument("--data", required=True, help="examples jsonl")
    sub.add_argument("--tables", required=True, help="tables jsonl")
    sub.add_argument("--lenient", action="store_true",
                     help="skip malformed lines instead of failing")


def _add_strategy(sub, default, help=None):
    sub.add_argument("--strategy", default=default,
                     help=help or "none, rand[:k], rel[:k] or em1; k defaults to 3")


def _add_serving(sub, strategy=True):
    """Serving flags, each defaulting to what the checkpoint records."""
    if strategy:
        _add_strategy(sub, None, help="default: the checkpoint's training "
                                      "strategy and k, as name:k")
    sub.add_argument("--budget", type=int, default=None,
                     help="token budget (default: the checkpoint's max_positions)")


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
        sub.add_argument("--log-level", default="warning",
                         help="debug, info, warning or error (default "
                              "warning); info shows each training epoch")
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
    sub.add_argument("--variants", type=int,
                     default=AugmentConfig.variants_per_example)
    sub.add_argument("--mix-ratio", type=float, default=AugmentConfig.mix_ratio)
    sub.add_argument("--symbol-prob", type=float,
                     default=AugmentConfig.symbol_substitution_probability)
    sub.add_argument("--replacements", help="pattern<TAB>op<TAB>symbol file")

    sub = add("index", cmd_index, help="build and report a content index")
    _add_common_io(sub)
    sub.add_argument("--table-id")

    sub = add("sample", cmd_sample, help="draw content samples for one table")
    _add_common_io(sub)
    sub.add_argument("--table-id", required=True)
    _add_strategy(sub, "rand")
    sub.add_argument("--question", help="question text (rel/em1)")
    sub.add_argument("--out", help="sample-set sidecar jsonl")

    sub = add("serialize", cmd_serialize, help="debug-print a serialized input")
    _add_common_io(sub)
    sub.add_argument("--table-id", required=True)
    sub.add_argument("--question", required=True)
    _add_strategy(sub, "rand")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sub = add("train", cmd_train, help="train a model")
    _add_common_io(sub, data=True)
    sub.add_argument("--out", help="checkpoint path")
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sub.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    sub.add_argument("--lr", type=float, default=TrainConfig.lr)
    sub.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm,
                     help="0 turns clipping off")
    _add_strategy(sub, "rand")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--augment", action="store_true",
                     help="blend synthesized variants into training data")
    sub.add_argument("--mix-ratio", type=float, default=AugmentConfig.mix_ratio)
    sub.add_argument("--symbol-prob", type=float,
                     default=AugmentConfig.symbol_substitution_probability)
    sub.add_argument("--stop-loss", type=float, default=None,
                     help="stop once epoch-mean loss reaches this value")
    sub.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    sub.add_argument("--layers", type=int, default=ModelConfig.n_layers)
    sub.add_argument("--heads", type=int, default=ModelConfig.n_heads)

    sub = add("eval", cmd_eval, help="evaluate a checkpoint")
    _add_common_io(sub, data=True)
    sub.add_argument("--ckpt", required=True)
    _add_serving(sub)
    sub.add_argument("--out", help="report json path")

    sub = add("compare", cmd_compare, help="evaluate strategies side by side")
    _add_common_io(sub, data=True)
    sub.add_argument("--ckpt", required=True)
    sub.add_argument("--strategies", default="none,rand:3,rel:3")
    _add_serving(sub, strategy=False)
    sub.add_argument("--out", help="comparison json path")

    sub = add("bench", cmd_bench, help="benchmark sampling over a size ladder")
    _add_strategy(sub, "rel")
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
    _add_serving(sub)

    return parser


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _load_config_file(path) -> dict[str, tuple[int, str]]:
    """``key -> (line number, raw value)`` from a flat ``key = value`` file."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = list(handle)
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"{path}: cannot read config file: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        values[key.strip().replace("-", "_")] = (lineno, raw.strip())
    return values


def _coerce(raw: str, action: argparse.Action):
    """A config value parsed as its flag would parse it; a switch takes only
    the words in ``_BOOL_WORDS``."""
    if isinstance(action.default, bool):
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected one of {', '.join(_BOOL_WORDS)}, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    return action.type(raw) if action.type else raw


def _apply_config_defaults(parser, subparsers_map, argv) -> None:
    """Implement flags > config file > defaults by rewriting subparser
    defaults before the real parse. A malformed file raises ValueError
    naming its line."""
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
    actions = {action.dest: action for action in sub._actions}
    unknown = set(values) - set(actions)
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    defaults = {}
    for key, (lineno, raw) in values.items():
        try:
            defaults[key] = _coerce(raw, actions[key])
        except ValueError as exc:
            raise ValueError(f"{config_path}:{lineno}: {key}: {exc}") from exc
    sub.set_defaults(**defaults)


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
    except ValueError as exc:  # a malformed --config file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 2
    if getattr(args, "budget", None) is not None and args.budget < 1:
        print(f"error: --budget: must be at least 1, got {args.budget}",
              file=sys.stderr)
        return 1
    level = logging.getLevelName(args.log_level.upper())
    if not isinstance(level, int):
        print(f"error: unknown --log-level {args.log_level!r}", file=sys.stderr)
        return 1
    # The package's records go to stderr for this command only.
    package = logging.getLogger(__package__)
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    previous = package.level
    package.addHandler(handler)
    package.setLevel(level)
    started = time.time()
    try:
        outputs = args.func(args)
        if outputs:
            write_manifest(args, started, outputs)
        return 0
    except OSError as exc:  # a missing or unreadable file, or a directory
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # CorpusFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package.removeHandler(handler)
        package.setLevel(previous)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
