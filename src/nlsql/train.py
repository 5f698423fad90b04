"""Training loop, metric computation, and strategy comparison.

Training runs mini-batch Adam, at one learning rate for every block, over
the summed head losses with optional gradient clipping. Examples whose gold
where-value has no span in the question are dropped from training (and
counted); evaluation keeps every example.

A sampling strategy is named by one label, ``name[:k]`` with the names
none / rand / rel / em1, here and on the CLI (``parse_strategy``); "rand:k"
samples are drawn once per table and shared across questions.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentConfig, augment_corpus
from .corpus import Corpus, example_table
from .executor import ex_equal
from .keyword_index import build_index
from .model import (
    Checkpoint,
    Features,
    Gradients,
    ModelConfig,
    decode_sketch,
    encode,
    example_loss,
    example_loss_and_grads,
    init_params,
    make_target,
    predict_heads,
    prepare_features,
)
from .sampling import (
    SampleSet,
    sample_exact_match_one,
    sample_random,
    sample_relevance,
)
from .serialize import DEFAULT_BUDGET, BudgetError, serialize_input, tokenize
from .sketch import MAX_CONDS, SqlSketch, Table, lf_equal, render_sql
from .util import child_rng, normalize_value
from .vocab import VOCAB_MAX_SIZE, Vocab

logger = logging.getLogger(__name__)

STRATEGIES = ("none", "rand", "rel", "em1")
# none serves no samples and em1 at most one per column, whatever k says
FIXED_K = {"none": 0, "em1": 1}


def parse_strategy(label: str) -> tuple[str, int]:
    """Parse a ``name[:k]`` label such as "rel:3", "rand" or "none" into
    (strategy, k). A bare rand or rel takes k=3; none and em1 take the k
    they serve, 0 and 1, and accept no other."""
    name, colon, k_text = label.partition(":")
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGIES}")
    if colon and not k_text.isdecimal():
        raise ValueError(f"strategy {label!r}: k must be a whole number >= 0")
    k = int(k_text) if colon else FIXED_K.get(name, 3)
    if k != FIXED_K.get(name, k):
        raise ValueError(f"strategy {label!r}: {name} serves k={FIXED_K[name]} only")
    return name, k


class Sampler:
    """Strategy-dispatching sample provider with per-table caching."""

    def __init__(self, tables: dict[str, Table], strategy: str, k: int,
                 seed: int = 0):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.tables = tables
        self.strategy = strategy
        self.k = FIXED_K.get(strategy, k)
        self.seed = seed
        self._indexes = {}
        self._random_sets = {}

    def index_for(self, table_id: str):
        if table_id not in self._indexes:
            self._indexes[table_id] = build_index(self.tables[table_id])
        return self._indexes[table_id]

    def sample_for(self, table_id: str, question: str) -> SampleSet:
        table = self.tables[table_id]
        if self.strategy in ("none", "rand"):
            if table_id not in self._random_sets:
                self._random_sets[table_id] = sample_random(table, self.k, self.seed)
            return self._random_sets[table_id]
        index = self.index_for(table_id)
        if self.strategy == "rel":
            return sample_relevance(table, index, question, self.k, self.seed)
        return sample_exact_match_one(table, index, question)


def _question_features(table: Table, question: str, sampler: Sampler,
                       vocab: Vocab, budget: int) -> Features:
    samples = sampler.sample_for(table.table_id, question)
    serialized = serialize_input(tokenize(question), table.schema, samples,
                                 budget, question=question)
    return prepare_features(serialized, vocab)


def build_features(example, table: Table, sampler: Sampler, vocab: Vocab,
                   budget: int) -> Features:
    return _question_features(table, example.question, sampler, vocab, budget)


def predict(checkpoint: Checkpoint, sampler: Sampler, table: Table,
            question: str, budget: int) -> SqlSketch:
    """Sample, serialize, encode, run the heads and decode one question.

    Raises ``BudgetError`` when the question and headers do not fit
    ``budget``.
    """
    feats = _question_features(table, question, sampler, checkpoint.vocab,
                               budget)
    cfg = checkpoint.config
    enc, _ = encode(feats, checkpoint.params, cfg)
    logits, _ = predict_heads(enc, checkpoint.params, cfg)
    return decode_sketch(logits, table.schema, feats.question,
                         feats.question_spans)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    lr: float = 1e-3
    clip_norm: float = 1.0  # 0 turns clipping off
    strategy: str = "rand"
    k: int = 3
    budget: int = DEFAULT_BUDGET
    augment: AugmentConfig | None = None
    seed: int = 0
    # stop once the epoch-mean loss reaches this value; None trains all epochs.
    # Comparisons between models should share one threshold so nobody trains
    # deep into memorization.
    stop_loss: float | None = None
    vocab_max_size = VOCAB_MAX_SIZE  # unannotated, so not a field

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (0 <= self.lr < math.inf and self.clip_norm >= 0):
            raise ValueError("lr and clip_norm must be >= 0, and lr finite "
                             "(a clip_norm of 0 turns clipping off)")


# Adam's moment decays and epsilon, Kingma & Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Dense Adam (Kingma & Ba, arXiv 1412.6980) over every parameter block.

    A step runs over the rows of each block that ``Gradients.rows`` names:
    an embedding block's live rows, every row of any other block. A row that
    has never had a gradient has zero moments, and dense Adam leaves it as it
    is, so skipping it changes no bit; once live, a row stays in every step,
    because its moments decay but do not return to zero.
    """

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        # One buffer the size of the largest block; each block's update and
        # its square for the gradient norm run through a view of it instead
        # of full-size temporaries.
        self.scratch = np.empty(max(v.size for v in params.values()))

    def step(self, params, grads: Gradients, cfg: TrainConfig):
        """One update of every block in ``grads``, in place.

        ``grads`` must be the one ``Gradients`` of the whole run, so that its
        live rows cover every row with nonzero moments. The operations are
        those of the textbook expression, in its order, so the result is
        bit-identical to it. The gradient blocks are used as scratch and hold
        no gradient afterwards.
        """
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1 ** self.t
        bias2 = 1.0 - ADAM_BETA2 ** self.t
        for name, g in grads.items():
            # Indexed by every row, each read is a view and each write-back
            # below assigns a view to itself, which numpy skips.
            rows = grads.rows(name)
            p, m, v = params[name][rows], self.m[name][rows], self.v[name][rows]
            g = g[rows]
            s = self.scratch[:g.size].reshape(g.shape)
            np.multiply(g, 1 - ADAM_BETA2, out=s)  # v = b2*v + ((1-b2)*g)*g
            s *= g
            v *= ADAM_BETA2
            v += s
            g *= 1 - ADAM_BETA1  # m = b1*m + (1-b1)*g
            m *= ADAM_BETA1
            m += g
            np.divide(v, bias2, out=s)  # s = sqrt(v_hat) + eps
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, bias1, out=g)  # p -= (lr*m_hat) / s
            g *= cfg.lr
            g /= s
            p -= g
            params[name][rows], self.m[name][rows], self.v[name][rows] = p, m, v


def clip_gradients(grads: Gradients, max_norm: float, scratch: np.ndarray) -> float:
    """Scale ``grads`` in place to a global norm of at most ``max_norm`` (0
    turns clipping off) and return the norm before clipping. Each block's
    rows that can be nonzero (``Gradients.rows``) are squared into a view of
    ``scratch``, at least as large as the largest block, and summed."""
    total = 0.0
    for name, g in grads.items():
        rows = grads.rows(name)
        if isinstance(rows, slice):
            square = scratch[:g.size].reshape(g.shape)
            np.multiply(g, g, out=square)
        else:
            square = scratch[:len(rows) * g.shape[1]].reshape(len(rows), g.shape[1])
            np.take(g, rows, axis=0, out=square)
            square *= square
        total += float(np.sum(square))
    total = float(np.sqrt(total))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for name, g in grads.items():
            g[grads.rows(name)] *= scale
    return total


# A diverging run ends with the non-finite loss error below, not with numpy's
# overflow warnings ahead of it.
@np.errstate(over="ignore", invalid="ignore")
def train(corpus: Corpus, tables: dict[str, Table], config: TrainConfig,
          model_config: ModelConfig | None = None):
    """Train a model; returns (Checkpoint, history).

    ``model_config.vocab_size`` is always replaced with the size of the vocab
    built from the (possibly augmented) corpus and tables. History rows carry
    per-epoch mean loss and task breakdown, the largest gradient norm before
    clipping and the number of clipped steps. An epoch whose mean loss is
    not finite raises ``ValueError``, and so does a first example whose loss
    is not finite after the last step.
    """
    if not corpus.examples:
        raise ValueError("cannot train on an empty corpus")
    if config.augment is not None:
        corpus = augment_corpus(corpus, tables, config.augment)

    vocab = Vocab.build(corpus, tables)
    if model_config is None:
        model_config = ModelConfig(vocab_size=len(vocab), seed=config.seed)
    else:
        model_config = dataclasses.replace(model_config, vocab_size=len(vocab))

    sampler = Sampler(tables, config.strategy, config.k, config.seed)
    counters: Counter = Counter()
    prepared = []
    for i, example in enumerate(corpus.examples):
        table = example_table(i, example, tables)
        try:
            feats = build_features(example, table, sampler, vocab, config.budget)
        except BudgetError:
            counters["over_budget"] += 1
            continue
        target, ambiguous = make_target(example.gold, feats, MAX_CONDS)
        if target is None:
            counters["unalignable"] += 1
            continue
        if ambiguous:
            counters["ambiguous_value_span"] += 1
        prepared.append((feats, target))
    if not prepared:
        raise ValueError("no trainable examples after alignment filtering")
    counters["trainable"] = len(prepared)

    params = init_params(model_config)
    adam = AdamState(params)
    grads = Gradients()
    history: list[dict] = []

    for epoch in range(config.epochs):
        order = list(range(len(prepared)))
        child_rng("train", config.seed, "epoch", epoch).shuffle(order)
        epoch_loss = 0.0
        epoch_breakdown: Counter = Counter()
        grad_norm_max = 0.0
        clipped_steps = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads.zero()
            for idx in batch:
                feats, target = prepared[idx]
                loss, breakdown, _ = example_loss_and_grads(
                    params, model_config, feats, target, grads=grads)
                epoch_loss += loss
                epoch_breakdown.update(breakdown)
            for name, g in grads.items():
                g[grads.rows(name)] /= len(batch)
            grad_norm = clip_gradients(grads, config.clip_norm, adam.scratch)
            grad_norm_max = max(grad_norm_max, grad_norm)
            clipped_steps += 0 < config.clip_norm < grad_norm
            adam.step(params, grads, config)

        row = {"epoch": epoch, "loss": epoch_loss / len(prepared)}
        if not math.isfinite(row["loss"]):
            raise ValueError(f"epoch {epoch}: mean loss is {row['loss']}; "
                             f"a smaller lr may train")
        row.update({
            f"loss_{k}": v / len(prepared) for k, v in sorted(epoch_breakdown.items())
        })
        row["grad_norm_max"] = grad_norm_max
        row["clipped_steps"] = clipped_steps
        history.append(row)
        logger.info("epoch %d: loss %.4f", epoch, row["loss"])
        if config.stop_loss is not None and row["loss"] <= config.stop_loss:
            break
    # The epoch losses come before each step, so none has seen the last one.
    final_loss = example_loss(params, model_config, *prepared[0])
    if not math.isfinite(final_loss):
        raise ValueError(f"the loss after the last step is {final_loss}; a smaller lr may train")

    checkpoint = Checkpoint(
        config=model_config,
        vocab=vocab,
        params=params,
        extra={
            "train_config": dataclasses.asdict(config),
            "counters": dict(counters),
        },
    )
    return checkpoint, history


# ---------------------------------------------------------------------------
# Evaluation

SUBTASKS = ("sel", "agg", "wnum", "wcol", "wop", "wval")


@dataclass
class EvalReport:
    n: int
    lf_accuracy: float
    ex_accuracy: float
    subtask_accuracy: dict[str, float]
    counts: dict[str, int]
    predictions: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lf": self.lf_accuracy,
            "ex": self.ex_accuracy,
            "subtasks": self.subtask_accuracy,
            "counts": self.counts,
        }

    def render_text(self) -> str:
        parts = [f"n={self.n}", f"LF={self.lf_accuracy:.3f}",
                 f"EX={self.ex_accuracy:.3f}"]
        parts += [f"{k}={v:.3f}" for k, v in self.subtask_accuracy.items()]
        return "  ".join(parts)


def _subtask_match(pred: SqlSketch, gold: SqlSketch) -> dict[str, bool]:
    return {
        "sel": pred.select_column == gold.select_column,
        "agg": pred.agg == gold.agg,
        "wnum": len(pred.conds) == len(gold.conds),
        "wcol": {c.column_index for c in pred.conds}
                == {c.column_index for c in gold.conds},
        "wop": Counter((c.column_index, int(c.op)) for c in pred.conds)
               == Counter((c.column_index, int(c.op)) for c in gold.conds),
        "wval": Counter((c.column_index, normalize_value(c.value)) for c in pred.conds)
                == Counter((c.column_index, normalize_value(c.value)) for c in gold.conds),
    }


def evaluate(checkpoint: Checkpoint, corpus: Corpus, tables: dict[str, Table],
             strategy: str, k: int, budget: int = DEFAULT_BUDGET, seed: int = 0) -> EvalReport:
    """Sample, serialize, encode, decode, and score every example.

    Per-example LF implies EX by the executor's contract; a violation would
    indicate an engine bug and raises immediately.
    """
    if not corpus.examples:
        raise ValueError("cannot evaluate an empty corpus")
    sampler = Sampler(tables, strategy, k, seed)
    counts: Counter = Counter()
    lf_hits = 0
    ex_hits = 0
    subtask_hits: Counter = Counter()
    predictions = []
    for i, example in enumerate(corpus.examples):
        table = example_table(i, example, tables)
        try:
            pred = predict(checkpoint, sampler, table, example.question, budget)
        except BudgetError:
            counts["over_budget"] += 1
            pred = SqlSketch(select_column=0)
        lf = lf_equal(pred, example.gold)
        ex = ex_equal(pred, example.gold, table)
        if lf and not ex:
            raise AssertionError(
                f"example {i}: logical match without execution match"
            )
        lf_hits += lf
        ex_hits += ex
        for name, hit in _subtask_match(pred, example.gold).items():
            subtask_hits[name] += hit
        predictions.append({
            "index": i,
            "question": example.question,
            "table_id": example.table_id,
            "pred_sql": render_sql(pred, table.schema),
            "gold_sql": render_sql(example.gold, table.schema),
            "lf": bool(lf),
            "ex": bool(ex),
        })
    n = len(corpus.examples)
    return EvalReport(
        n=n,
        lf_accuracy=lf_hits / n,
        ex_accuracy=ex_hits / n,
        subtask_accuracy={name: subtask_hits[name] / n for name in SUBTASKS},
        counts=dict(counts),
        predictions=predictions,
    )


# ---------------------------------------------------------------------------
# Strategy comparison


@dataclass
class Comparison:
    rows: list[dict]

    def render_text(self) -> str:
        columns = ["strategy", "n", "lf", "ex"] + list(SUBTASKS)
        widths = {c: max(len(c), 8) for c in columns}
        lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
        for row in self.rows:
            cells = []
            for c in columns:
                value = row[c]
                text = f"{value:.3f}" if isinstance(value, float) else str(value)
                cells.append(text.ljust(widths[c]))
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"rows": self.rows}


def compare_strategies(checkpoint: Checkpoint, corpus: Corpus,
                       tables: dict[str, Table], strategies, budget: int = DEFAULT_BUDGET,
                       seed: int = 0) -> Comparison:
    """Evaluate one checkpoint under each strategy, a list of labels like
    "none", "rand:3", "rel:3"."""
    rows = []
    for label in strategies:
        strategy, k = parse_strategy(label)
        report = evaluate(checkpoint, corpus, tables, strategy, k,
                          budget=budget, seed=seed)
        row = {"strategy": label, "n": report.n, "lf": report.lf_accuracy,
               "ex": report.ex_accuracy}
        row.update(report.subtask_accuracy)
        rows.append(row)
    return Comparison(rows)
