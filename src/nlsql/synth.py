"""Deterministic synthetic mini-corpora for desk-scale training and tests.

Tables are built from archetype value pools (person names, brands, small
integers, years, categories). Every generated question is anchored to a real
row, so its gold sketch always executes to a non-empty result, and every
condition value appears verbatim in the question text (span supervision
needs that alignment).

Each sketch is emitted as an adjacent pair of examples: a verbose,
sentence-style question followed by a short keyword-style one, tagged via
``Example.style``. The archetype layout of every table is recorded in
``corpus.meta["archetypes"]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .augment import AGG_WORDS, ReplacementMap
from .corpus import Corpus
from .sketch import (
    AggOp,
    CondOp,
    Condition,
    Example,
    SqlSketch,
    Table,
    TableSchema,
)
from .util import child_rng, normalize_value

DEFAULT_POOLS: dict[str, tuple[str, ...]] = {
    "person": tuple(
        f"{first} {last}"
        for first, last in zip(
            [
                "Maria", "Nicolas", "Rafael", "Novak", "Jarkko", "Stevie",
                "Mike", "Ana", "Carlos", "Elena", "Juan", "Sofia", "Pedro",
                "Lena", "Marco", "Ivy", "Oscar", "Nina", "Hugo", "Tara",
                "Felix", "Wanda", "Boris", "Celia", "Dario", "Greta",
                "Pablo", "Edith", "Ramon", "Alice", "Viktor", "Paula",
            ],
            [
                "Herrera", "Terol", "Nadal", "Djokovic", "Nieminen", "Bonsey",
                "Meglio", "Santos", "Keller", "Ibarra", "Fontaine", "Moreau",
                "Akimoto", "Kovacs", "Rossi", "Lindgren", "Duarte", "Petrov",
                "Silva", "Jansen", "Okafor", "Braun", "Castillo", "Novotny",
                "Marchetti", "Olsen", "Vargas", "Klein", "Fuentes", "Weber",
                "Sokolov", "Mendes",
            ],
        )
    ),
    "brand": (
        "Derbi", "Honda", "KTM", "Aprilia", "Yamaha", "Gilera", "BMW",
        "Ducati", "Suzuki", "Vespa", "Norton", "Triumph", "Zenith", "Orbit",
        "Vertex", "Quasar", "Falcon", "Comet",
    ),
    "category": (
        "winner", "runner-up", "finalist", "clay", "grass", "hard", "carpet",
        "NHL", "MLB", "NBA", "MLS", "male", "female", "gold", "silver",
        "bronze", "active", "retired", "north", "south", "east", "west",
    ),
    "int_small": tuple(str(i) for i in range(501)),
    "year": tuple(str(y) for y in range(1950, 2025)),
}

ARCHETYPE_HEADERS = {
    "person": ("Player", "Rider", "Driver", "Winner", "Coach", "Artist", "Owner"),
    "brand": ("Manufacturer", "Team", "Sponsor", "Brand", "Make"),
    "category": ("Result", "Court", "League", "Gender", "Status", "Division", "Medal"),
    "int_small": ("Laps", "Grid", "Points", "Jersey", "Wins", "Losses", "Goals"),
    "year": ("Year", "Season"),
}

TEXT_ARCHETYPES = ("person", "brand", "category")
REAL_ARCHETYPES = ("int_small", "year")

# Domain size per column, by archetype: small enough that content samples
# cover a meaningful slice of each column.
_DOMAIN_SIZES = {"person": (6, 12), "brand": (4, 8), "category": (3, 6)}

GT_PHRASES = ReplacementMap().patterns_for(CondOp.GT)
LT_PHRASES = ReplacementMap().patterns_for(CondOp.LT)


@dataclass(frozen=True)
class SynthConfig:
    n_tables: int = 8
    rows_per_table: int = 8
    n_columns_min: int = 3
    n_columns_max: int = 5
    questions_per_table: int = 8
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.n_tables, self.rows_per_table, self.n_columns_min,
            self.n_columns_max, self.questions_per_table,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all SynthConfig counts must be >= 1")
        if self.n_columns_min > self.n_columns_max:
            raise ValueError("n_columns_min must not exceed n_columns_max")


def _make_table(config: SynthConfig, index: int, rng: random.Random):
    n_cols = rng.randint(config.n_columns_min, config.n_columns_max)
    archetypes = [rng.choice(TEXT_ARCHETYPES)]
    all_archetypes = TEXT_ARCHETYPES + REAL_ARCHETYPES
    archetypes += [rng.choice(all_archetypes) for _ in range(n_cols - 1)]
    rng.shuffle(archetypes)

    headers: list[str] = []
    for arch in archetypes:
        options = [h for h in ARCHETYPE_HEADERS[arch] if h not in headers]
        headers.append(rng.choice(options) if options else f"{arch.title()} {len(headers)}")
    types = tuple("real" if a in REAL_ARCHETYPES else "text" for a in archetypes)

    domains = []
    for arch in archetypes:
        pool = DEFAULT_POOLS[arch]
        if arch in _DOMAIN_SIZES:
            lo, hi = _DOMAIN_SIZES[arch]
            size = min(len(pool), rng.randint(lo, hi))
            domains.append(rng.sample(list(pool), size))
        else:
            domains.append(list(pool))
    rows = tuple(
        tuple(rng.choice(domain) for domain in domains)
        for _ in range(config.rows_per_table)
    )
    schema = TableSchema(
        table_id=f"synth-{index}", headers=tuple(headers), types=types
    )
    return Table(schema=schema, rows=rows), archetypes


def _pick_agg(rng: random.Random, numeric_select: bool) -> AggOp:
    roll = rng.random()
    if roll < 0.60:
        return AggOp.NONE
    if roll < 0.75 or not numeric_select:
        return AggOp.COUNT
    return rng.choice((AggOp.MAX, AggOp.MIN, AggOp.SUM, AggOp.AVG))


def _make_conditions(table: Table, anchor, rng: random.Random) -> list[Condition]:
    n_conds = rng.choices((0, 1, 2), weights=(0.2, 0.5, 0.3))[0]
    n_conds = min(n_conds, table.schema.n_columns)
    cols = rng.sample(range(table.schema.n_columns), n_conds)
    conds = []
    for col in cols:
        cell = anchor[col]
        if table.schema.types[col] == "real":
            op = rng.choices((CondOp.EQ, CondOp.GT, CondOp.LT), weights=(2, 1, 1))[0]
            if op is CondOp.EQ:
                value = normalize_value(cell)
            elif op is CondOp.GT:
                value = str(int(cell) - rng.randint(1, 30))
            else:
                value = str(int(cell) + rng.randint(1, 30))
        else:
            op = CondOp.EQ
            value = normalize_value(cell)
        conds.append(Condition(col, op, value))
    return conds


def _verbose_cond(header: str, cond: Condition, rng: random.Random) -> str:
    h = header.lower()
    if cond.op is CondOp.EQ:
        return f"the {h} is {cond.value}"
    if cond.op is CondOp.GT:
        return f"the {h} is {rng.choice(GT_PHRASES)} {cond.value}"
    return f"the {h} is {rng.choice(LT_PHRASES)} {cond.value}"


def _verbose_question(table: Table, sketch: SqlSketch, rng: random.Random) -> str:
    sel = table.schema.headers[sketch.select_column].lower()
    conds = " and ".join(
        _verbose_cond(table.schema.headers[c.column_index], c, rng)
        for c in sketch.conds
    )
    agg = sketch.agg
    if agg is AggOp.NONE:
        if conds:
            head = rng.choice((f"what is the {sel} when", f"which {sel} has",
                               f"tell me the {sel} where"))
            return f"{head} {conds}?"
        return rng.choice((f"what are all of the {sel} values?",
                           f"list every {sel} in the table"))
    if agg is AggOp.COUNT:
        if conds:
            head = rng.choice((f"how many {sel} entries are there when",
                               f"what is the number of {sel} when"))
            return f"{head} {conds}?"
        return f"how many {sel} entries are in the table?"
    word = AGG_WORDS[agg]
    if conds:
        return f"what is the {word} {sel} when {conds}?"
    return f"what is the {word} {sel} overall?"


def _short_cond(header: str, cond: Condition, rng: random.Random) -> str:
    h = header.lower()
    if cond.op is CondOp.EQ:
        return rng.choice((cond.value, f"{h} {cond.value}", f"{cond.value} {h}"))
    phrases = GT_PHRASES if cond.op is CondOp.GT else LT_PHRASES
    phrase = rng.choice(phrases + (cond.op.symbol,))
    return f"{h} {phrase} {cond.value}"


def _short_question(table: Table, sketch: SqlSketch, rng: random.Random) -> str:
    sel = table.schema.headers[sketch.select_column].lower()
    if sketch.agg is not AggOp.NONE:
        sel = f"{AGG_WORDS[sketch.agg]} {sel}"
    pieces = [
        _short_cond(table.schema.headers[c.column_index], c, rng)
        for c in sketch.conds
    ]
    rng.shuffle(pieces)
    if rng.random() < 0.5:
        pieces.insert(0, sel)
    else:
        pieces.append(sel)
    return " ".join(pieces)


def generate_synthetic_corpus(config: SynthConfig) -> tuple[Corpus, dict[str, Table]]:
    """Generate a corpus and table map; a pure function of the config.

    For every sketch two adjacent examples are emitted, styles "verbose"
    then "short". ``corpus.meta["archetypes"]`` maps table_id to the column
    archetype list.
    """
    rng = child_rng("synth", config.seed)
    tables: dict[str, Table] = {}
    manifest: dict[str, list[str]] = {}
    examples: list[Example] = []
    for t in range(config.n_tables):
        table, archetypes = _make_table(config, t, rng)
        tables[table.table_id] = table
        manifest[table.table_id] = list(archetypes)
        for _ in range(config.questions_per_table):
            anchor = rng.choice(table.rows)
            sel = rng.randrange(table.schema.n_columns)
            agg = _pick_agg(rng, table.schema.types[sel] == "real")
            sketch = SqlSketch(sel, agg, tuple(_make_conditions(table, anchor, rng)))
            examples.append(Example(
                question=_verbose_question(table, sketch, rng),
                table_id=table.table_id, gold=sketch, style="verbose",
            ))
            examples.append(Example(
                question=_short_question(table, sketch, rng),
                table_id=table.table_id, gold=sketch, style="short",
            ))
    return Corpus(examples=examples, meta={"archetypes": manifest}), tables


# ---------------------------------------------------------------------------
# Ambiguity probe: questions whose where column is inferable only from content.

THEME_POOLS: tuple[tuple[str, ...], ...] = (
    ("apple", "mango", "kiwi", "papaya", "cherry", "lemon", "plum",
     "apricot", "banana", "guava"),
    ("oslo", "lisbon", "prague", "dublin", "athens", "vienna", "madrid",
     "warsaw", "tallinn", "riga"),
    ("crimson", "teal", "amber", "indigo", "olive", "maroon", "beige",
     "coral", "mint", "lavender"),
    ("badger", "otter", "lynx", "heron", "viper", "bison", "marmot",
     "falcon", "gecko", "stoat"),
    ("copper", "zinc", "cobalt", "nickel", "titanium", "tungsten",
     "silver", "iron", "lead", "chromium"),
    ("cello", "oboe", "banjo", "viola", "flute", "bassoon", "sitar",
     "marimba", "tuba", "fiddle"),
    ("denim", "velvet", "linen", "satin", "tweed", "corduroy", "silk",
     "wool", "canvas", "flannel"),
    ("topaz", "garnet", "opal", "jade", "amethyst", "ruby", "beryl",
     "onyx", "pearl", "zircon"),
)

# Deliberately uninformative where-column headers: the header alone never
# tells which column holds a given value.
AMBIGUOUS_HEADERS = ("Info", "Detail", "Entry", "Item", "Tag", "Field")
SELECT_HEADERS = ("Name", "Title", "Label", "Record")


@dataclass(frozen=True)
class ProbeConfig:
    n_tables: int = 48
    rows_per_table: int = 9
    train_values_per_column: int = 2
    heldout_values_per_column: int = 1
    seed: int = 0


def generate_ambiguity_probe(
    config: ProbeConfig,
) -> tuple[Corpus, Corpus, dict[str, Table]]:
    """Build (train corpus, heldout corpus, tables) for the content probe.

    Every table has two where-candidate columns with meaningless headers and
    two disjoint theme vocabularies assigned at random, so for a bare
    "<select header> <value>" question the cell content is the only clue to
    the where column. Theme pools are split globally into train and heldout
    values: heldout values occur as cells everywhere but never in a training
    question, leaving a content-blind model nothing to learn from. Training
    additionally includes header-hinted variants ("name info apple") of each
    question, which keep the where-column subtask learnable for every model;
    the heldout corpus contains only the ambiguous form.

    Column domains are deliberately small (train + heldout values per
    column), so a sampler with k >= domain size always exposes the full
    column vocabulary.
    """
    rng = child_rng("probe", config.seed)
    splits = []
    for pool in THEME_POOLS:
        values = list(pool)
        rng.shuffle(values)
        n_eval = max(config.heldout_values_per_column, len(values) // 3)
        if len(values) - n_eval < config.train_values_per_column:
            raise ValueError("theme pools too small for the requested split")
        splits.append((values[n_eval:], values[:n_eval]))

    tables: dict[str, Table] = {}
    train: list[Example] = []
    heldout: list[Example] = []
    for t in range(config.n_tables):
        pool_ids = rng.sample(range(len(THEME_POOLS)), 2)
        domains = []
        for pid in pool_ids:
            train_pool, eval_pool = splits[pid]
            domains.append((
                rng.sample(train_pool, config.train_values_per_column),
                rng.sample(eval_pool, config.heldout_values_per_column),
            ))
        sel_header = rng.choice(SELECT_HEADERS)
        amb_headers = rng.sample(list(AMBIGUOUS_HEADERS), 2)

        columns = [
            (sel_header, None,
             [f"rec-{t}-{r}" for r in range(config.rows_per_table)]),
            (amb_headers[0], domains[0],
             _covering_cells(domains[0][0] + domains[0][1],
                             config.rows_per_table, rng)),
            (amb_headers[1], domains[1],
             _covering_cells(domains[1][0] + domains[1][1],
                             config.rows_per_table, rng)),
        ]
        rng.shuffle(columns)
        headers = tuple(name for name, _, _ in columns)
        rows = tuple(
            tuple(cells[r] for _, _, cells in columns)
            for r in range(config.rows_per_table)
        )
        schema = TableSchema(f"probe-{t}", headers, ("text",) * 3)
        table = Table(schema, rows)
        tables[table.table_id] = table

        sel_col = headers.index(sel_header)
        sel_word = sel_header.lower()
        for col, (header, domain, _) in enumerate(columns):
            if domain is None:
                continue
            hint = header.lower()
            for value in domain[0]:  # train values: ambiguous + hinted form
                sketch = SqlSketch(sel_col, AggOp.NONE,
                                   (Condition(col, CondOp.EQ, value),))
                ambiguous = (
                    f"{sel_word} {value}" if rng.random() < 0.5
                    else f"{value} {sel_word}"
                )
                train.append(Example(question=ambiguous, table_id=table.table_id,
                                     gold=sketch, style="probe"))
                train.append(Example(question=f"{sel_word} {hint} {value}",
                                     table_id=table.table_id,
                                     gold=sketch, style="probe-hinted"))
            for value in domain[1]:  # heldout values: ambiguous form only
                sketch = SqlSketch(sel_col, AggOp.NONE,
                                   (Condition(col, CondOp.EQ, value),))
                ambiguous = (
                    f"{sel_word} {value}" if rng.random() < 0.5
                    else f"{value} {sel_word}"
                )
                heldout.append(Example(question=ambiguous,
                                       table_id=table.table_id,
                                       gold=sketch, style="probe"))
    return Corpus(train), Corpus(heldout), tables


def _covering_cells(domain: list[str], n_rows: int, rng: random.Random) -> list[str]:
    """Cells for one column: every domain value appears at least once."""
    cells = [domain[i % len(domain)] for i in range(n_rows)]
    rng.shuffle(cells)
    return cells


def generate_bench_table(n_rows: int, seed: int = 0) -> Table:
    """A wide synthetic table for scaling benchmarks.

    Pool-valued columns keep distinct counts bounded while the Code column
    scales with row count (capped at 50k), so index size grows with the table.
    """
    rng = child_rng("bench", seed, n_rows)
    persons = DEFAULT_POOLS["person"]
    brands = DEFAULT_POOLS["brand"]
    categories = DEFAULT_POOLS["category"]
    rows = []
    for i in range(n_rows):
        rows.append((
            rng.choice(persons),
            rng.choice(brands),
            rng.choice(categories),
            f"c-{i % 50_000:05d}",
            str(rng.randint(0, 500)),
        ))
    schema = TableSchema(
        table_id=f"bench-{n_rows}",
        headers=("Name", "Brand", "League", "Code", "Points"),
        types=("text", "text", "text", "text", "real"),
    )
    return Table(schema, tuple(rows))
