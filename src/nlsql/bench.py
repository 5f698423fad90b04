"""Scaling benchmark for the sampling strategies.

Per table size the harness measures setup time and peak memory for index
construction (rel/em1) and the median per-query latency of the full
query-time content path: sampling plus input serialization. Random-strategy
samples are drawn once offline, so its setup and memory are reported as
negligible (zero) by convention and only the query path is timed.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

from .corpus import write_json
from .serialize import DEFAULT_BUDGET, serialize_input, tokenize
from .sketch import Table
from .train import Sampler
from .util import child_rng


@dataclass
class BenchRow:
    table_id: str
    rows: int
    cells: int
    setup_seconds: float
    peak_memory_bytes: int
    per_query_seconds: float | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class BenchReport:
    strategy: str
    k: int
    n_queries: int
    rows: list[BenchRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "k": self.k,
            "n_queries": self.n_queries,
            "rows": [r.to_dict() for r in self.rows],
        }

    def save(self, path) -> None:
        write_json(self.to_dict(), path)

    def render_text(self) -> str:
        header = f"{'rows':>10}  {'cells':>10}  {'setup_s':>10}  {'peak_mb':>10}  {'query_ms':>10}"
        lines = [f"strategy {self.strategy}:{self.k}", header]
        for r in self.rows:
            query_ms = "-" if r.per_query_seconds is None \
                else f"{r.per_query_seconds * 1e3:10.3f}"
            lines.append(
                f"{r.rows:>10}  {r.cells:>10}  {r.setup_seconds:>10.3f}  "
                f"{r.peak_memory_bytes / 1e6:>10.1f}  {query_ms:>10}"
            )
        return "\n".join(lines)


def _make_queries(table: Table, n_queries: int, seed: int) -> list[str]:
    """Search-style probe questions mentioning 1-2 real cell values."""
    rng = child_rng("benchq", seed, table.table_id)
    fillers = ("show", "find", "list", "which", "entries", "for", "with")
    queries = []
    for _ in range(n_queries):
        row = rng.choice(table.rows)
        cols = rng.sample(range(table.schema.n_columns), rng.randint(1, 2))
        words = [rng.choice(fillers)]
        for col in cols:
            words.append(row[col])
        words.append(rng.choice(fillers))
        queries.append(" ".join(words))
    return queries


def bench_sampling(tables: list[Table], strategy: str, k: int,
                   n_queries: int = 100, seed: int = 0,
                   budget: int = DEFAULT_BUDGET) -> BenchReport:
    """Measure setup cost and median per-query latency over a table ladder."""
    report = BenchReport(strategy=strategy, k=k, n_queries=n_queries)
    for table in tables:
        n_cells = table.n_rows * table.schema.n_columns
        sampler = Sampler({table.table_id: table}, strategy, k, seed)
        if strategy in ("rel", "em1"):
            tracemalloc.start()
            started = time.perf_counter()
            sampler.index_for(table.table_id)
            setup_seconds = time.perf_counter() - started
            _, peak_memory = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        else:
            # Offline sample generation is excluded from serving cost.
            sampler.sample_for(table.table_id, "")
            setup_seconds = 0.0
            peak_memory = 0

        per_query = None
        if n_queries > 0:
            timings = []
            for query in _make_queries(table, n_queries, seed):
                t0 = time.perf_counter()
                samples = sampler.sample_for(table.table_id, query)
                serialize_input(tokenize(query), table.schema, samples,
                                budget, question=query)
                timings.append(time.perf_counter() - t0)
            per_query = statistics.median(timings)

        report.rows.append(BenchRow(
            table_id=table.table_id,
            rows=table.n_rows,
            cells=n_cells,
            setup_seconds=setup_seconds,
            peak_memory_bytes=int(peak_memory),
            per_query_seconds=per_query,
        ))
    return report
