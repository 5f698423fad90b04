import json

from nlsql.bench import bench_sampling
from nlsql.synth import generate_bench_table


def ladder(sizes):
    return [generate_bench_table(n, seed=0) for n in sizes]


def test_bench_random_reports_negligible_setup(tmp_path):
    report = bench_sampling(ladder([100, 400]), "rand", 3, n_queries=10, seed=0)
    for row in report.rows:
        assert row.setup_seconds == 0.0
        assert row.peak_memory_bytes == 0
        assert row.per_query_seconds is not None and row.per_query_seconds > 0
    path = tmp_path / "bench.json"
    report.save(path)
    payload = json.loads(path.read_text())
    assert (payload["strategy"], payload["k"], payload["n_queries"]) == ("rand", 3, 10)
    assert [r["rows"] for r in payload["rows"]] == [100, 400]


def test_bench_relevance_measures_setup():
    report = bench_sampling(ladder([200]), "rel", 3, n_queries=5, seed=0)
    row = report.rows[0]
    assert row.setup_seconds > 0
    assert row.peak_memory_bytes > 0
    assert row.cells == 200 * 5


def test_bench_zero_queries_setup_only():
    report = bench_sampling(ladder([100]), "rel", 3, n_queries=0, seed=0)
    row = report.rows[0]
    assert row.per_query_seconds is None
    assert row.setup_seconds > 0
    assert "  -" in report.render_text() or "-" in report.render_text()


def test_bench_table_generator_shapes():
    table = generate_bench_table(50, seed=1)
    assert len(table.rows) == 50
    assert table.schema.n_columns == 5
    assert generate_bench_table(50, seed=1) == table
