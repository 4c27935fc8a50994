"""Bench: regenerate paper Table 12 (see repro.experiments.table12)."""

from repro.experiments import table12


def test_table12(benchmark, session):
    table = benchmark.pedantic(
        table12.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
