"""Bench: regenerate paper Table 14 (see repro.experiments.table14)."""

from repro.experiments import table14


def test_table14(benchmark, session):
    table = benchmark.pedantic(
        table14.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
