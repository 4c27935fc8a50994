"""Bench: regenerate paper Table 09 (see repro.experiments.table09)."""

from repro.experiments import table09


def test_table09(benchmark, session):
    table = benchmark.pedantic(
        table09.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
