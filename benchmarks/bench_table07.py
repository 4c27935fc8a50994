"""Bench: regenerate paper Table 07 (see repro.experiments.table07)."""

from repro.experiments import table07


def test_table07(benchmark, session):
    table = benchmark.pedantic(
        table07.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
