"""Bench: regenerate paper Table 13 (see repro.experiments.table13)."""

from repro.experiments import table13


def test_table13(benchmark, session):
    table = benchmark.pedantic(
        table13.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
