"""Bench: regenerate paper Table 10 (see repro.experiments.table10)."""

from repro.experiments import table10


def test_table10(benchmark, session):
    table = benchmark.pedantic(
        table10.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
