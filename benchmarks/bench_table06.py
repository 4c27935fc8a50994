"""Bench: regenerate paper Table 06 (see repro.experiments.table06)."""

from repro.experiments import table06


def test_table06(benchmark, session):
    table = benchmark.pedantic(
        table06.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
