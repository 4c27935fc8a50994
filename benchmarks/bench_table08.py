"""Bench: regenerate paper Table 08 (see repro.experiments.table08)."""

from repro.experiments import table08


def test_table08(benchmark, session):
    table = benchmark.pedantic(
        table08.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
