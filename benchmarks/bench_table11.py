"""Bench: regenerate paper Table 11 (see repro.experiments.table11)."""

from repro.experiments import table11


def test_table11(benchmark, session):
    table = benchmark.pedantic(
        table11.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
