"""Bench: regenerate paper Table 02 (see repro.experiments.table02)."""

from repro.experiments import table02


def test_table02(benchmark, session):
    table = benchmark.pedantic(
        table02.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
