"""Bench: regenerate paper Table 05 (see repro.experiments.table05)."""

from repro.experiments import table05


def test_table05(benchmark, session):
    table = benchmark.pedantic(
        table05.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
