"""Bench: regenerate Table 15 (see repro.experiments.table15)."""

from repro.experiments import table15


def test_table15(benchmark, session):
    table = benchmark.pedantic(
        table15.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
