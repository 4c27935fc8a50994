"""Bench: regenerate paper Table 03 (see repro.experiments.table03)."""

from repro.experiments import table03


def test_table03(benchmark, session):
    table = benchmark.pedantic(
        table03.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
