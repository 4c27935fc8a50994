"""Bench: regenerate paper Table 04 (see repro.experiments.table04)."""

from repro.experiments import table04


def test_table04(benchmark, session):
    table = benchmark.pedantic(
        table04.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
