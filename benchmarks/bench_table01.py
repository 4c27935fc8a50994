"""Bench: regenerate paper Table 01 (see repro.experiments.table01)."""

from repro.experiments import table01


def test_table01(benchmark, session):
    table = benchmark.pedantic(
        table01.run, args=(session,), iterations=1, rounds=1)
    assert table.rows
