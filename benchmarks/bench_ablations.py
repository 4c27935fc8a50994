"""Ablation benches: time each ablation of
:mod:`repro.experiments.ablations` and assert the direction its design
choice predicts."""

from repro.experiments.ablations import ABLATIONS


def _run(benchmark, session, number):
    return benchmark.pedantic(ABLATIONS[number], args=(session,),
                              iterations=1, rounds=1)


def test_ablation_slot_recurrence(benchmark, session):
    table = _run(benchmark, session, 101)
    for row in table.rows:
        assert int(row[1]) >= int(row[2])
    # at least one benchmark must demonstrate the gap
    assert any(int(row[1]) > int(row[2]) for row in table.rows)


def test_ablation_pattern_cap(benchmark, session):
    table = _run(benchmark, session, 102)
    for row in table.rows:
        # phi takes a max over patterns: more patterns, never fewer hits
        assert int(row[1]) <= int(row[2]) <= int(row[3])


def test_ablation_baseline_chains(benchmark, session):
    table = _run(benchmark, session, 103)
    for row in table.rows:
        assert float(row[1].rstrip("%")) >= float(row[2].rstrip("%"))
        assert float(row[3].rstrip("%")) >= float(row[4].rstrip("%"))


def test_ablation_frequency_source(benchmark, session):
    table = _run(benchmark, session, 104)
    assert table.rows


def test_ablation_weights(benchmark, session):
    table = _run(benchmark, session, 105)
    assert table.rows


def test_ablation_delta_tuning(benchmark, session):
    table = _run(benchmark, session, 106)
    assert table.rows


def test_ablation_profile_fidelity(benchmark, session):
    table = _run(benchmark, session, 107)
    assert table.rows


def test_ablation_stall_aware_profiling(benchmark, session):
    table = _run(benchmark, session, 108)
    for row in table.rows:
        assert float(row[2].rstrip("%")) >= float(row[1].rstrip("%")) - 6


def test_ablation_l2_hierarchy(benchmark, session):
    table = _run(benchmark, session, 109)
    for row in table.rows:
        assert float(row[3].rstrip("%")) > 50


def test_ablation_prefetch_pass(benchmark, session):
    table = _run(benchmark, session, 110)
    for row in table.rows:
        delta_speed = float(row[1].rstrip("x"))
        all_speed = float(row[2].rstrip("x"))
        assert delta_speed >= all_speed - 0.02
