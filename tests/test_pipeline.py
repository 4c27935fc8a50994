"""Pipeline Session tests: memoization, disk cache, measurements."""

import pytest

from repro.cache.config import BASELINE_CONFIG, CacheConfig
from repro.pipeline.session import Measurement, RunKey, Session

WL = "129.compress"
SCALE = 0.03


@pytest.fixture()
def session(tmp_path):
    return Session(scale=SCALE, cache_dir=tmp_path / "cache",
                   use_disk_cache=True)


class TestMemoization:
    def test_source_cached(self, session):
        assert session.source(WL) is session.source(WL)

    def test_program_cached(self, session):
        assert session.program(WL) is session.program(WL)

    def test_programs_differ_by_input_and_mode(self, session):
        base = session.program(WL)
        assert session.program(WL, "input2") is not base
        assert session.program(WL, optimize=True) is not base

    def test_load_infos_cached(self, session):
        assert session.load_infos(WL) is session.load_infos(WL)

    def test_stats_cached_in_memory(self, session):
        first = session.stats(WL)
        second = session.stats(WL)
        assert first is second


class TestDiskCache:
    def test_roundtrip_via_disk(self, tmp_path):
        cache_dir = tmp_path / "c"
        one = Session(scale=SCALE, cache_dir=cache_dir)
        stats = one.stats(WL)
        profile = one.profile(WL)
        # a fresh session must reload without executing
        two = Session(scale=SCALE, cache_dir=cache_dir)
        again = two.stats(WL)
        assert again.load_misses == stats.load_misses
        assert two.profile(WL).block_counts == profile.block_counts
        assert WL not in {k.workload for k in two._traces}

    def test_different_config_misses_cache(self, tmp_path):
        cache_dir = tmp_path / "c"
        one = Session(scale=SCALE, cache_dir=cache_dir)
        one.stats(WL)
        two = Session(scale=SCALE, cache_dir=cache_dir)
        other = CacheConfig(16 * 1024, 4, 32)
        stats = two.stats(WL, cache_config=other)
        assert stats.config == other

    def test_disk_cache_disabled(self, tmp_path):
        session = Session(scale=SCALE, cache_dir=tmp_path / "c",
                          use_disk_cache=False)
        session.stats(WL)
        assert not (tmp_path / "c").exists()

    def test_scale_changes_digest(self, tmp_path):
        cache_dir = tmp_path / "c"
        a = Session(scale=SCALE, cache_dir=cache_dir)
        b = Session(scale=SCALE * 2, cache_dir=cache_dir)
        key = RunKey(WL, "input1", False)
        assert a._digest(key, BASELINE_CONFIG) \
            != b._digest(key, BASELINE_CONFIG)


class TestMeasurement:
    def test_fields_consistent(self, session):
        m = session.measurement(WL)
        assert isinstance(m, Measurement)
        assert m.num_loads == m.program.num_loads()
        assert set(m.load_infos) == set(m.program.load_addresses())
        assert set(m.load_exec) == set(m.program.load_addresses())
        assert m.total_load_misses == sum(m.load_misses.values())
        assert m.steps > 0

    def test_load_misses_subset_of_loads(self, session):
        m = session.measurement(WL)
        assert set(m.load_misses) <= set(m.program.load_addresses())

    def test_trace_lru_bounded(self, session):
        for name in ("129.compress", "099.go", "181.mcf"):
            session.stats(name)
        assert len(session._traces) <= 2


class TestRewrittenRuns:
    """A run key naming a prefetch set is a run of its own."""

    def _loads(self, session):
        return sorted(session.program(WL).load_addresses())

    def test_program_is_rewritten(self, session):
        loads = self._loads(session)
        rewritten = session.program(WL, prefetch=loads[:2])
        assert rewritten is session.program(WL, prefetch=loads[1::-1])
        assert session.program(WL, prefetch=()) is session.program(WL)
        assert sum(1 for i in rewritten.instructions
                   if i.mnemonic == "pref") \
            == 2

    def test_keys_change_with_the_prefetch_set(self, session):
        loads = self._loads(session)
        keys = [RunKey(WL, "input1", False, frozenset(pcs))
                for pcs in ((), loads[:1], loads[:2], loads[1:2])]
        assert len({session._trace_key(k) for k in keys}) == len(keys)
        assert len({session._digest(k, BASELINE_CONFIG)
                    for k in keys}) == len(keys)
        # the set, not the order it was given in, is hashed
        again = RunKey(WL, "input1", False, frozenset(loads[1::-1]))
        assert session._trace_key(again) == session._trace_key(keys[2])
        assert session._digest(again, BASELINE_CONFIG) \
            == session._digest(keys[2], BASELINE_CONFIG)

    def test_unrewritten_keys_are_unchanged(self, tmp_path):
        # Values computed before run keys could name a rewrite: an
        # unrewritten run's trace key, result digest and the default
        # campaign plan must not move, so warm caches stay warm.
        import hashlib
        from repro.campaign import Campaign
        session = Session(scale=0.03, cache_dir=tmp_path / "cache")
        key = RunKey("179.art", "input1", False)
        assert key == RunKey("179.art", "input1", False, frozenset())
        assert session._trace_key(key) \
            == "3031f5f22b3e31bb4ca85e1ec47b18c12d152ad7"
        assert session._digest(key, BASELINE_CONFIG) \
            == "7ad97856c2db64cd416727b31ca2a7e305b63a58"
        plans = Campaign(session).plan()
        text = "\n".join(f"{plan.id} {plan.digest}" for plan in plans)
        assert (len(plans), hashlib.sha1(text.encode()).hexdigest()) \
            == (93, "9fe424f5b4ea62ce02dd5319fdf64a0d443dcc29")

    def test_rewritten_run_is_stored_and_resumed(self, tmp_path,
                                                 monkeypatch):
        from repro.machine.simulator import Machine
        cache_dir = tmp_path / "c"
        one = Session(scale=SCALE, cache_dir=cache_dir)
        pcs = self._loads(one)[:3]
        stats = one.stats(WL, prefetch=pcs)
        steps = one.steps(WL, prefetch=pcs)
        assert stats.prefetch_ops > 0
        assert steps > one.steps(WL)
        assert stats.load_misses != one.stats(WL).load_misses

        def no_execution(*args, **kwargs):
            raise AssertionError("a warm rewritten run executed")
        monkeypatch.setattr(Machine, "run", no_execution)
        monkeypatch.setattr(Machine, "run_streaming", no_execution)
        two = Session(scale=SCALE, cache_dir=cache_dir)
        again = two.stats(WL, prefetch=pcs)
        assert (again.load_misses, again.prefetch_ops) \
            == (stats.load_misses, stats.prefetch_ops)
        assert two.steps(WL, prefetch=pcs) == steps
        # a config the result tier lacks replays the stored trace
        other = CacheConfig(16 * 1024, 4, 32)
        assert two.stats(WL, cache_config=other,
                         prefetch=pcs).prefetch_ops == stats.prefetch_ops
