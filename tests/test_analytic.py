"""Analytic reuse-profile engine tests.

Covers the histogram math against hand-computed loop nests, the
``S == 1`` equivalence with the stack-distance evaluator, payload
serialization, and the prediction round-trips through ``Session``,
the service ``predict`` op, and the CLI — plus the fallback and
confidence-degradation paths.
"""

import json
import math

import pytest

from repro.analytic import (CONFIDENCE_THRESHOLD, HIGH, LOW,
                            AnalyticProfile, predict_profile)
from repro.analytic.engine import _miss_probability
from repro.cache.config import CacheConfig
from repro.cache.stackdist import simulate_sweep
from repro.compiler.driver import compile_source
from repro.machine.simulator import run_program

# A 64-int array is 256 bytes = 8 blocks at the 32-byte block size all
# of these tests use, so one pass is 8 compulsory misses + 56 spatial
# reuses.
SINGLE_PASS = (
    "int a[64]; int main() { int i; int s; s = 0;"
    " for (i = 0; i < 64; i = i + 1) s = s + a[i];"
    " print_int(s); return 0; }")

# Four passes over 512 ints (64 blocks): the re-pass reuse distance is
# the whole footprint, so the capacity step rule decides each geometry.
REPEAT_PASS = (
    "int a[512]; int main() { int i; int r; int s; s = 0;"
    " for (r = 0; r < 4; r = r + 1)"
    " for (i = 0; i < 512; i = i + 1) s = s + a[i];"
    " print_int(s); return 0; }")

# Walk-dominated pointer chase: the analytic layers cannot see malloc'd
# node addresses, so nearly every access is a LOW-confidence estimate.
CHASE = """
struct node { int value; struct node *next; };
struct node *head;
int main() {
    struct node *n; struct node *p; int i; int s;
    head = NULL;
    for (i = 0; i < 30; i = i + 1) {
        n = (struct node*) malloc(sizeof(struct node));
        n->value = i; n->next = head; head = n;
    }
    s = 0;
    for (i = 0; i < 20; i = i + 1) {
        p = head;
        while (p != NULL) { s = s + p->value; p = p->next; }
    }
    print_int(s);
    return 0;
}
"""


def _measured(source, configs):
    program = compile_source(source)
    trace = run_program(program, engine="closures").trace
    return program, simulate_sweep(trace, configs)


def _array_pc(profile, compulsory):
    return next(pc for pc, pred in profile.loads.items()
                if pred.hist.compulsory == compulsory)


class TestMissProbability:
    def test_s_equals_one_is_the_suffix_threshold_rule(self):
        # At one set the Poisson model must degenerate to the exact
        # stack-distance rule the measured GroupProfile applies:
        # miss iff distance >= assoc.
        for assoc in (1, 2, 4, 8):
            for d in range(0, 3 * assoc):
                want = 1.0 if d >= assoc else 0.0
                assert _miss_probability(d, 1, assoc) == want

    def test_short_distances_are_guaranteed_hits(self):
        # Fewer than A distinct blocks can never fill a set, whatever
        # the mapping — a provable LRU bound, not an approximation.
        for num_sets in (1, 4, 64):
            for assoc in (1, 2, 8):
                for d in range(assoc):
                    assert _miss_probability(d, num_sets, assoc) == 0.0

    def test_monotone_in_distance_and_bounded(self):
        last = 0.0
        for d in range(0, 400, 7):
            p = _miss_probability(d, 16, 4)
            assert 0.0 <= p <= 1.0
            assert p >= last
            last = p

    def test_long_distance_normal_tail_approaches_one(self):
        assert _miss_probability(100_000, 16, 4) > 0.999


class TestHandComputedNests:
    def test_single_pass_histogram(self):
        profile = predict_profile(compile_source(SINGLE_PASS),
                                  block_size=32)
        pc = _array_pc(profile, 8.0)
        pred = profile.loads[pc]
        assert pred.accesses == 64.0
        assert pred.confidence == HIGH
        # 8 block-leading accesses are compulsory; the other 56 reuse
        # the block just touched (distance 1 in sliding blocks).
        assert pred.hist.bins == {1: 56.0}
        assert pred.hist.dense == {}
        total = (pred.hist.compulsory + sum(pred.hist.bins.values())
                 + sum(pred.hist.dense.values()))
        assert total == pred.accesses

    def test_single_pass_matches_measured_exactly(self):
        configs = [CacheConfig(1024, 2, 32), CacheConfig(4096, 8, 32)]
        program, stats = _measured(SINGLE_PASS, configs)
        profile = predict_profile(program, block_size=32)
        for config, measured in zip(configs, stats):
            predicted = profile.evaluate(config)
            assert dict(predicted.load_accesses) == \
                dict(measured.load_accesses)
            assert dict(predicted.load_misses) == \
                dict(measured.load_misses)

    def test_repeat_pass_histogram(self):
        profile = predict_profile(compile_source(REPEAT_PASS),
                                  block_size=32)
        pred = profile.loads[_array_pc(profile, 64.0)]
        assert pred.accesses == 2048.0
        # 64 compulsory + 3 re-passes x 64 blocks at the footprint
        # distance (64 array blocks + 1 stack block), dense because
        # the intervening footprint is a fixed contiguous region.
        assert pred.hist.dense == {65: 192.0}
        assert pred.hist.bins == {1: 1792.0}

    def test_capacity_step_decides_each_geometry(self):
        configs = [CacheConfig(4096, 8, 32),   # 128 blocks >= 65: hits
                   CacheConfig(1024, 4, 32),   # 32 blocks < 65: misses
                   CacheConfig(8192, 2, 32)]
        program, stats = _measured(REPEAT_PASS, configs)
        profile = predict_profile(program, block_size=32)
        pc = _array_pc(profile, 64.0)
        for config, measured in zip(configs, stats):
            predicted = profile.evaluate(config)
            assert predicted.load_misses.get(pc) == \
                measured.load_misses.get(pc)
        assert stats[0].load_misses[pc] == 64      # compulsory only
        assert stats[1].load_misses[pc] == 256     # every pass misses

    def test_fully_associative_matches_stackdist_evaluator(self):
        # num_sets == 1 is where the Poisson bridge is *exact*: the
        # predicted stats must equal the measured stack-distance sweep
        # bin for bin.
        config = CacheConfig(size=512, assoc=16, block_size=32)
        assert config.num_sets == 1
        program, stats = _measured(SINGLE_PASS, [config])
        predicted = predict_profile(program, block_size=32) \
            .evaluate(config)
        assert dict(predicted.load_misses) == \
            dict(stats[0].load_misses)
        assert dict(predicted.store_misses) == \
            dict(stats[0].store_misses)


class TestConfidence:
    def test_affine_program_is_confident(self):
        profile = predict_profile(compile_source(SINGLE_PASS),
                                  block_size=32)
        assert profile.coverage == 1.0
        assert profile.confident
        assert profile.low_confidence_pcs() == {}

    def test_pointer_chase_is_flagged(self):
        profile = predict_profile(compile_source(CHASE), block_size=32)
        assert profile.coverage < CONFIDENCE_THRESHOLD
        assert not profile.confident
        low = profile.low_confidence_pcs()
        assert low
        reasons = {r for rs in low.values() for r in rs}
        assert reasons & {"unknown-trip-count", "irregular-slot-update"}
        some_pc = next(iter(low))
        assert profile.confidence_of(some_pc) == LOW

    def test_every_prediction_conserves_accesses(self):
        profile = predict_profile(compile_source(CHASE), block_size=32)
        for group in (profile.loads, profile.stores):
            for pred in group.values():
                total = (pred.hist.compulsory
                         + sum(pred.hist.bins.values())
                         + sum(pred.hist.dense.values()))
                assert total == pytest.approx(pred.accesses)


class TestPayloadRoundTrip:
    def test_json_round_trip_preserves_evaluation(self):
        profile = predict_profile(compile_source(REPEAT_PASS),
                                  block_size=32)
        wire = json.loads(json.dumps(profile.to_payload()))
        back = AnalyticProfile.from_payload(wire)
        assert back.block_size == profile.block_size
        assert back.coverage == profile.coverage
        for config in (CacheConfig(1024, 4, 32),
                       CacheConfig(4096, 8, 32)):
            a, b = profile.evaluate(config), back.evaluate(config)
            assert dict(a.load_misses) == dict(b.load_misses)
            assert dict(a.load_accesses) == dict(b.load_accesses)

    def test_pitch_survives_the_round_trip(self):
        profile = predict_profile(compile_source(SINGLE_PASS),
                                  block_size=32)
        pc = _array_pc(profile, 8.0)
        profile.loads[pc].hist.pitch[7] = 4     # synthetic sparse orbit
        back = AnalyticProfile.from_payload(profile.to_payload())
        assert back.loads[pc].hist.pitch == {7: 4}

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            AnalyticProfile.from_payload({"schema": 999})

    def test_block_size_mismatch_rejected(self):
        profile = predict_profile(compile_source(SINGLE_PASS),
                                  block_size=32)
        with pytest.raises(ValueError):
            profile.evaluate(CacheConfig(1024, 2, 64))


class TestSessionRoundTrip:
    @pytest.fixture()
    def session(self, tmp_path):
        from repro.pipeline.session import Session
        s = Session(cache_dir=tmp_path / "cache", use_disk_cache=True)
        s.add_source("affine", SINGLE_PASS)
        s.add_source("chase", CHASE)
        return s

    def test_analytic_answer_with_no_execution(self, session):
        configs = [CacheConfig(1024, 2, 32), CacheConfig(4096, 8, 32)]
        pred = session.predict_stats("affine", configs=configs)
        assert pred.analytic
        assert pred.coverage == 1.0
        assert not session._traces          # nothing ever ran
        _, measured = _measured(SINGLE_PASS, configs)
        for got, want in zip(pred.stats, measured):
            assert dict(got.load_misses) == dict(want.load_misses)

    def test_profile_cached_in_analytic_keyspace(self, session,
                                                 tmp_path):
        session.predict_stats("affine")
        disk = list((tmp_path / "cache" / "stackdist")
                    .glob("an-*.json"))
        assert disk, "analytic profile should hit the an- keyspace"
        # A fresh session over the same disk cache answers without
        # recomputing the profile (served from the an- entry).
        from repro.pipeline.session import Session
        again = Session(cache_dir=tmp_path / "cache",
                        use_disk_cache=True)
        again.add_source("affine", SINGLE_PASS)
        pred = again.predict_stats("affine")
        assert pred.analytic

    def test_low_coverage_falls_back_to_measurement(self, session):
        pred = session.predict_stats("chase")
        assert not pred.analytic            # served by the real sweep
        assert pred.coverage < CONFIDENCE_THRESHOLD
        assert pred.low_confidence_pcs

    def test_no_fallback_answers_anyway(self, session):
        pred = session.predict_stats("chase", fallback=False)
        assert pred.analytic
        assert pred.coverage < CONFIDENCE_THRESHOLD
        assert not session._traces

    def test_non_lru_policy_falls_back(self, session):
        fifo = CacheConfig(1024, 2, 32, replacement="fifo")
        pred = session.predict_stats("affine", configs=[fifo])
        assert not pred.analytic


class TestServiceRoundTrip:
    @pytest.fixture(scope="class")
    def client(self):
        from repro.service import (ServerConfig, ServiceClient,
                                   serve_in_thread)
        handle = serve_in_thread(ServerConfig(
            port=0, workers=0, use_disk_cache=False))
        with ServiceClient(handle.host, handle.port,
                           timeout=60.0) as c:
            yield c
        handle.stop()

    def test_predict_matches_in_process(self, client):
        from repro.pipeline.session import Session
        from repro.service.protocol import cache_config_to_dict
        configs = [CacheConfig(1024, 2, 32), CacheConfig(4096, 8, 32)]
        payload = client.call("predict", {
            "source": SINGLE_PASS, "optimize": False,
            "configs": [cache_config_to_dict(c) for c in configs],
            "fallback": True})
        assert payload["analytic"] is True
        assert payload["steps"] == 0
        session = Session()
        session.add_source("wl", SINGLE_PASS)
        pred = session.predict_stats("wl", configs=configs)
        for row, stats in zip(payload["results"], pred.stats):
            assert row["total_load_misses"] == stats.total_load_misses
            assert row["load_misses"] == \
                {f"{pc:#x}": m for pc, m
                 in sorted(stats.load_misses.items())}

    def test_predict_fallback_reports_measured(self, client):
        from repro.service.protocol import cache_config_to_dict
        payload = client.call("predict", {
            "source": CHASE, "optimize": False,
            "configs": [cache_config_to_dict(CacheConfig(1024, 2, 32))],
            "fallback": True})
        assert payload["analytic"] is False
        assert payload["coverage"] < CONFIDENCE_THRESHOLD
        assert payload["steps"] > 0         # the sweep really ran


class TestCLI:
    def _predict_json(self, tmp_path, capsys, source, *extra):
        from repro.__main__ import main
        path = tmp_path / "prog.c"
        path.write_text(source)
        code = main(["predict", str(path), "--json", *extra])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_predict_affine(self, tmp_path, capsys):
        payload = self._predict_json(
            tmp_path, capsys, SINGLE_PASS, "--config", "1024,2,32")
        assert payload["analytic"] is True
        assert payload["coverage"] == 1.0
        (row,) = payload["results"]
        assert row["total_load_misses"] >= 8
        assert row["total_load_accesses"] >= 64

    def test_predict_chase_no_fallback(self, tmp_path, capsys):
        payload = self._predict_json(
            tmp_path, capsys, CHASE, "--config", "1024,2,32",
            "--no-fallback")
        assert payload["analytic"] is True
        assert payload["coverage"] < CONFIDENCE_THRESHOLD
        assert payload["low_confidence_pcs"]

    @pytest.mark.parametrize("source,extra", [
        (SINGLE_PASS, ()), (CHASE, ()), (CHASE, ("--no-fallback",))],
        ids=["analytic", "measured_fallback", "no_fallback"])
    def test_local_json_is_the_served_response(self, tmp_path, capsys,
                                               monkeypatch, source,
                                               extra):
        from repro.cache.stackdist import ProfileStore
        from repro.service import ops, protocol
        from repro.store import TraceStore
        monkeypatch.setattr(ops, "_TRACE_STORE",
                            TraceStore(tmp_path / "traces"))
        monkeypatch.setattr(ops, "_PROFILE_STORE", ProfileStore(
            disk_dir=tmp_path / "stackdist"))
        payload = self._predict_json(tmp_path, capsys, source,
                                     "--config", "1024,2,32", *extra)
        served = ops.execute_op("predict", protocol.normalize("predict", {
            "source": source, "fallback": not extra,
            "configs": [{"size": 1024, "assoc": 2, "block_size": 32}]}))
        assert payload == served

    def test_predict_sweep_grid(self, tmp_path, capsys):
        payload = self._predict_json(
            tmp_path, capsys, SINGLE_PASS, "--sweep")
        assert payload["analytic"] is True
        assert len(payload["results"]) > 1
