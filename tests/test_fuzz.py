"""Fuzz-harness tests: generators, oracles, shrinker, self-check, CLI.

The harness itself needs pinning: generation must be deterministic (so
``--seed`` reproduces), every oracle must pass on clean code (so CI
failures mean real divergences), the shrinker must actually minimize,
and the mutation self-check must catch an injected bug end to end.
"""

import json

import pytest

from repro.asm.assembler import assemble
from repro.cache.config import CacheConfig
from repro.compiler.driver import compile_source
from repro.fuzz import (CASE_KINDS, DivergenceError, ORACLES,
                        OracleContext, generate_case, oracles_for,
                        run_fuzz, run_self_check)
from repro.fuzz.corpus import load_case, save_case, spec_digest
from repro.fuzz.generators import FuzzCase, gen_configs
from repro.fuzz.shrinker import shrink_case


class TestGenerators:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_same_seed_same_spec(self, kind):
        assert generate_case(kind, 7).spec == generate_case(kind, 7).spec

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_seeds_vary(self, kind):
        specs = [generate_case(kind, seed).spec for seed in range(8)]
        assert any(spec != specs[0] for spec in specs[1:])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_case("fortran", 0)

    def test_minic_cases_compile(self):
        for seed in range(4):
            compile_source(generate_case("minic", seed).source())

    def test_asm_cases_assemble(self):
        for seed in range(4):
            assemble(generate_case("asm", seed).source())

    def test_trace_cases_build(self):
        case = generate_case("trace", 0)
        trace = case.trace()
        assert len(trace) == len(case.spec["rows"])
        # one access kind per static pc, as shared_access_counts assumes
        kinds_by_pc = {}
        for pc, _, kind in trace:
            kinds_by_pc.setdefault(pc, set()).add(kind)
        assert all(len(k) == 1 for k in kinds_by_pc.values())

    def test_generated_configs_are_valid(self):
        import random
        for seed in range(20):
            for entry in gen_configs(random.Random(seed)):
                CacheConfig(**entry)    # must not raise

    def test_trace_case_has_no_source(self):
        with pytest.raises(ValueError):
            generate_case("trace", 0).source()


class TestOracleRegistry:
    def test_selection_by_kind(self):
        names = {o.name for o in oracles_for("trace")}
        assert names == {"replay", "streaming", "tlb", "redundancy",
                         "invariants"}
        assert {o.name for o in oracles_for("minic")} == set(ORACLES)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            oracles_for("minic", ["engines", "nope"])

    def test_explicit_selection(self):
        selected = oracles_for("asm", ["engines"])
        assert [o.name for o in selected] == ["engines"]


class TestOraclesPassOnCleanCode:
    """Every oracle must accept seeded cases on an unmutated tree."""

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_all_oracles_pass(self, kind):
        with OracleContext() as ctx:
            for seed in range(2):
                case = generate_case(kind, seed)
                for oracle in oracles_for(kind):
                    oracle.check(case, ctx)

    def test_run_fuzz_reports_clean(self):
        report = run_fuzz(seed=1, cases=3)
        assert report.ok
        assert report.cases_run == 3
        payload = report.to_dict()
        assert payload["ok"] is True
        json.dumps(payload)     # report must be JSON-able


    @pytest.mark.parametrize("op", ["simulate", "predict", "tlb"])
    def test_service_oracle_catches_a_wrong_served_payload(
            self, op, monkeypatch):
        from repro.service.client import ServiceClient
        call = ServiceClient.call

        def perturbed(self, name, params=None, **kwargs):
            result = call(self, name, params, **kwargs)
            if name == op:
                result["results"][-1]["total_loads"] = -1
            return result

        monkeypatch.setattr(ServiceClient, "call", perturbed)
        with OracleContext() as ctx:
            with pytest.raises(DivergenceError,
                               match=f"{op} payload"):
                ORACLES["service"].check(generate_case("minic", 0), ctx)


class TestShrinker:
    def test_list_minimization(self):
        case = generate_case("trace", 0)
        rows = case.spec["rows"]
        marker = rows[len(rows) // 2]

        def predicate(candidate):
            return marker in candidate.spec["rows"]

        shrunk, evals = shrink_case(case, predicate)
        assert shrunk.spec["rows"] == [marker]
        assert evals > 0

    def test_scalar_minimization(self):
        case = generate_case("minic", 0)
        segment = case.spec["segments"][0]

        def predicate(candidate):
            segments = candidate.spec["segments"]
            return bool(segments) \
                and segments[0]["op"] == segment["op"]

        shrunk, _ = shrink_case(case, predicate)
        assert len(shrunk.spec["segments"]) == 1
        for key, value in shrunk.spec["segments"][0].items():
            if isinstance(value, int) and not isinstance(value, bool):
                assert value <= segment[key]

    def test_flaky_failure_left_unshrunk(self):
        case = generate_case("trace", 1)
        shrunk, evals = shrink_case(case, lambda c: False)
        assert shrunk.spec == case.spec
        assert evals == 1


class TestSelfCheck:
    def test_injected_off_by_one_is_caught_and_shrunk(self):
        outcome = run_self_check(seed=0, cases=6, max_shrink_evals=200)
        assert outcome["ok"] is True
        assert outcome["caught"] is True
        assert outcome["clean_after_restore"] is True
        # the reproducer is corpus-sized, not the raw generated trace
        assert outcome["shrunk_rows"] < outcome["original_rows"]
        assert outcome["shrunk_rows"] <= 50

    def test_mutation_restores_cleanly(self):
        from repro.cache.model import simulate_trace, \
            simulate_trace_multi
        case = generate_case("trace", 2)
        trace, config = case.trace(), case.cache_configs()[0]
        before = simulate_trace_multi(trace, [config])[0]
        run_self_check(seed=0, cases=2, max_shrink_evals=50)
        after = simulate_trace_multi(trace, [config])[0]
        assert after.load_misses == before.load_misses
        assert after.load_misses == \
            simulate_trace(trace, config).load_misses


class TestCorpusRoundTrip:
    def test_save_load_identity(self, tmp_path):
        case = generate_case("asm", 5)
        path = save_case(case, tmp_path, note="round trip")
        loaded = load_case(path)
        assert loaded.kind == case.kind
        assert loaded.spec == case.spec
        assert path.name == f"asm-{spec_digest(case.spec)}.json"

    def test_save_is_idempotent(self, tmp_path):
        case = generate_case("trace", 9)
        first = save_case(case, tmp_path)
        second = save_case(case, tmp_path)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "kind": "trace",
                                    "spec": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_case(path)


class TestDivergenceReporting:
    def test_divergence_error_names_oracle(self):
        err = DivergenceError("replay", "boom")
        assert err.oracle == "replay"
        assert "replay" in str(err) and "boom" in str(err)

    def test_fuzz_records_and_shrinks_divergences(self, tmp_path):
        from repro.fuzz.runner import inject_eviction_off_by_one
        with inject_eviction_off_by_one():
            report = run_fuzz(seed=0, cases=4,
                              oracle_names=("replay",),
                              kinds=("trace",),
                              corpus_dir=tmp_path,
                              max_shrink_evals=150)
        assert not report.ok
        assert report.divergences
        first = report.divergences[0]
        assert first.oracle == "replay"
        assert first.shrunk_spec is not None
        assert len(first.shrunk_spec["rows"]) \
            <= len(first.spec["rows"])
        saved = list(tmp_path.glob("*.json"))
        assert saved and first.corpus_file in {p.name for p in saved}


class TestFuzzCli:
    def test_json_report_and_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main
        report_path = tmp_path / "report.json"
        code = main(["fuzz", "--seed", "3", "--cases", "2",
                     "--report", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["cases_run"] == 2
        summary = capsys.readouterr().err
        assert "2 cases" in summary and "0 divergence(s)" in summary

    def test_report_to_stdout(self, capsys):
        from repro.__main__ import main
        code = main(["fuzz", "--seed", "3", "--cases", "1",
                     "--oracles", "replay,invariants"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["oracle_runs"]) <= {"replay", "invariants"}

    def test_unknown_oracle_is_an_error(self):
        from repro.__main__ import main
        with pytest.raises(ValueError, match="unknown oracle"):
            main(["fuzz", "--cases", "1", "--oracles", "bogus"])


def _case_for_spec(kind, spec):
    return FuzzCase(kind=kind, spec=spec, label="handmade")


class TestInvariantCheckers:
    def test_conservation_catches_bad_counts(self):
        from repro.fuzz.invariants import check_conservation
        case = generate_case("trace", 0)
        trace, config = case.trace(), CacheConfig()
        from repro.cache.model import simulate_trace
        stats = simulate_trace(trace, config)
        pc = next(iter(stats.load_accesses))
        stats.load_misses[pc] = stats.load_accesses[pc] + 1
        with pytest.raises(DivergenceError, match="misses"):
            check_conservation(trace, config, stats)

    def test_phi_stable_under_reordering(self):
        from repro.fuzz.invariants import check_phi_stability
        from repro.patterns.builder import build_load_infos
        program = compile_source(
            generate_case("minic", 8).source())
        check_phi_stability(build_load_infos(program))
