"""CLI tests for python -m repro."""

import socket

import pytest

from repro.__main__ import main

PROG = r"""
int a[512];
int main(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < 512; i = i + 1)
        a[i] = i;
    for (i = 0; i < 512; i = i + 1)
        s = s + a[i];
    print_int(s + n);
    return 0;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROG)
    return str(path)


@pytest.fixture()
def unused_address():
    """HOST:PORT of a local port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"127.0.0.1:{port}"


class TestRun:
    def test_run_prints_output(self, source_file, capsys):
        code = main(["run", source_file])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            str(sum(range(512)))

    def test_run_with_args(self, source_file, capsys):
        main(["run", source_file, "--args", "10"])
        assert capsys.readouterr().out.strip() == \
            str(sum(range(512)) + 10)

    def test_run_optimized(self, source_file, capsys):
        main(["run", source_file, "-O"])
        assert capsys.readouterr().out.strip() == \
            str(sum(range(512)))


class TestAnalyze:
    def test_analyze_output(self, source_file, capsys):
        code = main(["analyze", source_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "|Lambda|" in out
        assert "pi =" in out
        assert "rho" in out
        assert "pattern:" in out

    def test_analyze_static(self, source_file, capsys):
        code = main(["analyze", source_file, "--static"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho" not in out          # no execution, no coverage
        assert "|Delta|" in out

    def test_analyze_delta(self, source_file, capsys):
        main(["analyze", source_file, "--delta", "9.9"])
        out = capsys.readouterr().out
        assert "|Delta| = 0" in out

    @pytest.mark.parametrize("flag", ["--static", "--analytic"])
    def test_remote_refuses_no_execution_flags(self, source_file,
                                               unused_address, capsys,
                                               flag):
        # the served analyze op executes the program and classify has
        # no static-frequency classes: refuse before connecting, so an
        # unused port yields a usage error (2), not a connect error (3)
        code = main(["analyze", source_file, flag,
                     "--remote", unused_address])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "--remote" in err


class TestMissingSource:
    def test_missing_file_is_a_clean_error(self, capsys):
        code = main(["analyze", "/no/such/file.c"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert "/no/such/file.c" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_other_commands(self, capsys):
        for command in ("run", "disasm", "asm", "verify", "tlb",
                        "redundancy"):
            assert main([command, "/no/such/file.c"]) == 2
            assert "repro: error:" in capsys.readouterr().err

    def test_oserror_during_output_is_exit_2(self, source_file,
                                             capsys):
        """main() maps *any* OSError — not just a missing source — to
        a tracebackless diagnostic and exit code 2."""
        code = main(["analyze", str(source_file), "--static",
                     "--json", "/no/such/dir/out.json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert "Traceback" not in captured.err


#: The verbs that answer a service op, locally or with ``--remote``.
OP_VERBS = ("analyze", "predict", "tlb", "redundancy")

#: One MiniC program per compile-error family member.
BAD_SOURCES = {
    "lex": "int main() { return 1 @ 2; }",
    "parse": "int main( {",
    "semantic": "int main() { return undefined_name; }",
    "codegen": ("int f(int a, int b, int c, int d, int e) { return a; }\n"
                "int main() { return f(1, 2, 3, 4, 5); }"),
}


@pytest.fixture()
def no_connect(monkeypatch):
    """Fail the test if anything opens a connection."""
    def refuse(*args, **kwargs):
        raise AssertionError("connection attempted")
    monkeypatch.setattr(socket, "create_connection", refuse)


class TestExitCodes:
    """2: the request was wrong; 3: the service failed."""

    @pytest.mark.parametrize("verb", OP_VERBS)
    @pytest.mark.parametrize("address", ["no-port", "host:notaport"])
    def test_malformed_remote_address_is_a_usage_error(
            self, verb, address, source_file, no_connect, capsys):
        assert main([verb, source_file, "--remote", address]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and address in err

    @pytest.mark.parametrize("verb", OP_VERBS)
    def test_empty_source_fails_before_connecting(
            self, verb, tmp_path, unused_address, no_connect, capsys):
        path = tmp_path / "empty.c"
        path.write_text("")
        assert main([verb, str(path), "--remote", unused_address]) == 2
        assert "param 'source'" in capsys.readouterr().err

    def test_bad_threshold_fails_before_connecting(
            self, source_file, unused_address, no_connect, capsys):
        code = main(["tlb", source_file, "--threshold", "1.5",
                     "--remote", unused_address])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", OP_VERBS)
    def test_unreachable_service_is_a_service_error(
            self, verb, source_file, unused_address, capsys):
        assert main([verb, source_file, "--remote", unused_address]) == 3
        assert capsys.readouterr().err.startswith("repro: service error:")

    def test_redundancy_on_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.c"
        path.write_text("")
        assert main(["redundancy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", sorted(BAD_SOURCES))
    @pytest.mark.parametrize("verb", OP_VERBS + ("run", "disasm", "asm",
                                                 "verify"))
    def test_compile_error_is_a_usage_error(self, verb, kind, tmp_path,
                                            capsys):
        path = tmp_path / "bad.c"
        path.write_text(BAD_SOURCES[kind])
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err
        if kind != "codegen":       # codegen errors carry no line
            assert err.startswith("repro: error: line 1: ")


class TestCodeViews:
    def test_disasm(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        out = capsys.readouterr().out
        assert "<main>" in out
        assert "lw $" in out

    def test_asm(self, source_file, capsys):
        assert main(["asm", source_file]) == 0
        out = capsys.readouterr().out
        assert ".ent main" in out
        assert "%gp(a)" in out


class TestTables:
    """``tables`` is an alias of ``campaign``."""

    def test_tables_forwarding(self, tmp_path, capsys):
        code = main(["tables", "--tables", "6", "--scale", "0.05",
                     "--no-disk-cache", "--echo-tables",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "Table 6" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestWarm:
    """``warm`` is an alias of ``campaign``."""

    def test_warm_filtered(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(["warm", "--tables", "6", "--scale", "0.03",
                     "--jobs", "2", "--cache-dir", str(cache_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign:" in out
        assert "1 table(s)" in out
        assert (cache_dir / "campaign" / "tables" / "table06.txt").exists()

    def test_warm_unknown_table(self, tmp_path, capsys):
        code = main(["warm", "--tables", "99",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "unknown tables" in capsys.readouterr().err

    def test_warm_has_no_workloads_filter(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["warm", "--workloads", "129.compress",
                  "--cache-dir", str(tmp_path / "cache")])


class TestJsonExport:
    def test_analyze_json(self, source_file, capsys):
        import json
        code = main(["analyze", source_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["summary"]["num_loads"] > 0
        assert isinstance(payload["loads"], list)

    def test_analyze_json_static(self, source_file, capsys):
        import json
        main(["analyze", source_file, "--json", "--static"])
        payload = json.loads(capsys.readouterr().out)
        assert "rho" not in payload["summary"]

    def test_analyze_json_to_file(self, source_file, tmp_path,
                                  capsys):
        import json
        destination = tmp_path / "report.json"
        code = main(["analyze", source_file,
                     "--json", str(destination)])
        assert code == 0
        assert capsys.readouterr().out == ""
        main(["analyze", source_file, "--json"])
        stdout_payload = capsys.readouterr().out
        # the file and stdout forms carry the identical document
        assert destination.read_text() == stdout_payload
        payload = json.loads(destination.read_text())
        assert payload["schema_version"] == 1


class TestVerify:
    def test_verify_clean(self, source_file, capsys):
        code = main(["verify", source_file])
        assert code == 0
        assert "0 issue(s)" in capsys.readouterr().out

    def test_verify_optimized(self, source_file, capsys):
        assert main(["verify", source_file, "-O"]) == 0
