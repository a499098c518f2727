"""Integration tests for the command-line interface."""

import pytest

from repro.algebra.plan import NO_PLAN
from repro.cli import main


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.xml"
    path.write_text('<inv><item id="1"/><item id="2"/></inv>')
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInlineQueries:
    def test_count(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, ["-q", "count($doc//item)", "--doc", f"doc={data_file}"]
        )
        assert code == 0
        assert out.strip() == "2"

    def test_xml_output(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, ["-q", "($doc//item)[1]", "--doc", f"doc={data_file}"]
        )
        assert code == 0
        assert out.strip() == '<item id="1"/>'

    def test_var_binding(self, capsys):
        code, out, _ = run_cli(
            capsys, ["-q", "concat($greet, '!')", "--var", "greet=hi"]
        )
        assert code == 0 and out.strip() == "hi!"

    def test_fragment_binding_and_update(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "-q",
                "snap insert { <n/> } into { $x }, count($x/n)",
                "--fragment",
                "x=<x/>",
            ],
        )
        assert code == 0 and out.strip() == "1"

    def test_semantics_flag(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "-q",
                'rename {$x/a} to {"p"}, rename {$x/a} to {"q"}',
                "--fragment",
                "x=<x><a/></x>",
                "--semantics",
                "conflict-detection",
            ],
        )
        assert code == 1
        assert "XUDY0024" in err


class TestQueryFiles:
    def test_file_query(self, capsys, tmp_path, data_file):
        query = tmp_path / "q.xq"
        query.write_text(
            "declare function twice($n) { $n * 2 };\n"
            "twice(count($doc//item))\n"
        )
        code, out, _ = run_cli(
            capsys, [str(query), "--doc", f"doc={data_file}"]
        )
        assert code == 0 and out.strip() == "4"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["/nonexistent.xq"])
        assert code == 2 and "error" in err

    def test_missing_document(self, capsys):
        code, _, err = run_cli(
            capsys, ["-q", "1", "--doc", "doc=/nonexistent.xml"]
        )
        assert code == 2 and "error" in err


class TestPlanAndOptimize:
    def test_plan_output(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys,
            [
                "-q",
                "for $i in $doc//item let $k := 1 return $i",
                "--doc",
                f"doc={data_file}",
                "--plan",
            ],
        )
        assert code == 0
        assert "Snap[ordered]" in out
        assert "MapConcat[i]" in out

    def test_plan_flag_notes_a_query_without_plan(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys,
            [
                "-q",
                "for $i in $doc//item return string($i/@id)",
                "--doc",
                f"doc={data_file}",
                "--plan",
            ],
        )
        assert code == 0 and out.strip() == NO_PLAN


class TestRepl:
    def run_repl(self, capsys, monkeypatch, lines):
        inputs = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(inputs)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        code = main(["--repl", "--fragment", "x=<x><a/></x>"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_query_and_quit(self, capsys, monkeypatch):
        code, out, _ = self.run_repl(
            capsys, monkeypatch, ["count($x/a)", "", ":quit"]
        )
        assert code == 0
        assert "1" in out

    def test_multiline_query(self, capsys, monkeypatch):
        code, out, _ = self.run_repl(
            capsys, monkeypatch, ["for $i in 1 to 3", "return $i * 2", "", ":q"]
        )
        assert code == 0
        assert "2 4 6" in out

    def test_error_recovers(self, capsys, monkeypatch):
        code, out, err = self.run_repl(
            capsys, monkeypatch, ["$nope", "", "1 + 1", "", ":q"]
        )
        assert code == 0
        assert "error" in err
        assert "2" in out

    def test_plan_toggle(self, capsys, monkeypatch):
        code, out, _ = self.run_repl(
            capsys, monkeypatch,
            [":plan on", "for $i in $x/a let $k := 1 return $i", "", ":q"],
        )
        assert code == 0
        assert "Snap[ordered]" in out

    def test_eof_exits(self, capsys, monkeypatch):
        code, _, _ = self.run_repl(capsys, monkeypatch, [])
        assert code == 0

    def test_state_persists_between_queries(self, capsys, monkeypatch):
        code, out, _ = self.run_repl(
            capsys, monkeypatch,
            ["snap insert { <b/> } into { $x }", "", "count($x/b)", "", ":q"],
        )
        assert code == 0
        assert "1" in out


class TestPersistenceFlags:
    def test_save_and_load_roundtrip(self, capsys, tmp_path, data_file):
        db = str(tmp_path / "state.json")
        code, _, _ = run_cli(
            capsys,
            [
                "-q",
                "snap insert { <item id='3'/> } into { $doc/inv }",
                "--doc",
                f"doc={data_file}",
                "--save",
                db,
            ],
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, ["-q", "count($doc//item)", "--load", db]
        )
        assert code == 0 and out.strip() == "3"

    def test_state_only_invocation(self, capsys, tmp_path, data_file):
        db = str(tmp_path / "state.json")
        code, _, _ = run_cli(
            capsys, ["--doc", f"doc={data_file}", "--save", db]
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["-q", "count($doc//item)", "--load", db])
        assert code == 0 and out.strip() == "2"

    def test_failed_query_does_not_save(self, capsys, tmp_path, data_file):
        db = str(tmp_path / "state.json")
        code, _, _ = run_cli(
            capsys,
            ["-q", "$typo", "--doc", f"doc={data_file}", "--save", db],
        )
        assert code == 1
        import os

        assert not os.path.exists(db)


class TestErrorsAndUsage:
    def test_no_query_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 2 and "provide a query" in err

    def test_query_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["-q", "1 +"])
        assert code == 1 and "XPST0003" in err

    def test_bad_binding_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["-q", "1", "--var", "malformed"])

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, ["-q", "trace(7, 'dbg')"])
        assert code == 0
        assert out.strip() == "7"
        assert "dbg" in err
