"""Engine plumbing: suppressions, CLI exit codes and formats."""

import json
import textwrap

from tussle.lint import rule_ids, run_lint
from tussle.lint.cli import main


def write_module(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


DIRTY = """
    import random
    value = random.random()
"""


class TestInlineSuppressions:
    def test_lint_disable_comment(self, tmp_path):
        path = write_module(tmp_path, """
            import random
            value = random.random()  # lint: disable=D101
        """)
        report = run_lint([path])
        assert report.clean
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppression_source == "inline"

    def test_noqa_alias(self, tmp_path):
        path = write_module(tmp_path, """
            import random
            value = random.random()  # noqa: D101
        """)
        report = run_lint([path])
        assert report.clean

    def test_bare_disable_suppresses_all_rules_on_line(self, tmp_path):
        path = write_module(tmp_path, """
            import random
            value = random.random()  # lint: disable
        """)
        report = run_lint([path])
        assert report.clean

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        path = write_module(tmp_path, """
            import random
            value = random.random()  # lint: disable=D999
        """)
        report = run_lint([path])
        assert not report.clean


class TestSelect:
    def test_select_filters_families(self, tmp_path):
        path = write_module(tmp_path, """
            import random
            value = random.random()

            def check():
                raise ValueError("boom")
        """)
        everything = run_lint([path])
        assert {f.rule_id for f in everything.active} == {"D101", "X301"}
        only_d = run_lint([path], select=["D"])
        assert {f.rule_id for f in only_d.active} == {"D101"}


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write_module(tmp_path, "x = 1\n")
        assert main([str(path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = write_module(tmp_path, DIRTY)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "D101" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "tussle-lint" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        path = write_module(tmp_path, DIRTY)
        assert main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "D101"

    def test_list_rules_has_catalog(self, capsys):
        assert main(["--list-rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = {entry["id"] for entry in payload}
        assert len(ids) >= 10
        assert {"D101", "D107", "E201", "X301", "X302"} <= ids

    def test_kernel_candidates_in_text_and_json(self, tmp_path, capsys):
        pkg = tmp_path / "tussle" / "routing"
        pkg.mkdir(parents=True)
        (tmp_path / "tussle" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "hops.py").write_text(
            "def hop_count(path):\n    return len(path) - 1\n")
        root = str(tmp_path / "tussle")
        assert main([root]) == 0
        assert "kernel-eligible" not in capsys.readouterr().out
        assert main([root, "--kernel-candidates"]) == 0
        out = capsys.readouterr().out
        assert "1 kernel-eligible pure functions:" in out
        assert "[pure] tussle.routing.hops.hop_count" in out
        assert main([root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["function"] for c in payload["kernel_candidates"]] == [
            "tussle.routing.hops.hop_count"]

    def test_show_suppressed(self, tmp_path, capsys):
        path = write_module(tmp_path, """
            import random
            value = random.random()  # lint: disable=D101
        """)
        assert main([str(path), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "suppressed: inline" in out


def test_rule_ids_are_stable_and_plentiful():
    ids = rule_ids()
    assert len(ids) >= 10
    families = {i[0] for i in ids}
    assert families == {"D", "E", "F", "X"}
