"""Engine robustness: broken sources and stale suppressions.

The analyzer is a gate; a gate that crashes on weird input fails open.
Every degenerate file shape must come back as a structured finding
(X304) or a clean pass — never a traceback.
"""

import textwrap

import pytest

from tussle.errors import LintError
from tussle.lint import run_lint
from tussle.lint.cli import main
from tussle.lint.context import parse_module


def write_module(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


class TestBrokenSources:
    def test_syntax_error_becomes_x304_finding(self, tmp_path):
        write_module(tmp_path, "import random\n", name="good.py")
        bad = write_module(tmp_path, "def broken(:\n", name="bad.py")
        report = run_lint([tmp_path])
        assert report.files_scanned == 2
        x304 = [f for f in report.active if f.rule_id == "X304"]
        assert len(x304) == 1
        assert x304[0].path == str(bad)
        assert "syntax" in x304[0].message.lower()

    def test_non_utf8_source_becomes_x304_finding(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"# caf\xe9\nx = 1\n")
        report = run_lint([tmp_path])
        x304 = [f for f in report.active if f.rule_id == "X304"]
        assert len(x304) == 1
        assert "decode" in x304[0].message

    def test_empty_module_is_clean(self, tmp_path):
        write_module(tmp_path, "", name="empty.py")
        report = run_lint([tmp_path])
        assert report.files_scanned == 1
        assert report.clean

    def test_file_deleted_between_discovery_and_parse(self, tmp_path,
                                                      monkeypatch):
        write_module(tmp_path, "x = 1\n", name="stays.py")
        doomed = write_module(tmp_path, "y = 2\n", name="vanishes.py")

        import tussle.lint.engine as engine_mod
        real_parse = engine_mod.parse_module

        def racing_parse(path):
            if path == doomed:
                doomed.unlink()  # the race: gone before we read it
            return real_parse(path)

        monkeypatch.setattr(engine_mod, "parse_module", racing_parse)
        report = run_lint([tmp_path])
        assert report.files_scanned == 2
        x304 = [f for f in report.active if f.rule_id == "X304"]
        assert len(x304) == 1
        assert x304[0].path == str(doomed)

    def test_parse_module_raises_lint_error_not_unicode_error(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"x = '\xff\xfe'\n")
        with pytest.raises(LintError):
            parse_module(bad)

    def test_cli_broken_file_exits_one_not_two(self, tmp_path, capsys):
        write_module(tmp_path, "def broken(:\n")
        assert main([str(tmp_path)]) == 1
        assert "X304" in capsys.readouterr().out


class TestStaleSuppressions:
    def test_stale_disable_comment_fires_x303(self, tmp_path):
        path = write_module(tmp_path, """
            value = 41 + 1  # lint: disable=D101
        """)
        report = run_lint([path])
        x303 = [f for f in report.active if f.rule_id == "X303"]
        assert len(x303) == 1
        assert "D101" in x303[0].message

    def test_used_disable_comment_is_not_stale(self, tmp_path):
        path = write_module(tmp_path, """
            import random
            value = random.random()  # lint: disable=D101
        """)
        report = run_lint([path])
        assert not [f for f in report.active if f.rule_id == "X303"]

    def test_stale_noqa_is_never_audited(self, tmp_path):
        path = write_module(tmp_path, """
            value = 41 + 1  # noqa: E501
        """)
        report = run_lint([path])
        assert report.clean

    def test_mention_in_docstring_is_not_audited(self, tmp_path):
        path = write_module(tmp_path, '''
            """Suppress findings with `# lint: disable=D101` comments."""
            value = 1
        ''')
        report = run_lint([path])
        assert report.clean

    def test_stale_f_rule_id_fires_x303(self, tmp_path):
        path = write_module(tmp_path, """
            value = 41 + 1  # lint: disable=F201
        """)
        report = run_lint([path])
        x303 = [f for f in report.active if f.rule_id == "X303"]
        assert len(x303) == 1
        assert "F201" in x303[0].message

    def test_bare_disable_consumed_by_an_f_finding(self, tmp_path):
        path = write_module(tmp_path, """
            import random

            def build(knob):
                return random.Random(knob)  # lint: disable
        """)
        report = run_lint([path])
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["F201"]

    def test_stale_bare_disable_fires_x303(self, tmp_path):
        path = write_module(tmp_path, """
            value = 41 + 1  # lint: disable
        """)
        report = run_lint([path])
        x303 = [f for f in report.active if f.rule_id == "X303"]
        assert len(x303) == 1

    def test_x303_cannot_be_silenced_by_the_audited_comment(self, tmp_path):
        path = write_module(tmp_path, """
            value = 41 + 1  # lint: disable=X303
        """)
        report = run_lint([path])
        assert [f for f in report.active if f.rule_id == "X303"]

