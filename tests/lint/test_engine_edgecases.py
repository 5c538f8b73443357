"""Engine robustness: broken sources, stale suppressions, stale baselines.

The analyzer is a gate; a gate that crashes on weird input fails open.
Every degenerate file shape must come back as a structured finding
(X304) or a clean pass — never a traceback.
"""

import json
import textwrap

import pytest

from tussle.errors import LintError
from tussle.lint import load_baseline, run_lint, update_baseline
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


class TestStaleBaseline:
    def _baseline(self, tmp_path, entries):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": entries}))
        return path

    def test_stale_entry_reported_and_fails_the_gate(self, tmp_path, capsys):
        mod = write_module(tmp_path, "value = 1\n")
        baseline = self._baseline(tmp_path, [
            {"rule": "D101", "path": str(mod), "count": 2},
        ])
        assert main([str(mod), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "--update-baseline" in out

    def test_partially_consumed_budget_reports_the_leftover(self, tmp_path):
        mod = write_module(tmp_path, """
            import random
            value = random.random()
        """)
        baseline = self._baseline(tmp_path, [
            {"rule": "D101", "path": str(mod), "count": 3},
        ])
        report = run_lint([mod], baseline=load_baseline(baseline))
        assert report.stale_baseline == [
            {"rule": "D101", "path": str(mod), "count": 2},
        ]
        assert not report.clean

    def test_exact_budget_is_clean(self, tmp_path):
        mod = write_module(tmp_path, """
            import random
            value = random.random()
        """)
        baseline = self._baseline(tmp_path, [
            {"rule": "D101", "path": str(mod), "count": 1},
        ])
        report = run_lint([mod], baseline=load_baseline(baseline))
        assert report.stale_baseline == []
        assert report.clean

    def test_update_baseline_prunes_stale_entries(self, tmp_path, capsys):
        mod = write_module(tmp_path, """
            import random
            value = random.random()
        """)
        baseline = self._baseline(tmp_path, [
            {"rule": "D101", "path": str(mod), "count": 1},
            {"rule": "D104", "path": str(mod), "count": 4},  # long fixed
        ])
        assert main([str(mod), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        rewritten = json.loads(baseline.read_text())
        rules = {e["rule"]: e["count"] for e in rewritten["entries"]}
        assert rules == {"D101": 1}
        # And the gate now passes against the pruned baseline.
        assert main([str(mod), "--baseline", str(baseline)]) == 0

    def test_update_baseline_keeps_grandfathered_findings(self, tmp_path):
        mod = write_module(tmp_path, """
            import random
            value = random.random()
        """)
        baseline = self._baseline(tmp_path, [
            {"rule": "D101", "path": str(mod), "count": 1},
        ])
        report = run_lint([mod], baseline=load_baseline(baseline))
        rewritten = update_baseline(baseline, report.findings)
        assert rewritten.budgets == {("D101", str(mod)): 1}

    def test_update_baseline_drops_inline_suppressed_findings(self, tmp_path):
        mod = write_module(tmp_path, """
            import random
            value = random.random()  # lint: disable=D101
        """)
        report = run_lint([mod])
        baseline_path = tmp_path / "baseline.json"
        rewritten = update_baseline(baseline_path, report.findings)
        assert ("D101", str(mod)) not in rewritten.budgets
