"""The repository gates on itself: linting src/tussle must be clean.

This is the acceptance criterion of the lint subsystem — every D/E/F/X
invariant holds on the shipped tree with no suppressions, so CI can run
``python -m tussle.lint`` as a blocking check.
"""


def test_package_tree_is_lint_clean(tree_report):
    assert tree_report.files_scanned > 100
    offenders = "\n".join(f.format() for f in tree_report.active)
    assert tree_report.clean, f"lint findings in shipped tree:\n{offenders}"


def test_no_inline_suppressions_needed(tree_report):
    """The tree passes on its merits, not via scattered disables."""
    assert not tree_report.suppressed
