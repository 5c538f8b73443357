"""No code is written twice: a copied run of six code lines anywhere in
``src/tussle`` fails the suite.

The scan normalizes whitespace, drops blank lines, comments, docstrings
and import statements, and slides a window of ``WINDOW`` code lines over
every module.  A window that occurs twice, in one file or in two, is a
copy: give the definition one home and make every user read it.
Rewording one side until the scan stops matching does not count.
"""

import ast
import io
import textwrap
import tokenize
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "tussle"

#: Consecutive code lines that make a copy.
WINDOW = 6

#: Module pairs whose shared windows are deliberate.  Log every edit to
#: this set in CHANGES.md.
ALLOWED = {
    # The scalar ``Market`` is the parity reference for ``VectorMarket``:
    # its measurement helpers and round record stay written out so that
    # the reference does not depend on the backend it checks.
    frozenset({"econ/market.py", "scale/vmarket.py"}),
}


def code_lines(source):
    """``(line number, normalized text)`` for each line of ``source``
    that holds code other than an import or a docstring."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    lines = source.splitlines()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    for number, line in enumerate(lines, 1):
        text = " ".join(line.split())
        if text and number not in skipped:
            yield number, text


def copies(modules, window=WINDOW):
    """Map each pair of module names to the lines of each side that sit
    in a window also found on the other side (the same name twice for a
    copy within one module)."""
    seen = defaultdict(list)
    for name, source in modules.items():
        lines = list(code_lines(source))
        for start in range(len(lines) - window + 1):
            run = lines[start:start + window]
            seen[tuple(text for _, text in run)].append(
                (name, [number for number, _ in run]))
    found = defaultdict(lambda: defaultdict(set))
    for places in seen.values():
        for i, (left, left_lines) in enumerate(places):
            for right, right_lines in places[i + 1:]:
                pair = tuple(sorted((left, right)))
                found[pair][left].update(left_lines)
                found[pair][right].update(right_lines)
    return found


def package_modules(root=PACKAGE):
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(root.rglob("*.py"))}


def report(found):
    lines = []
    for (left, right), sides in sorted(found.items()):
        counts = ", ".join(f"{name} {len(numbers)} lines from line "
                           f"{min(numbers)}" for name, numbers in
                           sorted(sides.items()))
        lines.append(f"{left} <-> {right}: {counts}")
    return lines


def test_no_code_is_copied():
    modules = package_modules()
    assert len(modules) > 100, "found too few modules under src/tussle"
    found = {pair: sides for pair, sides in copies(modules).items()
             if frozenset(pair) not in ALLOWED}
    assert not found, (
        f"these runs of {WINDOW}+ code lines are written twice; give each "
        "one definition that every user reads:\n  "
        + "\n  ".join(report(found)))


def test_every_allowed_pair_still_shares_code():
    # An entry that no longer matches hides nothing; drop it.
    shared = {frozenset(pair) for pair in copies(package_modules())}
    assert ALLOWED <= shared, ALLOWED - shared


BODY = textwrap.dedent("""
    def total(values):
        out = 0
        for value in values:
            if value > 0:
                out += value
            else:
                out -= value
        return out
""")


def test_copy_across_modules_is_found_on_both_sides():
    found = copies({"a": BODY, "b": "x = 1\n" + BODY})
    assert list(found) == [("a", "b")]
    assert {name: len(lines) for name, lines in found[("a", "b")].items()} == {
        "a": 8, "b": 8}


def test_copy_within_one_module_is_found():
    found = copies({"a": BODY + BODY.replace("total", "other")})
    assert list(found) == [("a", "a")]
    assert len(found[("a", "a")]["a"]) == 14


def test_reindented_copy_is_found():
    assert copies({"a": BODY, "b": BODY.replace("    ", "  ") + "\n\n"})


def test_comments_docstrings_blanks_and_imports_are_not_code():
    padded = BODY.replace(
        "    out = 0", '    """Doc."""\n    import os\n\n    out = 0  # start')
    assert copies({"a": BODY, "b": padded})
    doc = '"""One\ntwo\nthree\nfour\nfive\nsix\nseven\n"""\n'
    imports = "".join(f"import m{i}\n" for i in range(8))
    comments = "".join(f"# line {i}\n" for i in range(8))
    assert not copies({"a": doc + imports + comments, "b": doc + imports + comments})


def test_five_shared_lines_are_not_a_copy():
    five = "a = 1\nb = 2\nc = 3\nd = 4\ne = 5\n"
    assert not copies({"a": five + "f = 6\n", "b": five + "g = 7\n"})
