"""The shipped tree must pass its own whole-program analysis.

Besides the flow findings being clean, the positive proofs the flow
rules stand on hold: every RNG traces to an explicit seed, the
pure-contract modules verify pure, and worker reachability covers the
experiments.  They inspect the linked program of the session's
full-tree lint (``tree_report``, shared with ``test_self_clean.py``).
"""

from tussle.lint.flow.purity import PURE_CONTRACT_PATHS, infer_effects
from tussle.lint.flow.rngflow import trace_seed_expr
from tussle.lint.flow.workersafety import worker_entries


def test_package_tree_is_flow_clean(tree_report):
    offenders = "\n".join(f.format() for f in tree_report.active)
    assert tree_report.files_scanned > 100
    assert tree_report.clean, f"lint findings in shipped tree:\n{offenders}"
    assert not tree_report.suppressed, \
        "the shipped tree must need no suppressions"


def test_every_rng_constructor_traces_to_an_explicit_seed(tree_report):
    """Positive proof, independent of the F201 finding path."""
    program = tree_report.program
    checked = 0
    for qual, fn, _path in program.iter_functions():
        for ctor in fn["rng_ctors"]:
            ok, reason = trace_seed_expr(program, fn, ctor["seed"])
            assert ok, f"{qual}: {ctor['ctor']} does not trace: {reason}"
            checked += 1
    # The tree really does construct RNGs in many places; an empty scan
    # would make this proof vacuous.
    assert checked >= 20


def test_kernel_candidates_include_netsim_and_routing(tree_report):
    pure = [c for c in tree_report.kernel_candidates if c["pure"]]
    assert len(pure) >= 5
    subsystems = {c["function"].split(".")[1] for c in pure}
    assert "netsim" in subsystems
    assert "routing" in subsystems
    for candidate in tree_report.kernel_candidates:
        assert candidate["effects"]  # every entry carries its summary


def test_pure_contract_modules_verify_pure(tree_report):
    program = tree_report.program
    effects = infer_effects(program)

    verified = 0
    for qual, fn, path in program.iter_functions():
        if not any(path.endswith(suffix) for suffix in PURE_CONTRACT_PATHS):
            continue
        if fn["name"] == "<module>":
            continue
        effect = effects[qual]
        assert effect.is_pure, f"{qual}: {effect.describe()}"
        verified += 1
    assert verified >= 5  # decision.py + kernels.py define real functions


def test_worker_reachability_covers_experiments(tree_report):
    program = tree_report.program
    entries = worker_entries(program)
    assert "tussle.sweep.executors.run_cell" in entries
    reachable = program.reachable_from(entries)
    # Registry dispatch is synthetic, so experiment internals must be in.
    assert any(q.startswith("tussle.experiments.") for q in reachable)
    assert len(reachable) > 100
