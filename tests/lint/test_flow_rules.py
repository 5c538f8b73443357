"""Positive + negative coverage for every flow rule (F201-F208).

Each test builds a miniature ``tussle``-shaped package tree under
tmp_path (the subsystem vocabulary of F202/F205/F207 keys off the
``tussle.<subsystem>`` dotted-name prefix) and lints it; the F rules
run inside that one lint run with the D/E/X families.
"""

import textwrap

import pytest

from tussle.lint import run_lint


def write_tree(root, files):
    """Create a package tree: {relative_path: source} with __init__.py."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for ancestor in path.parents:
            if ancestor == root:
                break
            init = ancestor / "__init__.py"
            if not init.exists():
                init.write_text("")
        path.write_text(textwrap.dedent(source))
    return root / "tussle"


def rule_ids_of(report):
    return sorted({f.rule_id for f in report.active})


class TestF201SeedProvenance:
    def test_unseedlike_param_with_no_callers_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build(knob):
                    return random.Random(knob)
            """,
        })
        report = run_lint([pkg])
        assert "F201" in rule_ids_of(report)

    def test_seed_named_param_is_a_terminal(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build(seed):
                    return random.Random(seed)
            """,
        })
        report = run_lint([pkg])
        assert "F201" not in rule_ids_of(report)

    def test_interprocedural_trace_through_caller(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build(knob):
                    return random.Random(knob)

                def top(seed):
                    return build(seed)
            """,
        })
        report = run_lint([pkg])
        assert "F201" not in rule_ids_of(report)

    def test_caller_passing_untraced_value_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random
                import os

                def build(knob):
                    return random.Random(knob)

                def top():
                    return build(os.getpid())
            """,
        })
        report = run_lint([pkg])
        assert "F201" in rule_ids_of(report)

    def test_derive_seed_is_a_sanctioned_derivation(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/sweep/cells.py": """
                def derive_seed(base_seed, index):
                    return (base_seed * 31 + index) % (2 ** 63)
            """,
            "tussle/econ/mod.py": """
                import random

                from tussle.sweep.cells import derive_seed

                def build(seed, index):
                    return random.Random(derive_seed(seed, index))
            """,
        })
        report = run_lint([pkg])
        assert "F201" not in rule_ids_of(report)

    def test_explicit_none_seed_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build():
                    return random.Random(None)
            """,
        })
        report = run_lint([pkg])
        assert "F201" in rule_ids_of(report)


class TestF202SharedStream:
    def test_rng_fanned_into_two_subsystems_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/market.py": """
                def step_market(rng):
                    return rng.random()
            """,
            "tussle/netsim/sim.py": """
                def step_net(rng):
                    return rng.random()
            """,
            "tussle/experiments/run.py": """
                import random

                from tussle.econ.market import step_market
                from tussle.netsim.sim import step_net

                def run_both(seed):
                    rng = random.Random(seed)
                    return step_market(rng) + step_net(rng)
            """,
        })
        report = run_lint([pkg])
        assert "F202" in rule_ids_of(report)

    def test_one_subsystem_per_rng_is_clean(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/market.py": """
                def step_market(rng):
                    return rng.random()
            """,
            "tussle/netsim/sim.py": """
                def step_net(rng):
                    return rng.random()
            """,
            "tussle/experiments/run.py": """
                import random

                from tussle.econ.market import step_market
                from tussle.netsim.sim import step_net

                def run_both(seed):
                    market_rng = random.Random(seed)
                    net_rng = random.Random(seed + 1)
                    return step_market(market_rng) + step_net(net_rng)
            """,
        })
        report = run_lint([pkg])
        assert "F202" not in rule_ids_of(report)


class TestF203ExecutorBoundary:
    def test_rng_in_pool_map_payload_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/sweep/par.py": """
                import random

                def work(item):
                    return item

                def fan_out(pool, seed):
                    rng = random.Random(seed)
                    return pool.map(work, [rng])
            """,
        })
        report = run_lint([pkg])
        assert "F203" in rule_ids_of(report)

    def test_seed_in_payload_is_clean(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/sweep/par.py": """
                def work(item):
                    return item

                def fan_out(pool, seed):
                    return pool.map(work, [seed])
            """,
        })
        report = run_lint([pkg])
        assert "F203" not in rule_ids_of(report)


class TestF204RngDefault:
    def test_rng_constructed_in_default_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def sample(rng=random.Random(0)):
                    return rng.random()
            """,
        })
        report = run_lint([pkg])
        assert "F204" in rule_ids_of(report)

    def test_none_default_is_clean(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def sample(seed, rng=None):
                    rng = rng if rng is not None else random.Random(seed)
                    return rng.random()
            """,
        })
        report = run_lint([pkg])
        assert "F204" not in rule_ids_of(report)


class TestF205PureContract:
    def test_param_mutation_in_decision_module_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/decision.py": """
                def pick(offers):
                    offers.sort()
                    return offers[0]
            """,
        })
        report = run_lint([pkg])
        assert "F205" in rule_ids_of(report)

    def test_transitive_mutation_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/helpers.py": """
                def stamp(record):
                    record.append("seen")
            """,
            "tussle/econ/decision.py": """
                from tussle.econ.helpers import stamp

                def pick(offers):
                    stamp(offers)
                    return offers[0]
            """,
        })
        report = run_lint([pkg])
        assert "F205" in rule_ids_of(report)

    def test_pure_decision_module_is_clean(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/decision.py": """
                import math

                def effective(price, quality):
                    return price - math.log1p(quality)
            """,
        })
        report = run_lint([pkg])
        assert rule_ids_of(report) == []

    def test_local_mutation_stays_pure(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/decision.py": """
                def ranked(offers):
                    out = list(offers)
                    out.sort()
                    return out
            """,
        })
        report = run_lint([pkg])
        assert "F205" not in rule_ids_of(report)


class TestF206UnverifiablePurity:
    def test_unknown_external_call_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/decision.py": """
                import frobnicate

                def pick(offers):
                    return frobnicate.munge(offers)
            """,
        })
        report = run_lint([pkg])
        assert "F206" in rule_ids_of(report)

    def test_known_pure_external_is_clean(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/decision.py": """
                import math

                def pick(x):
                    return math.sqrt(x)
            """,
        })
        report = run_lint([pkg])
        assert "F206" not in rule_ids_of(report)


class TestF207WorkerGlobalMutation:
    def test_global_write_reachable_from_experiment_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/obs/stats.py": """
                COUNT = 0

                def bump():
                    global COUNT
                    COUNT += 1
            """,
            "tussle/experiments/e99.py": """
                from tussle.obs.stats import bump

                def run_e99(seed=0):
                    bump()
                    return seed
            """,
        })
        report = run_lint([pkg])
        assert "F207" in rule_ids_of(report)

    def test_unreachable_global_write_is_not_a_worker_finding(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/obs/stats.py": """
                COUNT = 0

                def bump():
                    global COUNT
                    COUNT += 1
            """,
            "tussle/experiments/e99.py": """
                def run_e99(seed=0):
                    return seed
            """,
        })
        report = run_lint([pkg])
        assert "F207" not in rule_ids_of(report)


class TestF208UnpicklableCapture:
    def test_lambda_through_pool_map_fires(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/sweep/par.py": """
                def fan_out(pool, items):
                    return pool.map(lambda item: item + 1, items)
            """,
        })
        report = run_lint([pkg])
        assert "F208" in rule_ids_of(report)

    def test_module_level_function_is_clean(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/sweep/par.py": """
                def work(item):
                    return item + 1

                def fan_out(pool, items):
                    return pool.map(work, items)
            """,
        })
        report = run_lint([pkg])
        assert "F208" not in rule_ids_of(report)


class TestFlowSuppressionsAndStaleness:
    def test_inline_suppression_by_id(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build(knob):
                    return random.Random(knob)  # lint: disable=F201
            """,
        })
        report = run_lint([pkg])
        assert "F201" not in rule_ids_of(report)
        assert any(f.rule_id == "F201" for f in report.suppressed)

    def test_stale_f_suppression_reported_by_flow_run(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build(seed):
                    return random.Random(seed)  # lint: disable=F201
            """,
        })
        report = run_lint([pkg])
        assert "X303" in rule_ids_of(report)

    def test_stale_d_suppression_fires_x303(self, tmp_path):
        pkg = write_tree(tmp_path, {
            "tussle/econ/mod.py": """
                import random

                def build(seed):
                    return random.Random(seed)  # lint: disable=D999
            """,
        })
        report = run_lint([pkg])
        assert "X303" in rule_ids_of(report)


def test_flow_rules_have_positive_and_negative_coverage():
    """Meta: this file exercises every F rule in both directions."""
    import pathlib

    source = pathlib.Path(__file__).read_text()
    for rule in ("F201", "F202", "F203", "F204",
                 "F205", "F206", "F207", "F208"):
        assert f'"{rule}" in rule_ids_of' in source
        assert f'"{rule}" not in rule_ids_of' in source
