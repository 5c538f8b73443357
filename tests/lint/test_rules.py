"""Rule-level tests: each lint rule fires on the idiom it guards and
stays quiet on the blessed replacement."""

import textwrap

import pytest

from tussle.lint import run_lint


def lint_source(tmp_path, source, filename="mod.py"):
    """Write one module into a scratch package and lint it."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([path])


def rule_ids_found(report):
    return sorted({f.rule_id for f in report.active})


class TestD101GlobalRandom:
    def test_fires_on_module_level_random(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            value = random.random()
        """)
        assert "D101" in rule_ids_found(report)

    def test_fires_through_alias(self, tmp_path):
        report = lint_source(tmp_path, """
            import random as rnd
            value = rnd.choice([1, 2])
        """)
        assert "D101" in rule_ids_found(report)

    def test_quiet_on_instance_methods(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            rng = random.Random(7)
            value = rng.random()
        """)
        assert rule_ids_found(report) == []


class TestD102LegacyNumpyRandom:
    def test_fires_on_legacy_api(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np
            values = np.random.rand(3)
        """)
        assert "D102" in rule_ids_found(report)

    def test_quiet_on_default_rng(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np
            rng = np.random.default_rng(3)
            values = rng.uniform(size=3)
        """)
        assert rule_ids_found(report) == []


class TestF201UnseededConstructor:
    def test_fires_on_unseeded_random(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            rng = random.Random()
        """)
        assert "F201" in rule_ids_found(report)

    def test_fires_on_unseeded_default_rng_imported_name(self, tmp_path):
        report = lint_source(tmp_path, """
            from numpy.random import default_rng
            rng = default_rng()
        """)
        assert "F201" in rule_ids_found(report)

    def test_fires_on_system_random(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            rng = random.SystemRandom(3)
        """)
        assert "F201" in rule_ids_found(report)

    def test_fires_in_class_body(self, tmp_path):
        report = lint_source(tmp_path, """
            import random

            class Holder:
                RNG = random.Random()
        """)
        assert "F201" in rule_ids_found(report)

    def test_fires_in_decorator_argument(self, tmp_path):
        report = lint_source(tmp_path, """
            import random

            def tag(rng):
                return lambda fn: fn

            class Holder:
                @tag(random.Random())
                def method(self):
                    return 1

            @tag(random.Random())
            def build():
                @tag(random.Random())
                def inner():
                    return 1
                return inner
        """)
        lines = sorted(f.line for f in report.active if f.rule_id == "F201")
        assert lines == [8, 12, 14]

    def test_quiet_when_seeded(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            from numpy.random import default_rng

            def build(seed):
                return random.Random(seed), default_rng(seed)
        """)
        assert rule_ids_found(report) == []


class TestD104WallClock:
    def test_fires_on_time_time(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            stamp = time.time()
        """)
        assert "D104" in rule_ids_found(report)

    def test_fires_on_datetime_now(self, tmp_path):
        report = lint_source(tmp_path, """
            from datetime import datetime
            stamp = datetime.now()
        """)
        assert "D104" in rule_ids_found(report)


class TestD109WallClockOutsideProfiler:
    def test_fires_alongside_d104_on_timing_calls(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            start = time.perf_counter()
        """)
        ids = rule_ids_found(report)
        assert "D104" in ids and "D109" in ids

    def test_fires_on_time_time(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            stamp = time.time()
        """)
        assert "D109" in rule_ids_found(report)

    def test_quiet_on_datetime_now(self, tmp_path):
        # datetime reads are D104-only: they are not profiling idioms.
        report = lint_source(tmp_path, """
            from datetime import datetime
            stamp = datetime.now()
        """)
        assert "D109" not in rule_ids_found(report)

    def test_allowlisted_profiler_module_is_exempt(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            start = time.perf_counter()
        """, filename="tussle/obs/profiler.py")
        ids = rule_ids_found(report)
        assert "D104" not in ids and "D109" not in ids

    def test_other_obs_modules_not_exempt(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            start = time.perf_counter()
        """, filename="tussle/obs/tracer.py")
        assert "D109" in rule_ids_found(report)


class TestD110ParallelismOutsideExecutor:
    def test_fires_on_multiprocessing_pool(self, tmp_path):
        report = lint_source(tmp_path, """
            import multiprocessing
            pool = multiprocessing.Pool(processes=4)
        """)
        assert "D110" in rule_ids_found(report)

    def test_fires_on_concurrent_futures_pool(self, tmp_path):
        report = lint_source(tmp_path, """
            import concurrent.futures
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
        """)
        assert "D110" in rule_ids_found(report)

    def test_fires_on_thread_construction(self, tmp_path):
        report = lint_source(tmp_path, """
            import threading
            worker = threading.Thread(target=print)
        """)
        assert "D110" in rule_ids_found(report)

    def test_fires_through_from_import(self, tmp_path):
        report = lint_source(tmp_path, """
            from multiprocessing.pool import ThreadPool
            pool = ThreadPool(2)
        """)
        assert "D110" in rule_ids_found(report)

    def test_allowlisted_executors_module_is_exempt(self, tmp_path):
        report = lint_source(tmp_path, """
            import multiprocessing
            pool = multiprocessing.Pool(processes=4)
        """, filename="tussle/sweep/executors.py")
        assert "D110" not in rule_ids_found(report)

    def test_other_sweep_modules_not_exempt(self, tmp_path):
        report = lint_source(tmp_path, """
            import multiprocessing
            pool = multiprocessing.Pool(processes=4)
        """, filename="tussle/sweep/scheduler.py")
        assert "D110" in rule_ids_found(report)

    def test_quiet_on_unrelated_calls(self, tmp_path):
        report = lint_source(tmp_path, """
            import multiprocessing
            count = multiprocessing.cpu_count()
        """)
        assert "D110" not in rule_ids_found(report)


class TestD111PopulationLoopInKernel:
    KERNEL = "tussle/scale/kernels.py"

    def test_fires_on_loop_over_consumers(self, tmp_path):
        report = lint_source(tmp_path, """
            def kernel(consumers):
                total = 0.0
                for consumer in consumers:
                    total += consumer.wtp
                return total
        """, filename=self.KERNEL)
        assert "D111" in rule_ids_found(report)

    def test_fires_on_range_over_population_count(self, tmp_path):
        report = lint_source(tmp_path, """
            def kernel(n_consumers):
                return [i * 2 for i in range(n_consumers)]
        """, filename=self.KERNEL)
        assert "D111" in rule_ids_found(report)

    def test_fires_on_attribute_population(self, tmp_path):
        report = lint_source(tmp_path, """
            def kernel(arrays):
                out = []
                for row in arrays.agents:
                    out.append(row)
                return out
        """, filename=self.KERNEL)
        assert "D111" in rule_ids_found(report)

    def test_quiet_on_provider_column_loop(self, tmp_path):
        report = lint_source(tmp_path, """
            def kernel(offer_columns):
                best = None
                for j in range(len(offer_columns)):
                    best = offer_columns[j]
                return best
        """, filename=self.KERNEL)
        assert "D111" not in rule_ids_found(report)

    def test_quiet_outside_kernel_modules(self, tmp_path):
        report = lint_source(tmp_path, """
            def builder(consumers):
                return [c.wtp for c in consumers]
        """, filename="tussle/scale/large.py")
        assert "D111" not in rule_ids_found(report)

    def test_the_real_kernels_module_is_loop_free(self):
        from pathlib import Path

        import tussle.scale.kernels as kernels_module
        from tussle.lint import run_lint

        report = run_lint([Path(kernels_module.__file__)])
        assert "D111" not in rule_ids_found(report)


class TestD112SleepOutsideRetrySite:
    def test_fires_on_sleep_in_simulation_code(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            def wait_for_link():
                time.sleep(0.1)
        """)
        assert "D112" in rule_ids_found(report)

    def test_fires_through_alias(self, tmp_path):
        report = lint_source(tmp_path, """
            import time as t
            t.sleep(1)
        """)
        assert "D112" in rule_ids_found(report)

    def test_fires_through_from_import(self, tmp_path):
        report = lint_source(tmp_path, """
            from time import sleep
            sleep(0.5)
        """)
        assert "D112" in rule_ids_found(report)

    def test_allowlisted_executors_module_is_exempt(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            def supervise():
                time.sleep(0.02)
        """, filename="tussle/sweep/executors.py")
        assert "D112" not in rule_ids_found(report)

    def test_other_sweep_modules_not_exempt(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            time.sleep(0.02)
        """, filename="tussle/sweep/scheduler.py")
        assert "D112" in rule_ids_found(report)

    def test_quiet_on_simulated_waits(self, tmp_path):
        report = lint_source(tmp_path, """
            def schedule(engine, delay):
                engine.schedule_at(engine.now + delay)
        """)
        assert "D112" not in rule_ids_found(report)


class TestD105Environ:
    def test_fires_on_environ_and_getenv(self, tmp_path):
        report = lint_source(tmp_path, """
            import os
            a = os.environ["HOME"]
            b = os.getenv("DEBUG")
        """)
        findings = [f for f in report.active if f.rule_id == "D105"]
        assert len(findings) == 2


class TestD106SetOrder:
    def test_fires_on_list_of_set(self, tmp_path):
        report = lint_source(tmp_path, """
            items = list(set([3, 1, 2]))
        """)
        assert "D106" in rule_ids_found(report)

    def test_fires_on_for_over_set_literal(self, tmp_path):
        report = lint_source(tmp_path, """
            def walk():
                for item in {"b", "a"}:
                    print(item)
        """)
        assert "D106" in rule_ids_found(report)

    def test_fires_on_choice_over_set(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            rng = random.Random(0)
            pick = rng.choice(set([1, 2, 3]))
        """)
        assert "D106" in rule_ids_found(report)

    def test_fires_on_dict_comprehension_over_set(self, tmp_path):
        report = lint_source(tmp_path, """
            table = {k: 0 for k in set(["b", "a"])}
        """)
        assert "D106" in rule_ids_found(report)

    def test_quiet_on_sorted_set(self, tmp_path):
        report = lint_source(tmp_path, """
            items = sorted(set([3, 1, 2]))
            table = {k: 0 for k in sorted({"b", "a"})}
            total = sum({1, 2, 3})
        """)
        assert rule_ids_found(report) == []


class TestD107RngFallback:
    def test_fires_on_or_fallback(self, tmp_path):
        report = lint_source(tmp_path, """
            import random

            def build(rng=None):
                return rng or random.Random(0)
        """)
        assert "D107" in rule_ids_found(report)

    def test_fires_on_conditional_constant_fallback(self, tmp_path):
        report = lint_source(tmp_path, """
            from numpy.random import default_rng

            def build(rng=None):
                return rng if rng is not None else default_rng(0)
        """)
        assert "D107" in rule_ids_found(report)

    def test_quiet_on_threaded_seed(self, tmp_path):
        report = lint_source(tmp_path, """
            import random

            def build(rng=None, seed=0):
                if rng is None:
                    rng = random.Random(seed)
                return rng
        """)
        assert rule_ids_found(report) == []


class TestD108FunctionScopeImport:
    def test_fires_on_function_body_import(self, tmp_path):
        report = lint_source(tmp_path, """
            def run(seed=0):
                import random
                return random.Random(seed)
        """)
        assert "D108" in rule_ids_found(report)

    def test_quiet_on_module_level_import(self, tmp_path):
        report = lint_source(tmp_path, """
            import random

            def run(seed=0):
                return random.Random(seed)
        """)
        assert rule_ids_found(report) == []


class TestX301ExceptionTaxonomy:
    def test_fires_on_builtin_raise(self, tmp_path):
        report = lint_source(tmp_path, """
            def check(x):
                if x < 0:
                    raise ValueError("negative")
        """)
        assert "X301" in rule_ids_found(report)

    def test_fires_on_foreign_local_class(self, tmp_path):
        report = lint_source(tmp_path, """
            class LocalError(Exception):
                pass

            def check():
                raise LocalError("nope")
        """)
        assert "X301" in rule_ids_found(report)

    def test_quiet_on_taxonomy_and_control_flow(self, tmp_path):
        report = lint_source(tmp_path, """
            class TussleError(Exception):
                pass

            class SubError(TussleError):
                pass

            def check(kind):
                if kind == "abstract":
                    raise NotImplementedError
                raise SubError("framework failure")
        """)
        assert rule_ids_found(report) == []


class TestX302DunderAll:
    def test_fires_on_phantom_export(self, tmp_path):
        report = lint_source(tmp_path, """
            __all__ = ["exists", "phantom"]

            def exists():
                return 1
        """)
        findings = [f for f in report.active if f.rule_id == "X302"]
        assert len(findings) == 1
        assert "phantom" in findings[0].message

    def test_quiet_on_accurate_all_with_extension(self, tmp_path):
        report = lint_source(tmp_path, """
            __all__ = ["first"]

            def first():
                return 1

            def second():
                return 2

            __all__ += ["second"]
        """)
        assert rule_ids_found(report) == []


def write_fake_repo(tmp_path, *, run_src=None, register=True,
                    tests_reference=True, module="e01_sample"):
    """A minimal repo with one experiment module, for E-series tests."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='fake'\n")
    pkg = tmp_path / "src" / "pkg"
    experiments = pkg / "experiments"
    experiments.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    if run_src is None:
        run_src = (
            "def run_e01(seed: int = 0) -> 'ExperimentResult':\n"
            "    return None\n"
        )
    (experiments / f"{module}.py").write_text(run_src)
    registry = (
        f"from .{module} import run_e01\n"
        "ALL_EXPERIMENTS = {'E01': run_e01}\n" if register else
        "ALL_EXPERIMENTS = {}\n"
    )
    (experiments / "__init__.py").write_text(registry)
    tests = tmp_path / "tests"
    tests.mkdir()
    if tests_reference:
        (tests / "test_experiments.py").write_text(
            "from pkg.experiments import ALL_EXPERIMENTS\n"
        )
    else:
        (tests / "test_other.py").write_text("def test_nothing(): pass\n")
    return pkg


class TestESeriesConformance:
    def test_clean_fake_repo(self, tmp_path):
        pkg = write_fake_repo(tmp_path)
        report = run_lint([pkg])
        assert rule_ids_found(report) == []

    def test_missing_seed_parameter(self, tmp_path):
        pkg = write_fake_repo(tmp_path, run_src=(
            "def run_e01(rounds: int = 3) -> 'ExperimentResult':\n"
            "    return None\n"
        ))
        report = run_lint([pkg])
        assert "E201" in rule_ids_found(report)

    def test_missing_return_annotation(self, tmp_path):
        pkg = write_fake_repo(tmp_path, run_src=(
            "def run_e01(seed: int = 0):\n"
            "    return None\n"
        ))
        report = run_lint([pkg])
        assert "E201" in rule_ids_found(report)

    def test_unregistered_experiment(self, tmp_path):
        pkg = write_fake_repo(tmp_path, register=False)
        report = run_lint([pkg])
        ids = rule_ids_found(report)
        assert "E202" in ids
        # Not registered and not named directly in tests -> also untested.
        assert "E204" in ids

    def test_any_module_name_is_checked(self, tmp_path):
        # A p-prefixed module (like p01_paid_peering) is checked although
        # its file name is outside the old e/x/l/r pattern.
        pkg = write_fake_repo(tmp_path, module="p01_sample", run_src=(
            "def run_e01(rounds: int = 3) -> 'ExperimentResult':\n"
            "    return None\n"
        ))
        report = run_lint([pkg])
        assert rule_ids_found(report) == ["E201"]

    def test_registry_import_is_checked_without_a_run_def(self, tmp_path):
        # The registry imports run_e01, but the module only binds it by
        # assignment: still an experiment module, so E201 fires.
        pkg = write_fake_repo(tmp_path, run_src=(
            "def _impl(seed: int = 0) -> 'ExperimentResult':\n"
            "    return None\n"
            "run_e01 = _impl\n"
        ))
        report = run_lint([pkg])
        assert rule_ids_found(report) == ["E201"]

    def test_registry_parametrized_suite_counts_as_tested(self, tmp_path):
        pkg = write_fake_repo(tmp_path, tests_reference=True)
        report = run_lint([pkg])
        assert "E204" not in rule_ids_found(report)

    def test_direct_reference_counts_as_tested(self, tmp_path):
        pkg = write_fake_repo(tmp_path, register=True, tests_reference=False)
        tests = tmp_path / "tests"
        (tests / "test_direct.py").write_text(
            "from pkg.experiments.e01_sample import run_e01\n"
        )
        report = run_lint([pkg])
        assert "E204" not in rule_ids_found(report)
