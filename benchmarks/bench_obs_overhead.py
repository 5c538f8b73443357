"""Benchmark gate: disabled observability must cost <= 2%.

Observability is off by default — instrumented subsystems see the
``NullTracer``/``NullMetrics`` context and cache ``None`` hooks, so the
hot path pays one ``is not None`` test per instrumentation point. This
gate measures that price on a realistic market-heavy workload (E01) by
comparing the default disabled context against an explicitly installed
``NullTracer``, min-of-N to squeeze out scheduler noise.

An absolute floor guards the relative bound: on a workload this short,
a few milliseconds of host jitter can exceed 2% without meaning
anything. The gate fails only when the overhead is both relatively and
absolutely significant.
"""

from tussle.experiments import run_e01
from tussle.obs import NullSweepTelemetry, NullTracer, Profiler, observe
from tussle.obs.bench import bench_record, write_bench_record
from tussle.sweep import SweepSpec, run_sweep

#: Measurement rounds (min-of-N) after one warmup, interleaved so slow
#: drift (thermal, cache) hits both arms equally.
ROUNDS = 5
#: Workload repetitions per round — lengthens the measured region so
#: fixed per-round jitter shrinks relative to it.  E01 runs on the
#: vector market (~0.03 s a run), so it takes 12 to keep the region as
#: long as three scalar-market runs were, and the 5 ms floor under 2%.
REPS_PER_ROUND = 12
#: Relative overhead budget for the disabled path.
MAX_OVERHEAD = 0.02
#: Absolute jitter floor: deltas below this are measurement noise.
ABS_EPSILON_SECONDS = 0.005


def _run_baseline():
    for _ in range(REPS_PER_ROUND):
        run_e01()


def _run_with_null_obs():
    with observe(tracer=NullTracer()):
        for _ in range(REPS_PER_ROUND):
            run_e01()


def test_nulltracer_overhead_within_budget(results_dir):
    profiler = Profiler()
    _run_baseline()  # warmup: caches, allocator, import side effects
    _run_with_null_obs()
    for _ in range(ROUNDS):
        with profiler.time("baseline"):
            _run_baseline()
        with profiler.time("nulltracer"):
            _run_with_null_obs()
    baseline = profiler.min_seconds("baseline")
    nulled = profiler.min_seconds("nulltracer")
    delta = nulled - baseline
    overhead = delta / baseline if baseline > 0 else 0.0

    record = bench_record(
        "OBS_OVERHEAD", profiler=profiler, timing_key="nulltracer",
        baseline_seconds=baseline, nulltracer_seconds=nulled,
        overhead_fraction=overhead, rounds=ROUNDS,
        budget_fraction=MAX_OVERHEAD,
    )
    write_bench_record(results_dir, record)

    assert overhead <= MAX_OVERHEAD or delta <= ABS_EPSILON_SECONDS, (
        f"disabled-observability overhead {overhead:.1%} "
        f"({delta * 1e3:.2f} ms over {baseline * 1e3:.2f} ms baseline) "
        f"exceeds the {MAX_OVERHEAD:.0%} budget"
    )


#: Telemetry-disabled sweep spec: small but real (3 cells of E01).
_SWEEP_SPEC = SweepSpec(
    experiment_ids=["E01"],
    seeds=[0, 1, 2],
    grid={"n_consumers": [40], "rounds": [8]},
)


def _run_sweep_plain():
    run_sweep(_SWEEP_SPEC)


def _run_sweep_null_telemetry():
    run_sweep(_SWEEP_SPEC, telemetry=NullSweepTelemetry())


def test_disabled_sweep_telemetry_overhead_within_budget(results_dir):
    """A sweep with telemetry disabled must also stay within 2%.

    The scheduler nulls a disabled telemetry object out before the
    dispatch loop, so the per-cell price is the one ``is not None`` test
    the other observability hooks pay — this gate keeps it that way.
    """
    profiler = Profiler()
    _run_sweep_plain()  # warmup
    _run_sweep_null_telemetry()
    for _ in range(ROUNDS):
        with profiler.time("sweep_plain"):
            _run_sweep_plain()
        with profiler.time("sweep_null_telemetry"):
            _run_sweep_null_telemetry()
    baseline = profiler.min_seconds("sweep_plain")
    nulled = profiler.min_seconds("sweep_null_telemetry")
    delta = nulled - baseline
    overhead = delta / baseline if baseline > 0 else 0.0

    record = bench_record(
        "SWEEP_TELEMETRY_OVERHEAD", profiler=profiler,
        timing_key="sweep_null_telemetry",
        baseline_seconds=baseline, null_telemetry_seconds=nulled,
        overhead_fraction=overhead, rounds=ROUNDS,
        budget_fraction=MAX_OVERHEAD,
    )
    write_bench_record(results_dir, record)

    assert overhead <= MAX_OVERHEAD or delta <= ABS_EPSILON_SECONDS, (
        f"telemetry-disabled sweep overhead {overhead:.1%} "
        f"({delta * 1e3:.2f} ms over {baseline * 1e3:.2f} ms baseline) "
        f"exceeds the {MAX_OVERHEAD:.0%} budget"
    )
