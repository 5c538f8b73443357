"""Benchmark: the coupled bargaining/routing loop at 10^3-AS scale.

Two blocking gates (the CI ``peering`` job runs them):

* one full bargain-and-reconverge round on a 10^3-AS internet — route
  convergence, the vectorized demand-volume pass, and a whole-market
  re-bargain — stays inside :data:`ROUND_BUDGET_S`;
* the complete P02 arc (bargain-in to a fixed point, depeering war,
  peace) stays inside :data:`WAR_BUDGET_S`, which is what keeps the
  28-experiment seed matrix affordable.

Both time with the sanctioned :class:`tussle.obs.Profiler`.
"""

from tussle.obs import Profiler
from tussle.peering import PeeringDynamics
from tussle.topogen import TopogenConfig, generate_internet

SEED = 0
ROUND_BUDGET_S = 5.0
WAR_BUDGET_S = 20.0


def test_bargain_round_1e3_within_budget():
    """Blocking: one route/measure/re-bargain round at 10^3 ASes."""
    network = generate_internet(
        TopogenConfig(n_ases=1000, router_detail="none"), seed=SEED)
    dyn = PeeringDynamics(network, seed=SEED)
    profiler = Profiler()

    def one_round():
        with profiler.time("bargain-round/1000"):
            return dyn.step(iteration=1)

    for _ in range(3):
        record = one_round()
    assert record.agreements > 0
    assert profiler.min_seconds("bargain-round/1000") < ROUND_BUDGET_S


def test_depeering_war_arc_1e3_within_budget():
    """Blocking: the full P02 arc — bargain-in, war, peace — in seconds."""
    profiler = Profiler()

    def arc():
        network = generate_internet(
            TopogenConfig(n_ases=1000, router_detail="none"), seed=SEED)
        dyn = PeeringDynamics(network, seed=SEED)
        with profiler.time("bargain-in/1000"):
            initial = dyn.run()
        rib = dyn.routing.fast_rib
        busiest, busiest_volume = None, -1.0
        for pair in sorted(initial.agreements):
            ra, rb = rib.index.of(pair[0]), rib.index.of(pair[1])
            volume = float(dyn.volumes[ra, rb] + dyn.volumes[rb, ra])
            if volume > busiest_volume:
                busiest, busiest_volume = pair, volume
        with profiler.time("war-and-peace/1000"):
            dyn.depeer(*busiest)
            war = dyn.run()
            dyn.lift_embargo(*busiest)
            peace = dyn.run()
        return initial, war, peace

    initial, war, peace = arc()
    assert initial.converged and war.converged and peace.converged
    assert profiler.min_seconds("bargain-in/1000") \
        + profiler.min_seconds("war-and-peace/1000") < WAR_BUDGET_S
