"""Memo accounting of the bargaining loop over whole P02 runs.

``evaluate_candidate`` bargains each candidate pair once: its cones,
the traffic matrix and both transit flags are fixed for a dynamics'
life.  So across a run (bargain-in, war and peace) no candidate pair
reaches ``cone_traffic`` twice, and every kept agreement is what a
fresh bargain over the final network gives.
"""

import pytest

import tussle.experiments.p02_depeering_war as p02
import tussle.peering.dynamics as dynamics
from tussle.peering import (
    PeeringDynamics,
    cone_traffic,
    customer_cones,
    evaluate_pair,
)


@pytest.mark.parametrize("seed", range(3))
def test_each_candidate_is_bargained_once_and_kept_exactly(
        seed, monkeypatch):
    built = []
    forecasts = []
    real_cone_traffic = dynamics.cone_traffic

    class Recorded(PeeringDynamics):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def recorded(traffic, cones, a, b):
        forecasts.append((a, b))
        return real_cone_traffic(traffic, cones, a, b)

    monkeypatch.setattr(p02, "PeeringDynamics", Recorded)
    monkeypatch.setattr(dynamics, "cone_traffic", recorded)
    result = p02.run_p02(n_ases=120, seed=seed)
    assert result.shape_holds

    (dyn,) = built
    assert forecasts and len(forecasts) == len(set(forecasts))
    assert sorted(forecasts) == sorted(dyn._candidates)
    network = dyn.network
    cones = customer_cones(network)
    for (a, b), agreement in dyn._candidates.items():
        assert agreement == evaluate_pair(
            cone_traffic(dyn.traffic, cones, a, b), dyn.econ,
            a_pays_transit=bool(network.providers_of(a)),
            b_pays_transit=bool(network.providers_of(b)))
