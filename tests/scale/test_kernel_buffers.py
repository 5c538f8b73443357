"""The ``out=`` contract of the market kernels, and the branch-free scan.

A kernel handed caller-owned buffers must return exactly the bytes of
its allocating call, write only into those buffers, and never hand out
memory it shares with an input or with the market's offer cache.  The
populations are drawn by Hypothesis under the suite's derandomized
profile; ``@example`` pins the edges by name: exact ties (equal
prices), near-ties below ``TIE_EPSILON``, everyone staying, everyone
leaving, taste on and off and the free round-0 choice.

``masked_best_provider`` and ``masked_amount_paid`` are the masked
``where=`` kernels the branch-free ones replaced, kept here as oracles:
the replacements must agree with them bit for bit.  The market-level
properties run whole ``VectorMarket``s, with and without switches, and
hold them to the scalar ``Market`` and to bare ``step()`` calls.
"""

from dataclasses import asdict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tussle.econ.agents import Provider
from tussle.econ.decision import TIE_EPSILON
from tussle.econ.market import Market
from tussle.econ.pricing import MonopolyPricing, UndercutPricing
from tussle.scale import kernels
from tussle.scale.arrays import ConsumerBatch, MarketArrays
from tussle.scale.vmarket import VectorMarket

#: Price offsets around a base rate: exact ties, sub-epsilon near-ties
#: and clear gaps.
OFFSETS = (0.0, 0.0, TIE_EPSILON / 4, -TIE_EPSILON / 4, 2.5, -3.0)


# ----------------------------------------------------------------------
# Oracles: the masked kernels the branch-free ones replaced
# ----------------------------------------------------------------------
def masked_best_provider(offer_columns, tunnel_columns, taste,
                         switching_cost, assignment, free_switch=False):
    n = switching_cost.shape[0]
    threshold = np.full(n, -np.inf)
    best_column = np.full(n, -1, dtype=np.int64)
    best_raw = np.zeros(n)
    best_tunnels = np.zeros(n, dtype=bool)
    surplus = np.empty(n)
    mask = np.empty(n, dtype=bool)
    subscribed = assignment >= 0
    for j, raw in enumerate(offer_columns):
        if taste is None:
            np.copyto(surplus, raw)
        else:
            np.add(raw, taste[:, j], out=surplus)
        if not free_switch:
            np.not_equal(assignment, j, out=mask)
            mask &= subscribed
            np.subtract(surplus, switching_cost, out=surplus, where=mask)
        take = np.greater(surplus, threshold, out=mask)
        np.add(surplus, TIE_EPSILON, out=threshold, where=take)
        np.copyto(best_column, j, where=take)
        np.copyto(best_raw, raw, where=take)
        np.copyto(best_tunnels, tunnel_columns[j], where=take)
    return best_column, best_raw, best_tunnels


def masked_amount_paid(wtp, server_value, values_server, tunnels, *, price,
                       business_price, server_prohibited_without_tier):
    paid = np.full(wtp.shape[0], price, dtype=np.float64)
    if (business_price is not None and server_prohibited_without_tier
            and values_server.any()):
        open_surplus = (wtp + server_value) - business_price
        forgo_surplus = wtp - price
        pays_tier = values_server & ~tunnels & (open_surplus >= forgo_surplus)
        np.copyto(paid, business_price, where=pays_tier)
    return paid


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def scans(draw):
    """One provider scan's inputs: a population, its offer columns,
    optional taste, an assignment and the free-switch flag."""
    n = draw(st.integers(1, 24))
    p = draw(st.integers(1, 4))
    wtp_range = draw(st.sampled_from([(1.0, 100.0), (80.0, 100.0),
                                      (1.0, 10.0)]))  # mixed, stay, leave
    values_server = np.array(draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)))
    batch = ConsumerBatch(
        wtp=draw(st.lists(st.floats(*wtp_range), min_size=n, max_size=n)),
        server_value=np.where(values_server, draw(st.floats(1.0, 40.0)), 0.0),
        values_server=values_server,
        switching_cost=draw(st.lists(st.floats(0.0, 8.0), min_size=n,
                                     max_size=n)),
        can_tunnel=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        tunnel_cost=draw(st.lists(st.floats(0.5, 5.0), min_size=n,
                                  max_size=n)),
    )
    arrays = MarketArrays.from_batch(batch, [f"p{j}" for j in range(p)])
    base = draw(st.sampled_from([20.0, 35.0, 50.0]))
    offers, tunnels = [], []
    for _ in range(p):
        price = base + draw(st.sampled_from(OFFSETS))
        tier = draw(st.sampled_from([None, 0.0, 12.0]))
        surplus, tunnel = kernels.effective_offer_column(
            arrays, price=price,
            business_price=None if tier is None else price + tier,
            detects_tunnels=draw(st.booleans()),
            server_prohibited_without_tier=True)
        offers.append(surplus)
        tunnels.append(tunnel)
    taste = None
    if draw(st.booleans()):
        taste = np.array(draw(st.lists(
            st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p),
            min_size=n, max_size=n)))
    assignment = np.array(draw(st.lists(st.integers(-1, p - 1), min_size=n,
                                        max_size=n)), dtype=np.int64)
    return (offers, tunnels, taste, arrays.switching_cost, assignment,
            draw(st.booleans()))


def _columns(n, values):
    return [np.full(n, value) for value in values]


def _no_tunnels(n, p):
    return [np.zeros(n, dtype=bool) for _ in range(p)]


TIES = (_columns(5, [7.0, 7.0, 7.0]), _no_tunnels(5, 3), None, np.zeros(5),
        np.array([-1, 0, 1, 2, 2]), False)
NEAR_TIES = (_columns(4, [7.0, 7.0 + TIE_EPSILON / 2, 7.0 - TIE_EPSILON / 2]),
             _no_tunnels(4, 3), None, np.zeros(4), np.array([2, 1, 0, -1]),
             False)
ALL_LEAVE = (_columns(3, [-4.0, -2.0]), _no_tunnels(3, 2), None,
             np.full(3, 1.5), np.array([0, 1, -1]), False)
ALL_STAY_TASTE = (_columns(3, [9.0, 9.5]),
                  [np.array([True, False, True]), np.zeros(3, dtype=bool)],
                  np.array([[0.5, -0.5], [-1.0, 1.0], [0.0, 0.0]]),
                  np.array([0.0, 2.0, 0.25]), np.array([1, 0, 1]), False)
FREE_SWITCH = (_columns(2, [3.0, 3.5]), _no_tunnels(2, 2), None,
               np.full(2, 9.0), np.array([0, 0]), True)


def _scan_buffers(n):
    """Output and scratch buffers full of junk the kernel must overwrite."""
    out = (np.full(n, 7, dtype=np.int64), np.full(n, np.nan),
           np.ones(n, dtype=bool))
    work = ([np.full(n, -1, dtype=np.int64) for _ in range(4)],
            [np.ones(n, dtype=bool) for _ in range(3)])
    return out, work


def _flat(arrays):
    return [np.asarray(a) for a in arrays if a is not None]


# ----------------------------------------------------------------------
# best_provider
# ----------------------------------------------------------------------
class TestBestProviderBuffers:
    @settings(max_examples=60, deadline=None)
    @example(TIES)
    @example(NEAR_TIES)
    @example(ALL_LEAVE)
    @example(ALL_STAY_TASTE)
    @example(FREE_SWITCH)
    @given(scans())
    def test_out_matches_the_allocating_call_and_the_masked_oracle(
            self, scan):
        offers, tunnels, taste, cost, assignment, free_switch = scan
        inputs = [*offers, *tunnels, *_flat([taste]), cost, assignment]
        before = [x.tobytes() for x in inputs]
        allocated = kernels.best_provider(*scan)
        out, work = _scan_buffers(cost.shape[0])
        written = kernels.best_provider(*scan, out=out, work=work)
        oracle = masked_best_provider(*scan)
        assert all(w is o for w, o in zip(written, out))
        for mine, theirs, reference in zip(written, allocated, oracle):
            assert mine.dtype == theirs.dtype == reference.dtype
            assert mine.tobytes() == theirs.tobytes() == reference.tobytes()
        assert [x.tobytes() for x in inputs] == before
        for result in (*written, *allocated):
            assert not any(np.shares_memory(result, x) for x in inputs)

    def test_a_column_no_one_takes_leaves_the_best_alone(self):
        """Exact ties: the later, equal columns never displace column 0,
        and the outputs keep column 0's bytes (the fast skip path)."""
        offers = _columns(3, [5.0, 5.0, 5.0 + TIE_EPSILON / 2])
        column, raw, tunnels = kernels.best_provider(
            offers, [np.ones(3, dtype=bool), *_no_tunnels(3, 2)], None,
            np.zeros(3), np.full(3, -1, dtype=np.int64))
        assert list(column) == [0, 0, 0]
        assert list(raw) == [5.0] * 3
        assert tunnels.all()


# ----------------------------------------------------------------------
# switching_masks and amount_paid_values
# ----------------------------------------------------------------------
class TestSettlementBuffers:
    @settings(max_examples=40, deadline=None)
    @example(TIES)
    @example(FREE_SWITCH)
    @given(scans())
    def test_switching_masks_out(self, scan):
        assignment = scan[4]
        best_column, _, _ = kernels.best_provider(*scan)
        n = assignment.shape[0]
        out = (np.ones(n, dtype=bool), np.ones(n, dtype=bool))
        written = kernels.switching_masks(assignment, best_column, out=out)
        allocated = kernels.switching_masks(assignment, best_column)
        assert all(w is o for w, o in zip(written, out))
        for mine, theirs in zip(written, allocated):
            assert mine.tobytes() == theirs.tobytes()
            assert not np.shares_memory(mine, assignment)

    @settings(max_examples=40, deadline=None)
    @example(ALL_STAY_TASTE, True)
    @example(ALL_STAY_TASTE, False)
    @given(scans(), st.booleans())
    def test_amount_paid_out_matches_the_masked_oracle(self, scan,
                                                       prohibited):
        """Per-consumer rate columns, some providers untiered (NaN)."""
        n, p = scan[3].shape[0], len(scan[0])
        column, _, chosen_tunnels = kernels.best_provider(*scan)
        wtp = np.linspace(10.0, 60.0, n)
        server_value = np.where(np.arange(n) % 2 == 0, 25.0, 0.0)
        values_server = server_value > 0
        price = (30.0 + np.arange(p))[column]
        business = np.array([np.nan if j % 2 else 40.0 + j
                             for j in range(p)])[column]
        kwargs = dict(price=price, business_price=business,
                      server_prohibited_without_tier=prohibited)
        args = (wtp, server_value, values_server, chosen_tunnels)
        out = np.full(n, np.nan)
        written = kernels.amount_paid_values(*args, **kwargs, out=out)
        allocated = kernels.amount_paid_values(*args, **kwargs)
        oracle = masked_amount_paid(*args, **kwargs)
        assert written is out
        assert written.tobytes() == allocated.tobytes() == oracle.tobytes()
        for x in (*args, price, business):
            assert not np.shares_memory(written, x)

    def test_scalar_rates_take_the_same_path(self):
        wtp = np.array([40.0, 50.0, 20.0])
        server_value = np.array([30.0, 0.0, 30.0])
        args = (wtp, server_value, server_value > 0, np.zeros(3, dtype=bool))
        kwargs = dict(price=30.0, business_price=42.0,
                      server_prohibited_without_tier=True)
        out = np.zeros(3)
        written = kernels.amount_paid_values(*args, **kwargs, out=out)
        assert written is out
        assert written.tobytes() == masked_amount_paid(
            *args, **kwargs).tobytes()
        assert list(written) == [42.0, 30.0, 42.0]


# ----------------------------------------------------------------------
# Whole markets: switch and no-switch rounds
# ----------------------------------------------------------------------
@st.composite
def market_specs(draw):
    """A small market as a factory of fresh constructor kwargs, so each
    backend gets its own providers and strategies."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 3))
    values_server = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    columns = dict(
        wtp=draw(st.lists(st.floats(5.0, 90.0), min_size=n, max_size=n)),
        server_value=[25.0 if v else 0.0 for v in values_server],
        values_server=values_server,
        switching_cost=draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]),
                                     min_size=n, max_size=n)),
        can_tunnel=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        tunnel_cost=[2.0] * n,
        initial_provider=draw(st.sampled_from([None, "isp0"])),
    )
    prices = [35.0 + draw(st.sampled_from(OFFSETS)) for _ in range(p)]
    tiered = draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 1.5]))
    seed = draw(st.integers(0, 3))

    def build(backend):
        providers = [Provider(name=f"isp{j}", price=price,
                              business_price=price + 9.0 if tiered else None,
                              unit_cost=5.0)
                     for j, price in enumerate(prices)]
        strategies = {
            f"isp{j}": (MonopolyPricing(price_cap=60.0) if p == 1
                        else UndercutPricing())
            for j in range(p)}
        batch = ConsumerBatch(**{k: np.array(v) if isinstance(v, list) else v
                                 for k, v in columns.items()})
        population = (dict(batch=batch) if backend is VectorMarket
                      else dict(consumers=batch.to_consumers()))
        return backend(providers=providers, strategies=strategies,
                       preference_noise=noise, seed=seed, **population)

    return build


def _vector_trace(market):
    arrays = market.arrays
    return [asdict(r) for r in market.history], [
        (arrays.provider_of(i), float(arrays.surplus[i]),
         int(arrays.switches[i]), bool(arrays.tunnelling[i]))
        for i in range(len(arrays))]


def _scalar_trace(market):
    return [asdict(r) for r in market.history], [
        (c.provider, c.surplus, c.switches, c.tunnelling)
        for c in market.consumers]


class TestMarketRounds:
    @settings(max_examples=30, deadline=None)
    @given(market_specs())
    def test_run_matches_the_scalar_market_bit_for_bit(self, build):
        vector = build(VectorMarket)
        scalar = build(Market)
        vector.run(12)
        scalar.run(12)
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(_vector_trace(vector)) == repr(_scalar_trace(scalar))

    @settings(max_examples=20, deadline=None)
    @given(market_specs())
    def test_run_workspace_matches_bare_steps(self, build):
        """``run`` reuses one workspace; bare ``step`` calls get a fresh
        one each.  Same bytes, and no workspace outlives the run."""
        reused, fresh = build(VectorMarket), build(VectorMarket)
        reused.run(8)
        for _ in range(8):
            fresh.step()
        assert repr(_vector_trace(reused)) == repr(_vector_trace(fresh))
        assert reused._work is None

    def test_rounds_with_and_without_switches_both_occur(self):
        """Guard against vacuity: the interleaved switch-round total and
        the credit-only total both run in one lock-in market."""
        def build(backend):
            batch = ConsumerBatch(
                wtp=np.linspace(50.0, 90.0, 40), server_value=np.zeros(40),
                values_server=np.zeros(40, dtype=bool),
                switching_cost=np.full(40, 1.0),
                can_tunnel=np.zeros(40, dtype=bool),
                tunnel_cost=np.full(40, 2.0), initial_provider="b")
            population = (dict(batch=batch) if backend is VectorMarket
                          else dict(consumers=batch.to_consumers()))
            return backend(
                providers=[Provider(name="a", price=40.0),
                           Provider(name="b", price=45.0)],
                strategies={"a": UndercutPricing(), "b": UndercutPricing()},
                **population)

        vector, scalar = build(VectorMarket), build(Market)
        records = vector.run(6)
        scalar.run(6)
        assert any(r.switches > 0 for r in records)
        assert any(r.switches == 0 for r in records)
        assert repr(_vector_trace(vector)) == repr(_scalar_trace(scalar))


class TestNoScratchOutlivesARun:
    def test_offer_cache_and_outputs_share_no_memory(self):
        """After a round, the state columns are the market's own: none
        shares memory with a cached offer column or another state
        column."""
        market = VectorMarket(
            providers=[Provider(name=f"p{j}", price=30.0 + j,
                                business_price=42.0) for j in range(3)],
            batch=ConsumerBatch(
                wtp=np.linspace(20.0, 70.0, 50),
                server_value=np.where(np.arange(50) % 3 == 0, 30.0, 0.0),
                values_server=np.arange(50) % 3 == 0,
                switching_cost=np.full(50, 2.0),
                can_tunnel=np.ones(50, dtype=bool),
                tunnel_cost=np.full(50, 3.0)),
            strategies={f"p{j}": UndercutPricing() for j in range(3)},
            preference_noise=1.0)
        market.run(5)
        arrays = market.arrays
        state = (arrays.assignment, arrays.surplus, arrays.switches,
                 arrays.tunnelling)
        cached = [column for pair in market._offer_cache.values()
                  for column in pair]
        for i, column in enumerate(state):
            assert not any(np.shares_memory(column, c) for c in cached)
            assert not any(np.shares_memory(column, other)
                           for other in state[i + 1:])
        assert market._work is None
