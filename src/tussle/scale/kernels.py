"""Vectorized market-round kernels.

Each kernel is the NumPy mirror of one piece of the scalar round in
:meth:`tussle.econ.market.Market.step`, with the decision semantics of
:mod:`tussle.econ.decision` applied element-wise.  The contract is *bit
parity*, not statistical agreement, which constrains how these are
written:

* **No reassociation.**  Float expressions keep the scalar's
  left-to-right grouping — ``(wtp + server_value) - price`` — because
  IEEE addition is not associative and any regrouping flips low bits.
* **Order-sensitive reductions are sequential.**  ``np.sum`` reduces
  pairwise; ``np.cumsum`` accumulates strictly left to right like the
  scalar ``+=`` loop, so one ordered total takes ``cumsum(...)[-1]``.
  Zero-padding the skipped terms is safe because ``t + 0.0`` is a
  bitwise no-op for every accumulator value these streams produce
  (the running totals never become ``-0.0``).  Per-provider totals use
  unbuffered ``np.add.at``, which applies its updates in index order,
  so each provider's slot sees exactly the scalar's
  ``revenue[name] += paid`` sequence.
* **Provider choice is a sequential scan, not ``argmax``.**  The scalar
  rule updates its best candidate only on a *strict* improvement beyond
  ``TIE_EPSILON`` while visiting providers in sorted-name order — a
  path-dependent fold that plain ``argmax`` cannot reproduce.  The scan
  here loops over the (few) provider columns and stays vectorized
  across the population axis.
* **Masked updates happen in place.**  Where the scalar conditionally
  changes a value (take a better offer, debit a switching cost), the
  kernels write into a preallocated or caller-owned buffer with
  ``np.copyto(..., where=mask)`` or a ufunc's ``out=``/``where=``
  instead of building a fresh ``np.where`` array.  The masked elements
  get the same single IEEE operation, so the bits are unchanged.
  Inputs other than the buffer a kernel documents as updated are never
  written: offer columns live in the market's cache across rounds.

Kernels never loop over the population: the only Python ``for`` ranges
over provider columns, of which there are a handful.  Lint rule D111
enforces this.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..econ.decision import TIE_EPSILON
from .arrays import MarketArrays

__all__ = [
    "effective_offer_column",
    "amount_paid_values",
    "best_provider",
    "switching_masks",
    "ordered_total",
    "apply_surplus_updates",
    "per_provider_revenue",
    "subscriber_counts",
    "round_kernel_bytes",
]


def effective_offer_column(
    arrays: MarketArrays,
    *,
    price: float,
    business_price: Optional[float],
    detects_tunnels: bool,
    server_prohibited_without_tier: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """One provider's raw offer to every consumer: (surplus, tunnels).

    Element-wise mirror of :func:`tussle.econ.decision.effective_offer`.
    The scalar rule takes ``max`` over options listed in a fixed order
    and keeps the *first* maximum; here the surplus starts at the first
    option (forgo) and later options replace it only on a strictly
    greater value, which reproduces first-wins tie-breaking exactly.
    When no consumer values a server, no later option can be taken and
    the forgo column is the offer.
    """
    forgo = arrays.wtp - price
    surplus = forgo
    tunnels = np.zeros(len(arrays), dtype=bool)
    if not arrays.values_server.any():
        return forgo, tunnels
    tiered = business_price is not None
    if tiered and server_prohibited_without_tier:
        with_server = arrays.wtp + arrays.server_value
        open_offer = with_server - business_price
        take_open = arrays.values_server & (open_offer > surplus)
        surplus = np.where(take_open, open_offer, surplus)
        if not detects_tunnels:
            tunnel_offer = (with_server - price) - arrays.tunnel_cost
            take_tunnel = (arrays.values_server & arrays.can_tunnel
                           & (tunnel_offer > surplus))
            surplus = np.where(take_tunnel, tunnel_offer, surplus)
            tunnels = take_tunnel
    else:
        with_server_offer = (arrays.wtp + arrays.server_value) - price
        take = arrays.values_server & (with_server_offer > surplus)
        surplus = np.where(take, with_server_offer, surplus)
    return surplus, tunnels


def amount_paid_values(
    wtp: np.ndarray,
    server_value: np.ndarray,
    values_server: np.ndarray,
    tunnels: np.ndarray,
    *,
    price: Union[float, np.ndarray],
    business_price: Union[None, float, np.ndarray],
    server_prohibited_without_tier: bool,
) -> np.ndarray:
    """What each consumer pays their (already chosen) provider.

    Element-wise mirror of :func:`tussle.econ.decision.amount_paid`:
    basic rate unless the consumer openly runs a server on a tiered
    provider, where "openly" is re-derived from the same surplus
    comparison (``open >= forgo``) the scalar uses.

    ``price`` and ``business_price`` are one provider's rates or
    per-consumer columns (each consumer's chosen provider, gathered by
    column).  An untiered provider's business rate is ``None`` or NaN:
    a NaN open surplus never compares ``>=``, so its consumers pay the
    basic rate, as the scalar's ``tiered`` test decides.  When no
    consumer values a server, everyone pays the basic rate.
    """
    paid = np.full(wtp.shape[0], price, dtype=np.float64)
    if (business_price is not None and server_prohibited_without_tier
            and values_server.any()):
        open_surplus = (wtp + server_value) - business_price
        forgo_surplus = wtp - price
        pays_tier = values_server & ~tunnels & (open_surplus >= forgo_surplus)
        np.copyto(paid, business_price, where=pays_tier)
    return paid


def best_provider(
    offer_columns: Sequence[np.ndarray],
    tunnel_columns: Sequence[np.ndarray],
    taste: Optional[np.ndarray],
    switching_cost: np.ndarray,
    assignment: np.ndarray,
    free_switch: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choose each consumer's best provider: (column, raw surplus, tunnels).

    Sequential scan over provider columns (sorted-name order), updating
    the running best only where ``surplus > best + TIE_EPSILON`` —
    exactly ``Market._best_offer``.  Taste is added after the raw offer
    and the switching cost subtracted after taste, preserving the
    scalar's ``+=``/``-=`` operation order.  When ``taste`` is None the
    scalar adds a literal ``0.0``; skipping that here is bit-safe
    because raw offers are never ``-0.0`` (they are differences of
    distinct positive quantities) and the sign of zero does not affect
    the comparison.

    The running best lives in buffers allocated once per call and
    updated in place where ``take`` holds; the best surplus is kept as
    its threshold ``best + TIE_EPSILON``, the only form the scan reads.
    The inputs are only read, and the returned arrays are new, so
    callers may keep or modify them.
    """
    n = switching_cost.shape[0]
    threshold = np.full(n, -np.inf, dtype=np.float64)
    best_column = np.full(n, -1, dtype=np.int64)
    best_raw = np.zeros(n, dtype=np.float64)
    best_tunnels = np.zeros(n, dtype=bool)
    surplus = np.empty(n, dtype=np.float64)
    mask = np.empty(n, dtype=bool)  # who is charged, then who takes j
    if not free_switch:
        subscribed = assignment >= 0
    for j in range(len(offer_columns)):
        raw = offer_columns[j]
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


def switching_masks(assignment: np.ndarray, best_column: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """(moved, switched): who changes provider, who pays for it.

    ``moved`` is any assignment change (including joining from the
    unsubscribed state); ``switched`` is the subset leaving an *actual*
    provider — only they pay the switching cost and count as churn.
    """
    moved = assignment != best_column
    switched = moved & (assignment >= 0)
    return moved, switched


def ordered_total(deltas: np.ndarray) -> float:
    """Left-to-right sum of a delta stream (the scalar ``+=`` loop).

    ``deltas`` is (N, K): K ordered contributions per consumer, rows in
    consumer order.  Flattening row-major then ``cumsum`` reproduces the
    scalar's exact accumulation sequence; the last partial sum is the
    total.
    """
    flat = np.ascontiguousarray(deltas).reshape(-1)
    if flat.size == 0:
        return 0.0
    return float(np.cumsum(flat)[-1])


def apply_surplus_updates(
    surplus_state: np.ndarray,
    raw: np.ndarray,
    switched: np.ndarray,
    stays: np.ndarray,
    switching_cost: np.ndarray,
) -> np.ndarray:
    """Per-consumer surplus ledger update for one round.

    Two ops in the scalar's order: subtract the switching cost where a
    real switch happened, then add the round surplus where the consumer
    stays subscribed (a negative best offer means leaving instead).
    ``surplus_state`` is updated in place and returned.
    """
    np.subtract(surplus_state, switching_cost, out=surplus_state,
                where=switched)
    np.add(surplus_state, raw, out=surplus_state, where=stays)
    return surplus_state


def per_provider_revenue(
    paid: np.ndarray,
    best_column: np.ndarray,
    stays: np.ndarray,
    n_providers: int,
) -> np.ndarray:
    """Revenue per provider column, accumulated in consumer order.

    One unbuffered ``np.add.at`` into ``n_providers + 1`` slots: a
    staying consumer's payment goes to slot ``column + 1``, a leaving
    one's (or one with no provider, column -1) to slot 0, which is
    dropped.  ``ufunc.at`` applies its updates in index order, so each
    provider's total is the scalar's sequential ``revenue[name] += paid``
    walk.
    """
    slots = (best_column + 1) * stays
    totals = np.zeros(n_providers + 1, dtype=np.float64)
    np.add.at(totals, slots, paid)
    return totals[1:]


def subscriber_counts(assignment: np.ndarray, n_providers: int) -> np.ndarray:
    """Subscribers per provider column (-1 = unsubscribed, not counted)."""
    return np.bincount(assignment + 1, minlength=n_providers + 1)[1:]


def round_kernel_bytes(n: int, n_providers: int, has_taste: bool) -> int:
    """Approximate bytes the per-round kernels stream over.

    A fixed model, not a measurement: the (N, P) offer/tunnel/taste
    planes the provider scan reads plus ten per-consumer working columns
    at 8 bytes each.  It is the figure fed to the ``scale.kernel``
    ``kernel_bytes`` histogram, so memory footprint shows up alongside
    timing in bench output; the formula stays fixed so that histogram
    compares across versions.
    """
    plane = n * n_providers
    planes = 2 + (1 if has_taste else 0)
    return planes * plane * 8 + 10 * n * 8
