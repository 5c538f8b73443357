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
* **Conditional updates are branch-free.**  Where the scalar
  conditionally changes a value (take a better offer, debit a switching
  cost), a kernel applies one unmasked operation to every element: a
  select ``target ^= (target ^ source) & lanes`` on the arrays' integer
  bits, where ``lanes`` is all ones for the chosen elements and zero
  elsewhere, or an operand that is exactly ``+0.0`` for the elements
  left alone (``x - 0.0`` is ``x``).  Both are exact for every input,
  and both run at full array speed: a ufunc's ``where=`` mask writes a
  mixed 10^5-element mask about twenty times slower than the same
  operation unmasked.
* **Callers may supply the buffers.**  A kernel given ``out=`` (and,
  for :func:`best_provider`, ``work=`` scratch) writes into those arrays
  and returns them; without, it allocates.  Either way the bytes are
  the same.  Inputs other than the buffers a kernel documents as
  written are never written: offer columns live in the market's cache
  across rounds.

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


def _lanes(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``mask`` as int64 select lanes: ``-1`` (all bits set) or ``0``."""
    return np.negative(mask.view(np.int8), out=out)


def _select(lanes: np.ndarray, source, target: np.ndarray,
            scratch: np.ndarray) -> None:
    """``target = where(lanes, source, target)``, bit for bit, in place.

    ``target ^= (target ^ source) & lanes`` over integer views of the
    same width (int64 views of float64 columns, or bool with a bool
    ``lanes``): a chosen element gets ``source``'s bits, any other keeps
    its own, whatever the values are.
    """
    np.bitwise_xor(target, source, out=scratch)
    np.bitwise_and(scratch, lanes, out=scratch)
    np.bitwise_xor(target, scratch, out=target)


def amount_paid_values(
    wtp: np.ndarray,
    server_value: np.ndarray,
    values_server: np.ndarray,
    tunnels: np.ndarray,
    *,
    price: Union[float, np.ndarray],
    business_price: Union[None, float, np.ndarray],
    server_prohibited_without_tier: bool,
    out: Optional[np.ndarray] = None,
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
    consumer values a server, everyone pays the basic rate.  The
    payments are written into ``out`` when it is given.
    """
    paid = np.empty(wtp.shape[0], dtype=np.float64) if out is None else out
    np.copyto(paid, price)
    if (business_price is not None and server_prohibited_without_tier
            and values_server.any()):
        open_surplus = (wtp + server_value) - business_price
        forgo_surplus = wtp - price
        pays_tier = values_server & ~tunnels & (open_surplus >= forgo_surplus)
        # The two surplus columns are dead: they hold the select's lanes.
        _select(_lanes(pays_tier, out=forgo_surplus.view(np.int64)),
                np.asarray(business_price, dtype=np.float64).view(np.int64),
                paid.view(np.int64), open_surplus.view(np.int64))
    return paid


def best_provider(
    offer_columns: Sequence[np.ndarray],
    tunnel_columns: Sequence[np.ndarray],
    taste: Optional[np.ndarray],
    switching_cost: np.ndarray,
    assignment: np.ndarray,
    free_switch: bool = False,
    out: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    work: Optional[Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]] = None,
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

    Every update is unmasked.  A consumer not charged for column ``j``
    is debited ``+0.0``, which leaves the surplus it is compared by
    unchanged.  Column 0 is taken unconditionally: the running best
    starts at ``-inf`` and every surplus is finite for the finite
    columns :class:`~tussle.scale.arrays.ConsumerBatch` and
    :class:`~tussle.econ.agents.Consumer` admit.  A later column
    replaces the running best through :func:`_select` where it improves
    on it; a column nobody takes is skipped and one everybody takes is
    copied, which gives the same bytes.  The best surplus is kept as its
    threshold ``best + TIE_EPSILON``, the only form the scan reads.

    ``out`` is an optional ``(column, raw, tunnels)`` triple of int64,
    float64 and bool N-arrays that receives the result; ``work`` an
    optional ``(words, flags)`` pair of four int64 and three bool
    N-arrays the scan overwrites.  Neither may share memory with an
    input.  The inputs are only read.
    """
    n = switching_cost.shape[0]
    if out is None:
        out = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.float64),
               np.empty(n, dtype=bool))
    if work is None:
        work = ([np.empty(n, dtype=np.int64) for _ in range(4)],
                [np.empty(n, dtype=bool) for _ in range(3)])
    column, raw, tunnels = out
    words, flags = work
    # threshold and surplus are float64 columns held in int64 words.
    threshold_bits, surplus_bits, lanes, scratch = words
    threshold = threshold_bits.view(np.float64)
    surplus = surplus_bits.view(np.float64)
    mask, subscribed, flag_scratch = flags
    if not offer_columns:
        np.copyto(column, -1)
        np.copyto(raw, 0.0)
        np.copyto(tunnels, False)
        return column, raw, tunnels
    if not free_switch:
        np.greater_equal(assignment, 0, out=subscribed)
        cost_bits = switching_cost.view(np.int64)
    for j in range(len(offer_columns)):
        offer = offer_columns[j]
        value = offer
        if taste is not None:
            value = np.add(offer, taste[:, j], out=surplus)
        if not free_switch:
            # The cost where charged (a subscriber leaving its provider),
            # +0.0 elsewhere.
            np.not_equal(assignment, j, out=mask)
            np.logical_and(mask, subscribed, out=mask)
            np.bitwise_and(cost_bits, _lanes(mask, out=lanes), out=scratch)
            value = np.subtract(value, scratch.view(np.float64), out=surplus)
        if j > 0:
            take = np.greater(value, threshold, out=mask)
            if not take.any():
                continue
        if j == 0 or take.all():
            np.add(value, TIE_EPSILON, out=threshold)
            np.copyto(column, j)
            np.copyto(raw, offer)
            np.copyto(tunnels, tunnel_columns[j])
            continue
        _lanes(take, out=lanes)
        np.add(value, TIE_EPSILON, out=surplus)
        _select(lanes, surplus_bits, threshold_bits, scratch)
        _select(lanes, offer.view(np.int64), raw.view(np.int64), scratch)
        _select(lanes, j, column, scratch)
        _select(take, tunnel_columns[j], tunnels, flag_scratch)
    return column, raw, tunnels


def switching_masks(
    assignment: np.ndarray,
    best_column: np.ndarray,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(moved, switched): who changes provider, who pays for it.

    ``moved`` is any assignment change (including joining from the
    unsubscribed state); ``switched`` is the subset leaving an *actual*
    provider — only they pay the switching cost and count as churn.
    ``out`` is an optional pair of bool buffers for the two masks.
    """
    if out is None:
        n = assignment.shape[0]
        out = (np.empty(n, dtype=bool), np.empty(n, dtype=bool))
    moved, switched = out
    np.not_equal(assignment, best_column, out=moved)
    np.greater_equal(assignment, 0, out=switched)
    np.logical_and(switched, moved, out=switched)
    return moved, switched


def ordered_total(deltas: np.ndarray) -> float:
    """Left-to-right sum of a delta stream (the scalar ``+=`` loop).

    ``deltas`` is (N,) or (N, K): K ordered contributions per consumer,
    rows in consumer order.  Flattening row-major then ``cumsum``
    reproduces the scalar's exact accumulation sequence; the last
    partial sum is the total.
    """
    flat = np.ascontiguousarray(deltas).reshape(-1)
    if flat.size == 0:
        return 0.0
    return float(np.cumsum(flat)[-1])


def apply_surplus_updates(
    surplus_state: np.ndarray,
    debit: Optional[np.ndarray],
    credit: np.ndarray,
) -> np.ndarray:
    """Per-consumer surplus ledger update for one round.

    Two unmasked ops in the scalar's order: subtract each consumer's
    switching-cost ``debit`` (zero for one who did not switch; ``None``
    when nobody did), then add the round ``credit`` (the best offer for
    one who stays, ``+0.0`` for one who leaves).  The ledger starts at
    ``+0.0`` and never becomes ``-0.0``, so the zero operands leave it
    unchanged.  ``surplus_state`` is updated in place and returned.
    """
    if debit is not None:
        np.subtract(surplus_state, debit, out=surplus_state)
    np.add(surplus_state, credit, out=surplus_state)
    return surplus_state


def per_provider_revenue(
    paid: np.ndarray,
    slots: np.ndarray,
    n_providers: int,
) -> np.ndarray:
    """Revenue per provider column, accumulated in consumer order.

    One unbuffered ``np.add.at`` into ``n_providers + 1`` slots: a
    staying consumer's payment goes to slot ``column + 1``, a leaving
    one's (or one with no provider) to slot 0, which is dropped.
    ``ufunc.at`` applies its updates in index order, so each provider's
    total is the scalar's sequential ``revenue[name] += paid`` walk.
    """
    totals = np.zeros(n_providers + 1, dtype=np.float64)
    np.add.at(totals, slots, paid)
    return totals[1:]


def subscriber_counts(slots: np.ndarray, n_providers: int) -> np.ndarray:
    """Subscribers per provider column, from slots (``column + 1``).

    Slot 0 holds the unsubscribed and is not counted.
    """
    return np.bincount(slots, minlength=n_providers + 1)[1:]


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
