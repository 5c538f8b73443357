"""Vectorized traffic-demand kernels: gravity model over stub populations.

The peering-economics layer (:mod:`tussle.peering`) needs a demand
matrix over the stub ASes of a generated internet — who sends how much
to whom — at 10^3 x 10^3 scale and beyond.  These kernels build it the
way every other at-scale workload in :mod:`tussle.scale` is built:
whole-array NumPy, no per-entry Python loops, and every random draw
seeded through an explicit substream (``derive_seed`` over labelled
identity components), so the matrix is a pure function of
``(stub count, seed, knobs)`` and byte-identical across runs.

Model
-----
Each stub AS gets two heavy-tailed attributes drawn from *independent*
substreams:

* ``population`` — how many eyeballs sit behind the stub (Zipf-like,
  exponent ``population_tail``); and
* ``content`` — how much content it originates (Zipf-like with a
  heavier tail, so a few stubs are hosting giants).

Demand is a directional gravity model: traffic from stub *i* to stub
*j* is proportional to ``content[i] * population[j]`` (content flows
toward eyeballs), plus a symmetric ``baseline`` gravity term
``population[i] * population[j]`` for person-to-person traffic.  The
diagonal is zero and the matrix is normalised so total demand equals
``total_demand`` exactly — experiments reason about shares, not
absolute bytes.

The directional term is what makes peering economics interesting: a
content-heavy stub's transit AS *sends* far more than it receives, and
sent volume is what transit billing meters (see
:mod:`tussle.peering.value`), so traffic imbalance surfaces as
bargaining asymmetry — the paid-peering tussle.
"""

from __future__ import annotations

import numpy as np

from ..canon import derive_seed
from ..errors import ScaleError

__all__ = ["zipf_attribute", "stub_populations", "stub_content",
           "gravity_demand"]


def zipf_attribute(n: int, seed: int, exponent: float,
                   *labels: str) -> np.ndarray:
    """A length-``n`` heavy-tailed attribute vector, deterministically.

    Values are the Zipf weights ``rank^-exponent`` (normalised to mean
    1.0) assigned to positions by a seeded permutation, so the *set* of
    values is a pure function of ``(n, exponent)`` and only the
    assignment varies with the seed.  The RNG substream is derived with
    ``derive_seed(seed, *labels)`` — callers give each attribute its own
    label so adding a draw to one attribute can never shift another's.
    """
    if n < 1:
        raise ScaleError("attribute vector needs at least one stub")
    if exponent < 0:
        raise ScaleError("zipf exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    weights *= n / weights.sum()  # mean 1.0
    rng = np.random.default_rng(derive_seed(seed, *labels))
    return weights[rng.permutation(n)]


def stub_populations(n: int, seed: int,
                     population_tail: float = 0.8) -> np.ndarray:
    """Eyeball populations per stub (Zipf tail, mean 1.0)."""
    return zipf_attribute(n, seed, population_tail,
                          "tmatrix", "population")


def stub_content(n: int, seed: int, content_tail: float = 1.2) -> np.ndarray:
    """Content intensity per stub (heavier Zipf tail, mean 1.0)."""
    return zipf_attribute(n, seed, content_tail, "tmatrix", "content")


def gravity_demand(population: np.ndarray, content: np.ndarray,
                   total_demand: float = 1e6,
                   baseline: float = 0.25) -> np.ndarray:
    """The directional gravity demand matrix over stubs.

    ``demand[i, j]`` is traffic sent from stub ``i`` to stub ``j``:
    ``content[i] * population[j] + baseline * population[i] *
    population[j]``, zero diagonal, normalised so the matrix sums to
    ``total_demand`` exactly.  Pure whole-array kernel: no RNG, no
    loops, no mutation of its arguments.
    """
    population = np.asarray(population, dtype=np.float64)
    content = np.asarray(content, dtype=np.float64)
    if population.shape != content.shape or population.ndim != 1:
        raise ScaleError("population and content must be equal-length vectors")
    if population.size < 2:
        raise ScaleError("gravity demand needs at least two stubs")
    if total_demand <= 0:
        raise ScaleError("total_demand must be positive")
    if baseline < 0:
        raise ScaleError("baseline weight must be non-negative")
    raw = np.outer(content, population) \
        + baseline * np.outer(population, population)
    np.fill_diagonal(raw, 0.0)
    total = raw.sum()
    if total <= 0:
        raise ScaleError("gravity demand degenerated to an all-zero matrix")
    return raw * (total_demand / total)
