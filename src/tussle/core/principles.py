"""The paper's design principles as measurable quantities.

* :func:`isolation_score` — "modularize along tussle boundaries": 1 when
  every tussle space is confined to its own modules and no module mixes
  contested and uncontested functions (E08 measures it);
* :func:`rigidity` — "design for variation in outcome": the fraction of
  tussle-relevant variables the design fixes rather than exposes (E09
  sweeps it).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

from .design import Design
from .mechanisms import Mechanism

__all__ = ["isolation_score", "rigidity"]


def isolation_score(design: Design) -> float:
    """How well the design separates tussle spaces (in [0, 1]).

    Two penalties, averaged:

    * *entanglement* — functions sitting in more than one tussle space
      (the DNS trademark/machine-naming case);
    * *co-location* — modules mixing functions from different tussle
      spaces, or mixing contested with uncontested functions, so that a
      fight in one space shakes the other's machinery.

    A design with no contested functions scores 1.0 trivially.
    """
    functions = design.functions()
    contested = [f for f in functions if f.contested]
    if not contested:
        return 1.0

    entangled = sum(1 for f in contested if len(f.tussle_spaces) > 1)
    entanglement_penalty = entangled / len(contested)

    mixed_modules = 0
    modules_with_contested = 0
    for module in design.modules:
        spaces = module.tussle_spaces()
        if not spaces:
            continue
        modules_with_contested += 1
        has_uncontested = any(not f.contested for f in module.functions.values())
        if len(spaces) > 1 or has_uncontested:
            mixed_modules += 1
    colocation_penalty = (
        mixed_modules / modules_with_contested if modules_with_contested else 0.0
    )
    return 1.0 - (entanglement_penalty + colocation_penalty) / 2.0


def rigidity(mechanisms: Sequence[Mechanism],
             tussle_variables: Iterable[str]) -> float:
    """Fraction of tussle-relevant variables the design fails to expose.

    A variable is *exposed* when some mechanism moves it and that
    mechanism's allowed range is non-degenerate. "Rigid designs will be
    broken; designs that permit variation will flex under pressure and
    survive" — E09 sweeps exactly this quantity.
    """
    variables = sorted(set(tussle_variables))
    if not variables:
        return 0.0
    exposed: Set[str] = set()
    for mechanism in mechanisms:
        low, high = mechanism.allowed_range
        if high > low:
            exposed.add(mechanism.variable)
    unexposed = [v for v in variables if v not in exposed]
    return len(unexposed) / len(variables)

