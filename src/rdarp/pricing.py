"""Pricing subproblem: elementary shortest paths with resource constraints,
solved by forward labeling. Each emitted column carries the schedule the
delay calibration (``rdarp.calibration``) commits for its sequence.

The labeling itself runs in ``rdarp._labeling_py``; this module maps master
duals, branch restrictions and the per-rider cap to its terms, and passes on
the solve's ``calibration.ExpansionCache``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _labeling_py
from .calibration import ExpansionCache
from .instance import Instance
from .oracle import Route

INF = math.inf
DEFAULT_COLUMN_LIMIT = 200
ENGINE_NAME = "py"  # names _labeling_py in the run metadata perfbench/run.py records

COST = "cost"
RISK = "risk"


@dataclass
class DualValues:
    """Master duals mapped to pricing terms.

    ``pi``: request coverage duals (free sign). ``mu``: sum of the fleet-size
    dual and any vehicle-count branching duals (route-constant). ``rho``:
    per-request exposure duals, already divided by detour weights in equity
    mode. ``xi``: cost-cap dual (risk objective only). ``arc_adjust``: folded
    per-arc duals from cuts and branching rows, subtracted from arc costs.
    """

    pi: dict[int, float] = field(default_factory=dict)
    mu: float = 0.0
    rho: dict[int, float] = field(default_factory=dict)
    xi: float = 0.0
    arc_adjust: dict[tuple[int, int], float] = field(default_factory=dict)

    def validate_signs(self) -> None:
        # mu aggregates the fleet dual with branching duals of either sign,
        # so only the pure-role duals carry sign conditions here.
        if self.xi > 1e-7:
            raise ValueError(f"cost-cap dual must be nonpositive, got {self.xi}")
        for i, v in self.rho.items():
            if v > 1e-7:
                raise ValueError(f"exposure dual for request {i} must be nonpositive, got {v}")


@dataclass(frozen=True)
class Column(Route):
    """A route as pricing emits it, with its reduced cost under the duals it
    was priced with."""

    reduced_cost: float


@dataclass(frozen=True)
class PricingRestrictions:
    """A branch node's restrictions: the arcs its subtree bans.

    Pricing enforces them by never extending along a banned arc, so no
    column it emits uses one; the master fixes to zero every pool column
    ``allows`` rejects (``master.build_rlmp``).
    """

    banned_arcs: frozenset[tuple[int, int]] = frozenset()

    def allows(self, arcs) -> bool:
        return self.banned_arcs.isdisjoint(arcs)


def solve_pricing(
    inst: Instance,
    duals: DualValues,
    mode: str = COST,
    heuristic: bool = False,
    limit: int = DEFAULT_COLUMN_LIMIT,
    restrictions: PricingRestrictions | None = None,
    trace=None,
    cap: float = INF,
    cache: ExpansionCache | None = None,
) -> list[Column]:
    """Return up to ``limit`` columns with reduced cost below -1e-6, best
    first. A heuristic run weakens dominance (drops the served-set inclusion)
    and must be confirmed by an exact run before declaring LP optimality. It
    stops once ``limit`` columns are complete, so it returns the first ones
    found, not the best. An exact run is exhaustive, so its best column is the
    minimum reduced cost over the routes that use no banned arc and that the
    cap admits; an ``arc>=1`` branching row's dual reaches it as an arc cost
    (``DualValues.arc_adjust``).

    ``cap`` bounds every rider's exposure measure (``Instance.exposure_measure``:
    the detour rate in equity mode). No column over it by the rule of
    ``oracle.over_cap`` is emitted, and labels whose finalized riders are
    already over it are dropped (``_labeling_py``). It is an argument of each
    call, never state kept between calls; the default ``INF`` prices without
    a cap. In equity mode each column's exposure is read off its emitted
    schedule (drop-off minus pick-up start of service), so it equals the
    onboard time exactly, not the labels' step-by-step sum of it.

    ``cache`` is the solve's ``calibration.ExpansionCache`` over ``inst``
    (``ColumnPool.expansions``); a call without one builds a fresh cache for
    itself. It holds the dual-independent work, each state's accepted
    extensions, for up to ``calibration.EXPANSION_CAP`` child states. The
    duals, ``restrictions``, ``cap``, ``heuristic`` and ``limit`` act per
    call, so a shared cache returns exactly the columns a fresh one would.
    A cache built for another instance raises ``ValueError``."""
    if mode not in (COST, RISK):
        raise ValueError(f"mode must be {COST!r} or {RISK!r}")
    duals.validate_signs()
    restrictions = restrictions or PricingRestrictions()
    if cache is None:
        cache = ExpansionCache(inst)
    elif cache.inst is not inst and cache.inst != inst:
        raise ValueError("the expansion cache was built for another instance")
    return _labeling_py.run_labeling(inst, duals, mode, heuristic, limit, restrictions,
                                     trace, cap, cache)
