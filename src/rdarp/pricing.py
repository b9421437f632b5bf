"""Pricing subproblem: elementary shortest paths with resource constraints,
solved by forward labeling. Each emitted column carries the schedule the
delay calibration (``rdarp.calibration``) commits for its sequence.

The labeling itself runs in ``rdarp._labeling_py``; this module maps master
duals and branch restrictions to its terms and sets EDARP exposure on what it
emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import _labeling_py
from .instance import EDARP, Instance
from .oracle import Route, onboard_times

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
    """A branch node's restrictions: the one record of what its subtree
    forbids.

    Pricing enforces it by never extending along a banned arc and by emitting
    only sequences ``allows`` accepts; the master enforces it by fixing to
    zero every pool column ``allows`` rejects (``master.build_rlmp``).
    """

    banned_arcs: frozenset[tuple[int, int]] = frozenset()
    # (arc set, max crossings): a route crossing the set more often is barred
    crossing_caps: tuple[tuple[frozenset[tuple[int, int]], int], ...] = ()

    def allows(self, sequence, arcs) -> bool:
        if not self.banned_arcs.isdisjoint(arcs):
            return False
        for arc_set, cap in self.crossing_caps:
            if sum(1 for a in arcs if a in arc_set) > cap:
                return False
        return True


def solve_pricing(
    inst: Instance,
    duals: DualValues,
    mode: str = COST,
    heuristic: bool = False,
    limit: int = DEFAULT_COLUMN_LIMIT,
    restrictions: PricingRestrictions | None = None,
    trace=None,
) -> list[Column]:
    """Return up to ``limit`` columns with reduced cost below -1e-6, best
    first. A heuristic run weakens dominance (drops the served-set inclusion)
    and must be confirmed by an exact run before declaring LP optimality. It
    stops once ``limit`` columns are complete, so it returns the first ones
    found, not the best. An exact run is exhaustive, so its best column is the
    minimum reduced cost.

    In equity mode each column's exposure is read off its emitted schedule
    (drop-off minus pick-up start of service), so it equals the onboard time
    exactly, not the labels' step-by-step sum of it."""
    if mode not in (COST, RISK):
        raise ValueError(f"mode must be {COST!r} or {RISK!r}")
    duals.validate_signs()
    restrictions = restrictions or PricingRestrictions()
    cols = _labeling_py.run_labeling(inst, duals, mode, heuristic, limit, restrictions, trace)
    if inst.mode == EDARP:
        cols = [replace(c, exposure=onboard_times(inst, c.sequence, c.schedule)) for c in cols]
    return cols
