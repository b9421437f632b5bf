"""Command-line interface: solve, pareto, validate, convert.

Exit codes: 0 success, 1 usage error, 2 infeasible, 3 time limit reached,
4 internal error. All outputs are byte-stable for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from types import MappingProxyType

from . import __version__, bcp, master, oracle
from .errors import (
    InfeasibleRequestError,
    ParseError,
    RouteInfeasible,
    ValidationError,
)
from .instance import (
    EDARP,
    Instance,
    derive_benchmark_risk,
    edarp_transform,
    emit_realworld,
    parse_cordeau,
    parse_realworld,
    preprocess,
)
from .master import COST

INF = math.inf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
EXIT_INTERNAL = 4


def load_instance(path: str, benchmark_risk: bool = True) -> Instance:
    """Read a Cordeau text file or the JSON format (detected by content).

    Cordeau files carry no risk scores; by default each pick-up's score is set
    to its passenger count (disable with --raw-risk)."""
    return _read_instance(Path(path).read_text(), Path(path).stem, benchmark_risk)


def _read_instance(text: str, name: str, benchmark_risk: bool) -> Instance:
    if text.lstrip().startswith("{"):
        return parse_realworld(text, name=name)
    inst = parse_cordeau(text, name=name)
    return derive_benchmark_risk(inst) if benchmark_risk else inst


def _parse_eps(value: str) -> float:
    if value.lower() in ("inf", "infinity", "none"):
        return INF
    eps = float(value)
    if math.isnan(eps):
        raise argparse.ArgumentTypeError("a cap must be a number or inf, not nan")
    if eps < 0:
        raise argparse.ArgumentTypeError(f"a cap must be nonnegative, got {value}")
    return eps


def _parse_step(value: str) -> float:
    step = float(value)
    if not step > 0:
        raise argparse.ArgumentTypeError(f"the step must be positive, got {value}")
    return step


def _parse_time_limit(value: str) -> float:
    limit = float(value)
    if not limit >= 0:
        raise argparse.ArgumentTypeError(f"the time limit must be nonnegative, got {value}")
    return limit


def _round6(x: float):
    if x == INF:
        return "inf"
    return round(x + 0.0, 6)


def report_to_json(inst: Instance, rep: bcp.SolveReport) -> str:
    routes = []
    for r in rep.routes:
        routes.append({
            "sequence": list(r.sequence),
            "schedule": [_round6(v) for v in r.schedule],
            "cost": _round6(r.cost),
            "H": {str(i): _round6(h) for i, h in sorted(r.exposure.items())},
            "Q": _round6(r.q_terminal),
        })
    doc = {
        "status": rep.status,
        "objective": None if rep.objective == INF else _round6(rep.objective),
        "bound": None if abs(rep.bound) == INF else _round6(rep.bound),
        "gap": None if rep.gap == INF else _round6(rep.gap),
        "routes": routes,
        "stats": {
            "nodes": rep.nodes_explored,
            "columns": rep.columns,
            "cuts": rep.cuts,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def routes_from_json(doc, n_nodes: int) -> list[oracle.Route]:
    """The routes of a solution document for an instance of ``n_nodes``
    nodes. Raises ``ParseError`` when the document is not an object, a route
    lacks a field, or a field does not hold what a route needs (a sequence
    entry that is not one of the instance's node indices, or a start time
    that is not finite)."""
    if not isinstance(doc, dict):
        raise ParseError(f"a solution must be a JSON object, not {type(doc).__name__}")
    entries = doc.get("routes", [])
    if not isinstance(entries, list):
        raise ParseError(f'"routes" must be a list, not {type(entries).__name__}')
    routes = []
    for idx, r in enumerate(entries):
        if not isinstance(r, dict):
            raise ParseError(f"route {idx} must be a JSON object, not {type(r).__name__}")
        try:
            routes.append(oracle.Route(
                sequence=tuple(_node_index(v, n_nodes) for v in r["sequence"]),
                schedule=tuple(_start_time(v) for v in r["schedule"]),
                cost=float(r["cost"]),
                exposure={int(k): float(v) for k, v in r["H"].items()},
                q_terminal=float(r["Q"]),
            ))
        except KeyError as exc:
            raise ParseError(f"route {idx} has no {exc} field") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"route {idx}: {exc}") from None
    return routes


def _start_time(value) -> float:
    # every check on a NaN time passes, so a NaN schedule would validate
    time = float(value)
    if not math.isfinite(time):
        raise ValueError(f"schedule entry {value!r} is not a finite number")
    return time


def _node_index(value, n_nodes: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"sequence entry {value!r} is not an integer")
    if not 0 <= value < n_nodes:
        raise ValueError(f"sequence entry {value} is not a node index (0 to {n_nodes - 1})")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rdarp", description=__doc__)
    p.add_argument("--version", action="version", version=f"rdarp {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("instance")
        sp.add_argument("--raw-risk", action="store_true",
                        help="keep zero risk scores from Cordeau files")
        sp.add_argument("--edarp", action="store_true", help="equity mode transform")

    sp = sub.add_parser("solve", help="exact single-objective solve")
    common(sp)
    sp.add_argument("--mode", choices=["cost", "risk"], default="cost")
    sp.add_argument("--eps-risk", type=_parse_eps, default=INF)
    sp.add_argument("--eps-cost", type=_parse_eps, default=INF)
    sp.add_argument("--eps-dt", type=_parse_eps, default=INF)
    sp.add_argument("--time-limit", type=_parse_time_limit, default=None)
    sp.add_argument("--certify-risk", action="store_true",
                    help="with --mode cost, routes of least peak exposure among the cheapest, "
                         "to within δ: the pareto sweep's first point, over one column pool and "
                         "within --time-limit; a certification cut short keeps the cost status")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("pareto", help="exact bi-objective front")
    common(sp)
    sp.add_argument("--step", type=_parse_step, default=0.01)
    sp.add_argument("--time-limit", type=_parse_time_limit, default=None,
                    help="time limit in seconds for each tree of the sweep")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    sp.add_argument("--json", dest="json_out", default=None)

    sp = sub.add_parser("validate", help="check a solution file against an instance")
    common(sp)
    sp.add_argument("solution")
    sp.add_argument("--eps-risk", type=_parse_eps, default=INF)
    sp.add_argument("--eps-dt", type=_parse_eps, default=INF)

    sp = sub.add_parser("convert", help="convert between instance formats")
    sp.add_argument("instance")
    sp.add_argument("output")
    sp.add_argument("--raw-risk", action="store_true")
    return p


def _prepare(args) -> Instance:
    inst = load_instance(args.instance, benchmark_risk=not args.raw_risk)
    if args.edarp:
        if inst.mode != EDARP:
            inst = edarp_transform(inst)
    return inst


_CAP_USE = MappingProxyType({
    "eps_cost": "--eps-cost caps cost only with --mode risk",
    "eps_risk": "--eps-risk caps exposure only with --mode cost on an instance that is not EDARP",
    "eps_dt": "--eps-dt caps detour rates only with --mode cost on an EDARP instance (--edarp)",
})


def _reject_ignored_flags(args, inst: Instance, mode: str) -> bool:
    """Report each flag a ``mode`` solve on ``inst`` would ignore: a finite
    cap it does not enforce (``bcp.enforced_cap``), or ``--certify-risk``
    outside a cost solve. Returns whether there was one."""
    enforced = bcp.enforced_cap(inst, mode)
    ignored = [message for name, message in _CAP_USE.items()
               if getattr(args, name, INF) < INF and name != enforced]
    if getattr(args, "certify_risk", False) and mode != COST:
        ignored.append("--certify-risk applies only with --mode cost")
    for message in ignored:
        print(f"error: {message}", file=sys.stderr)
    return bool(ignored)


def cmd_solve(args) -> int:
    inst = _prepare(args)
    if _reject_ignored_flags(args, inst, args.mode):
        return EXIT_USAGE
    inst = preprocess(inst)
    rep = bcp.solve(inst, args.mode, bcp.SolveOptions(
        eps_risk=args.eps_risk, eps_cost=args.eps_cost, eps_dt=args.eps_dt,
        time_limit=args.time_limit, certify_risk=args.certify_risk))
    payload = report_to_json(inst, rep)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    if rep.status == master.INFEASIBLE_STATUS:
        return EXIT_INFEASIBLE
    if rep.status == master.TIME_LIMIT_STATUS:
        return EXIT_TIME_LIMIT
    return EXIT_OK


def pareto_csv(points: list[bcp.ParetoPoint]) -> str:
    lines = ["epsilon_risk,cost,max_risk,n_routes"]
    for p in points:
        eps = "inf" if p.eps_risk == INF else f"{p.eps_risk:.6f}"
        lines.append(f"{eps},{p.cost:.6f},{p.max_risk:.6f},{len(p.routes)}")
    return "\n".join(lines) + "\n"


def cmd_pareto(args) -> int:
    inst = preprocess(_prepare(args))
    points, complete = bcp.pareto_front(inst, args.step, args.time_limit)
    csv = pareto_csv(points)
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    if args.json_out:
        doc = [
            {
                "epsilon_risk": "inf" if p.eps_risk == INF else _round6(p.eps_risk),
                "cost": _round6(p.cost),
                "max_risk": _round6(p.max_risk),
                "n_routes": len(p.routes),
            }
            for p in points
        ]
        Path(args.json_out).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    if not complete:
        return EXIT_TIME_LIMIT
    if not points:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = preprocess(_prepare(args))
    if _reject_ignored_flags(args, inst, COST):
        return EXIT_USAGE
    doc = json.loads(Path(args.solution).read_text())
    cap = inst.measure_cap(args.eps_risk, args.eps_dt)
    try:
        oracle.validate_solution(inst, routes_from_json(doc, inst.n_nodes), cap)
    except RouteInfeasible as exc:
        for node, desc, lhs, rhs in exc.violations:
            print(f"node {node}: {desc}: {lhs:.6g} vs {rhs:.6g}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print("feasible")
    return EXIT_OK


def cmd_convert(args) -> int:
    text = Path(args.instance).read_text()
    inst = _read_instance(text, Path(args.instance).stem, not args.raw_risk)
    if not text.lstrip().startswith("{"):
        out = emit_realworld(inst) + "\n"
    elif inst.coords is None:
        print("cannot emit Cordeau format without coordinates", file=sys.stderr)
        return EXIT_USAGE
    else:
        out = _emit_cordeau(inst)
        lost = _cordeau_loss(inst, out, not args.raw_risk)
        if lost:
            print(f"error: the Cordeau format cannot hold this instance: {lost}",
                  file=sys.stderr)
            return EXIT_USAGE
    Path(args.output).write_text(out)
    return EXIT_OK


def _emit_cordeau(inst: Instance) -> str:
    horizon = inst.late[inst.end_depot]
    ride = inst.max_ride[0]
    lines = [f"{inst.fleet_size} {inst.n} {horizon:g} {inst.capacity:g} {ride:g}"]
    for i in range(inst.n_nodes):
        x, y = inst.coords[i]
        lines.append(
            f"{i} {x:.3f} {y:.3f} {inst.service[i]:g} {inst.load[i]:g} "
            f"{inst.early[i]:g} {inst.late[i]:g}"
        )
    return "\n".join(lines) + "\n"


def _cordeau_loss(inst: Instance, text: str, benchmark_risk: bool) -> str | None:
    """What of ``inst`` the Cordeau ``text`` loses when read back as
    ``load_instance`` reads it: the first field, in ``Instance`` order, that
    would change; None when none would. The format holds one max ride time,
    no risk scores (``derive_benchmark_risk`` makes them from loads), no
    ``q_max`` and no mode, and rounds coordinates to 3 decimals."""
    try:
        back = _read_instance(text, inst.name, benchmark_risk)
    except (ParseError, ValidationError) as exc:
        return f"the text would not load back ({exc})"
    return next((f"{f.name} would change" for f in fields(Instance)
                 if getattr(inst, f.name) != getattr(back, f.name)), None)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "pareto":
            return cmd_pareto(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "convert":
            return cmd_convert(args)
        return EXIT_USAGE
    except RouteInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InfeasibleRequestError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParseError, ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
