"""Problem instances: loading, validation, preprocessing, synthesis.

Node convention: 0 is the origin depot, 1..n the pick-ups, n+1..2n the
matching drop-offs, 2n+1 the destination depot. All times are minutes, loads
passenger units, risk scores dimensionless. Travel cost equals travel time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .errors import InfeasibleRequestError, ParseError, ValidationError

INF = math.inf

RDARP = "RDARP"
EDARP = "EDARP"

# Short trips are weighted by this floor when computing detour rates, so a
# 3-minute direct trip with a 15-minute ride counts as detour 1, not 5.
DETOUR_WEIGHT_FLOOR = 15.0


@dataclass(frozen=True)
class Instance:
    """Immutable problem data, shareable across concurrent solves."""

    n: int
    fleet_size: int
    capacity: float
    q_max: float
    service: tuple[float, ...]
    load: tuple[float, ...]
    risk: tuple[float, ...]
    early: tuple[float, ...]
    late: tuple[float, ...]
    travel: tuple[tuple[float, ...], ...]
    max_ride: tuple[float, ...]
    mode: str = RDARP
    coords: tuple[tuple[float, float], ...] | None = None
    detour_weight: tuple[float, ...] | None = None
    banned_arcs: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    name: str = ""

    # -- structure helpers -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return 2 * self.n + 2

    @property
    def end_depot(self) -> int:
        return 2 * self.n + 1

    def pickups(self) -> range:
        return range(1, self.n + 1)

    def is_pickup(self, i: int) -> bool:
        return 1 <= i <= self.n

    def is_dropoff(self, i: int) -> bool:
        return self.n + 1 <= i <= 2 * self.n

    def request_of(self, i: int) -> int:
        if self.is_pickup(i):
            return i
        if self.is_dropoff(i):
            return i - self.n
        raise ValueError(f"node {i} is a depot")

    def dropoff_of(self, request: int) -> int:
        return request + self.n

    def t(self, i: int, j: int) -> float:
        return self.travel[i][j]

    def direct_time(self, request: int) -> float:
        return self.travel[request][request + self.n]

    def arc_allowed(self, i: int, j: int) -> bool:
        return (i, j) not in self.banned_arcs

    def validate(self) -> None:
        """Check structural invariants; raises ValidationError on the first failure."""
        m = self.n_nodes
        for name, seq in (
            ("service", self.service), ("load", self.load), ("risk", self.risk),
            ("early", self.early), ("late", self.late),
        ):
            if len(seq) != m:
                raise ValidationError(f"{name} must have {m} entries, got {len(seq)}")
        if len(self.travel) != m or any(len(row) != m for row in self.travel):
            raise ValidationError(f"travel-time matrix must be {m}x{m}")
        if len(self.max_ride) != self.n:
            raise ValidationError(f"max_ride must have {self.n} entries")
        if self.n < 1:
            raise ValidationError("instance has no requests")
        if self.fleet_size < 1:
            raise ValidationError("fleet size must be positive")
        _check_finite(self)
        if self.service[0] != 0 or self.service[self.end_depot] != 0:
            raise ValidationError("depot service times must be zero")
        for i in range(m):
            if self.early[i] > self.late[i]:
                raise ValidationError(f"node {i}: empty time window [{self.early[i]}, {self.late[i]}]")
            if self.service[i] < 0:
                raise ValidationError(f"node {i}: negative service time")
        for i in self.pickups():
            j = self.dropoff_of(i)
            if self.load[i] + self.load[j] != 0:
                raise ValidationError(f"request {i}: loads not paired ({self.load[i]} vs {self.load[j]})")
            if self.risk[i] + self.risk[j] != 0:
                raise ValidationError(f"request {i}: risk scores not paired")
            if self.risk[i] < 0:
                raise ValidationError(f"request {i}: negative risk score")
            if self.load[i] < 0:
                raise ValidationError(f"request {i}: negative load")
            if self.load[i] > self.capacity:
                raise InfeasibleRequestError(i, f"load {self.load[i]} exceeds capacity {self.capacity}")
            if self.direct_time(i) > self.max_ride[i - 1]:
                raise InfeasibleRequestError(
                    i, f"direct travel {self.direct_time(i):.6g} exceeds max ride {self.max_ride[i - 1]:.6g}")
        if self.mode == EDARP and self.detour_weight is None:
            raise ValidationError("EDARP instance missing detour weights")
        _check_triangle(self.travel, self.service)

    def exposure_measure(self, i: int, h: float) -> float:
        """The measure caps and the risk objective bound for request ``i``
        with exposure ``h``: the detour rate ``h / detour_weight`` in equity
        mode (EDARP), the raw exposure otherwise."""
        if self.mode == EDARP:
            return h / self.detour_weight[i - 1]
        return h

    def measure_cap(self, eps_risk: float, eps_dt: float) -> float:
        """The cap on ``exposure_measure``: the detour-rate cap ``eps_dt`` in
        equity mode (EDARP), the exposure cap ``eps_risk`` otherwise."""
        return eps_dt if self.mode == EDARP else eps_risk


def _check_finite(inst: Instance) -> None:
    """Raise ValidationError on the first number that is NaN or infinite.
    Only ``q_max``, which then caps nothing, and a window's ``late`` end,
    which preprocessing tightens, may be +inf. No comparison with NaN holds,
    so a NaN would pass every later check."""
    def bad(v, name: str) -> bool:
        return not (math.isfinite(v) or (v == INF and name in ("q_max", "late")))

    for name in ("capacity", "q_max"):
        if bad(getattr(inst, name), name):
            raise ValidationError(f"{name} is not finite: {getattr(inst, name)}")
    for name in ("service", "load", "risk", "early", "late", "max_ride", "detour_weight"):
        for k, v in enumerate(getattr(inst, name) or ()):
            if bad(v, name):
                raise ValidationError(f"{name}[{k}] is not finite: {v}")
    for name in ("coords", "travel"):
        for i, row in enumerate(getattr(inst, name) or ()):
            for j, v in enumerate(row):
                if bad(v, name):
                    raise ValidationError(f"{name}[{i}][{j}] is not finite: {v}")


def _check_triangle(travel, service, tol: float = 1e-9) -> None:
    # Labeling-time pruning (and validity of ride-time arc elimination) relies
    # on detours never being shortcuts.
    m = len(travel)
    for i in range(m):
        ti = travel[i]
        for j in range(m):
            if j == i:
                continue
            tij = ti[j]
            for k in range(m):
                if travel[i][k] + service[k] + travel[k][j] < tij - tol:
                    raise ValidationError(
                        f"travel times violate the triangle inequality via {i}->{k}->{j}")


def euclidean_matrix(coords) -> tuple[tuple[float, ...], ...]:
    return tuple(
        tuple(math.hypot(x1 - x2, y1 - y2) for (x2, y2) in coords) for (x1, y1) in coords
    )


# ---------------------------------------------------------------------------
# Cordeau benchmark format
# ---------------------------------------------------------------------------

def parse_cordeau(text: str, name: str = "") -> Instance:
    """Parse the classic benchmark text format.

    Header ``K n T Q L`` (fleet, requests, route-duration cap, capacity,
    default max ride time), then one ``id x y service load early late`` line
    per node 0..2n+1. The route-duration cap becomes the depot windows.
    """
    lines = [ln for ln in text.splitlines()]
    rows: list[tuple[int, list[str]]] = [
        (i + 1, ln.split()) for i, ln in enumerate(lines) if ln.strip()
    ]
    if not rows:
        raise ParseError("empty file")
    lineno, header = rows[0]
    if len(header) != 5:
        raise ParseError(f"header must have 5 fields, got {len(header)}", lineno)
    try:
        fleet = int(header[0])
        n_raw = int(header[1])
        horizon = float(header[2])
        capacity = float(header[3])
        ride_default = float(header[4])
    except ValueError as exc:
        raise ParseError(f"bad header field: {exc}", lineno) from None

    body = rows[1:]
    # Some distributions label the header with the node count 2n (or 2n+1)
    # instead of the request count; infer n from the body length.
    if len(body) % 2 != 0:
        raise ParseError(f"expected an even number of node lines, got {len(body)}")
    n = (len(body) - 2) // 2
    if n < 1:
        raise ValidationError("no requests")
    if n_raw not in (n, 2 * n, 2 * n + 1):
        raise ParseError(f"header count {n_raw} does not match {len(body)} node lines")

    coords: list[tuple[float, float]] = []
    service: list[float] = []
    load: list[float] = []
    early: list[float] = []
    late: list[float] = []
    for idx, (lineno, parts) in enumerate(body):
        if len(parts) != 7:
            raise ParseError(f"node line must have 7 fields, got {len(parts)}", lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"bad node field: {exc}", lineno) from None
        if int(values[0]) != idx:
            raise ParseError(f"expected node id {idx}, got {parts[0]}", lineno)
        coords.append((values[1], values[2]))
        service.append(values[3])
        load.append(values[4])
        early.append(values[5])
        late.append(values[6])

    for d in (0, 2 * n + 1):
        early[d], late[d] = 0.0, horizon
        service[d] = 0.0
    risk = [0.0] * (2 * n + 2)

    inst = Instance(
        n=n,
        fleet_size=fleet,
        capacity=capacity,
        q_max=INF,
        service=tuple(service),
        load=tuple(load),
        risk=tuple(risk),
        early=tuple(early),
        late=tuple(late),
        travel=euclidean_matrix(coords),
        max_ride=tuple([ride_default] * n),
        coords=tuple(coords),
        name=name,
    )
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# Real-world JSON format (schema owned by this package)
# ---------------------------------------------------------------------------

def parse_realworld(text: str, name: str = "") -> Instance:
    """Parse the JSON instance format.

    Schema: ``{"n", "K", "capacity", "q_max"?, "mode", "nodes": [{"id",
    "service", "load", "risk", "early", "late"}], "travel_time": row-major
    (2n+2)^2 list, "max_ride": [n entries], "coords"?: [[x, y]]}``. A missing
    ``q_max`` is derived from the horizon and mean risk; ``null`` means
    unbounded.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError(f"an instance must be a JSON object, not {type(doc).__name__}")
    for key in ("n", "K", "capacity", "mode", "nodes", "travel_time", "max_ride"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    n = _json_number(int, doc["n"], "n")
    m = 2 * n + 2
    nodes = _json_list(doc["nodes"], "nodes", m)
    flat = _json_list(doc["travel_time"], "travel_time", m * m)
    mode = doc["mode"]
    if mode not in (RDARP, EDARP):
        raise ParseError(f"mode must be {RDARP!r} or {EDARP!r}, got {mode!r}")

    fields = {k: [0.0] * m for k in ("service", "load", "risk", "early", "late")}
    for idx, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ParseError(f"node {idx} must be a JSON object, not {type(node).__name__}")
        for k in ("id", *fields):
            if k not in node:
                raise ParseError(f"node {idx} has no {k!r} field")
        if _json_number(int, node["id"], f"node {idx}: id") != idx:
            raise ParseError(f"expected node id {idx}, got {node['id']}")
        for k in fields:
            fields[k][idx] = _json_number(float, node[k], f"node {idx}: {k}")

    flat = [_json_number(float, v, f"travel_time entry {k}") for k, v in enumerate(flat)]
    travel = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(m))
    max_ride = tuple(_json_number(float, v, f"max_ride entry {k}")
                     for k, v in enumerate(_json_list(doc["max_ride"], "max_ride", n)))
    coords = None
    if doc.get("coords") is not None:
        coords = tuple(
            tuple(_json_number(float, v, f"coords entry {k}")
                  for v in _json_list(xy, f"coords entry {k}", 2))
            for k, xy in enumerate(_json_list(doc["coords"], "coords", m)))

    detour_weight = None
    if mode == EDARP:
        detour_weight = tuple(
            max(DETOUR_WEIGHT_FLOOR, travel[i][i + n]) for i in range(1, n + 1)
        )

    inst = Instance(
        n=n,
        fleet_size=_json_number(int, doc["K"], "K"),
        capacity=_json_number(float, doc["capacity"], "capacity"),
        q_max=INF,  # placeholder, fixed below
        service=tuple(fields["service"]),
        load=tuple(fields["load"]),
        risk=tuple(fields["risk"]),
        early=tuple(fields["early"]),
        late=tuple(fields["late"]),
        travel=travel,
        max_ride=max_ride,
        mode=mode,
        coords=coords,
        detour_weight=detour_weight,
        name=name or str(doc.get("name", "")),
    )
    if "q_max" in doc:
        q_max = INF if doc["q_max"] is None else _json_number(float, doc["q_max"], "q_max")
    else:
        q_max = compute_qmax(inst)
    inst = replace(inst, q_max=q_max)
    inst.validate()
    return inst


def _json_number(convert, value, what: str):
    """``convert(value)`` for ``convert`` ``int`` or ``float``; ParseError
    naming ``what`` when ``value`` is no number."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} must be a number, got {value!r}") from None


def _json_list(value, what: str, length: int) -> list:
    """``value`` when it is a list of ``length`` entries, else ParseError
    naming ``what``."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, not {type(value).__name__}")
    if len(value) != length:
        raise ParseError(f"{what} must have {length} entries, got {len(value)}")
    return value


def emit_realworld(inst: Instance) -> str:
    """Serialize to the JSON format; byte-stable for identical instances."""
    m = inst.n_nodes
    doc = {
        "n": inst.n,
        "K": inst.fleet_size,
        "capacity": inst.capacity,
        "q_max": None if inst.q_max == INF else inst.q_max,
        "mode": inst.mode,
        "nodes": [
            {
                "id": i,
                "service": inst.service[i],
                "load": inst.load[i],
                "risk": inst.risk[i],
                "early": inst.early[i],
                "late": inst.late[i],
            }
            for i in range(m)
        ],
        "travel_time": [inst.travel[i][j] for i in range(m) for j in range(m)],
        "max_ride": list(inst.max_ride),
    }
    if inst.coords is not None:
        doc["coords"] = [[x, y] for x, y in inst.coords]
    if inst.name:
        doc["name"] = inst.name
    return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Risk synthesis
# ---------------------------------------------------------------------------

def derive_benchmark_risk(inst: Instance) -> Instance:
    """Risk extension for benchmark instances: score equals passenger count."""
    risk = list(inst.risk)
    for i in inst.pickups():
        risk[i] = inst.load[i]
        risk[i + inst.n] = -inst.load[i]
    return replace(inst, risk=tuple(risk))


def compute_qmax(inst: Instance) -> float:
    """Default per-route cumulative-risk cap: horizon times mean pick-up score."""
    if inst.n < 1:
        raise ValidationError("q_max requires at least one request")
    horizon = inst.late[inst.end_depot] - inst.early[0]
    mean_risk = sum(inst.risk[i] for i in inst.pickups()) / inst.n
    return horizon * mean_risk if mean_risk else 0.0  # 0.0 also over an endless horizon


# ---------------------------------------------------------------------------
# Preprocessing: window tightening and arc elimination
# ---------------------------------------------------------------------------

def preprocess(inst: Instance) -> Instance:
    """Tighten time windows to a fixed point and remove provably useless arcs.

    Tightened windows never cut off any feasible schedule; removed arcs cannot
    appear in any feasible route. Raises InfeasibleRequestError if a request's
    window empties.
    """
    n = inst.n
    early = list(inst.early)
    late = list(inst.late)

    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10 * inst.n_nodes:
            break
        for i in inst.pickups():
            j = inst.dropoff_of(i)
            s, t_dir, ride = inst.service[i], inst.direct_time(i), inst.max_ride[i - 1]
            updates = (
                (j, max(early[j], early[i] + s + t_dir), late[j]),
                (i, early[i], min(late[i], late[j] - s - t_dir)),
                (i, max(early[i], early[j] - s - ride), late[i]),
                (j, early[j], min(late[j], late[i] + s + ride)),
            )
            for node, lo, hi in updates:
                if lo > early[node] + 1e-12:
                    early[node] = lo
                    changed = True
                if hi < late[node] - 1e-12:
                    late[node] = hi
                    changed = True
        for i in inst.pickups():
            j = inst.dropoff_of(i)
            if early[i] > late[i] + 1e-9 or early[j] > late[j] + 1e-9:
                raise InfeasibleRequestError(i, "time window empties under tightening")

    banned: set[tuple[int, int]] = set(inst.banned_arcs)
    end = inst.end_depot
    for i in inst.pickups():
        banned.add((inst.dropoff_of(i), i))
        banned.add((0, inst.dropoff_of(i)))
        banned.add((i, end))
    for i in range(inst.n_nodes):
        for j in range(inst.n_nodes):
            if i == j:
                continue
            if early[i] + inst.service[i] + inst.t(i, j) > late[j] + 1e-9:
                banned.add((i, j))
    for i in inst.pickups():
        for j in inst.pickups():
            if i == j:
                continue
            if inst.t(i, j) + inst.service[j] + inst.t(j, inst.dropoff_of(i)) > inst.max_ride[i - 1] + 1e-9:
                banned.add((i, j))
                banned.add((j, inst.dropoff_of(i)))

    return replace(inst, early=tuple(early), late=tuple(late), banned_arcs=frozenset(banned))


def edarp_transform(inst: Instance) -> Instance:
    """Switch to equity mode: real risk scores drop to zero and pricing carries
    a virtual ever-onboard rider of unit risk, so each rider's exposure equals
    their onboard duration. Detour weights are floored at 15 minutes."""
    if inst.mode != RDARP:
        raise ValidationError("edarp_transform expects an RDARP-mode instance")
    risk = [0.0] * inst.n_nodes
    weights = tuple(max(DETOUR_WEIGHT_FLOOR, inst.direct_time(i)) for i in inst.pickups())
    return replace(inst, mode=EDARP, risk=tuple(risk), detour_weight=weights)
