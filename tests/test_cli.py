import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rdarp import cli
from rdarp.fixtures import random_instance
from rdarp.instance import emit_realworld, parse_realworld

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "realworld"


@pytest.fixture
def small_json(tmp_path):
    inst = random_instance(4, n=3, fleet_size=2)
    path = tmp_path / "inst.json"
    path.write_text(emit_realworld(inst))
    return path


def test_solve_writes_solution(tmp_path, small_json):
    out = tmp_path / "sol.json"
    rc = cli.run(["solve", str(small_json), "--eps-risk", "inf", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "Optimal"
    assert doc["objective"] > 0
    assert doc["routes"] and doc["stats"]["nodes"] >= 1
    for route in doc["routes"]:
        assert set(route) == {"sequence", "schedule", "cost", "H", "Q"}


def test_solve_output_byte_stable(tmp_path, small_json):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(["solve", str(small_json), "--out", str(out1)]) == 0
    assert cli.run(["solve", str(small_json), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_roundtrip_and_violation(tmp_path, small_json, capsys):
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", str(small_json), "--out", str(sol)]) == 0
    assert cli.run(["validate", str(small_json), str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["routes"][0]["schedule"][1] += 500.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = cli.run(["validate", str(small_json), str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "vs" in captured.err  # both sides of the violated inequality


def test_validate_rejects_missing_coverage(tmp_path, small_json, capsys):
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", str(small_json), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    (route,) = doc["routes"]
    # coverage is read off the sequence: an emptied route keeping its H serves nothing
    emptied = dict(route, sequence=[0, 7], schedule=[route["schedule"][0], route["schedule"][-1]])
    for name, routes in (("partial", []), ("emptied", [emptied])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(doc, routes=routes)))
        capsys.readouterr()
        assert cli.run(["validate", str(small_json), str(path)]) == 2, name
        assert "times the request is served" in capsys.readouterr().err


def test_validate_rejects_a_broken_cap(tmp_path, small_json, capsys):
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", str(small_json), "--out", str(sol)]) == 0
    peak = max(h for r in json.loads(sol.read_text())["routes"] for h in r["H"].values())
    assert peak > 0.0
    assert cli.run(["validate", str(small_json), str(sol), "--eps-risk", str(peak)]) == 0
    capsys.readouterr()
    rc = cli.run(["validate", str(small_json), str(sol), "--eps-risk", str(peak / 2)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exposure cap" in err and "vs" in err


def test_validate_recomputes_exposure_from_the_schedule(tmp_path, small_json, capsys):
    # the file's H values are not trusted: zeroing them hides no exposure
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", str(small_json), "--out", str(sol)]) == 0
    assert cli.run(["validate", str(small_json), str(sol), "--eps-risk", "1"]) == 2
    doc = json.loads(sol.read_text())
    for route in doc["routes"]:
        route["H"] = {k: 0.0 for k in route["H"]}
    zeroed = tmp_path / "zeroed.json"
    zeroed.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.run(["validate", str(small_json), str(zeroed), "--eps-risk", "1"]) == 2
    assert "exposure cap" in capsys.readouterr().err


def test_solve_validate_roundtrip_at_the_solution_peak(tmp_path):
    # schedules are written to 6 decimals, so the exposure recomputed from
    # them sits a little above the solution's own (rounded) peak
    inst = random_instance(5, n=3, fleet_size=2)
    path = tmp_path / "inst.json"
    path.write_text(emit_realworld(inst))
    free = tmp_path / "free.json"
    assert cli.run(["solve", str(path), "--out", str(free)]) == 0
    peak = max(h for r in json.loads(free.read_text())["routes"] for h in r["H"].values())
    assert peak > 0.0
    capped = tmp_path / "capped.json"
    assert cli.run(["solve", str(path), "--eps-risk", repr(peak), "--out", str(capped)]) == 0
    doc = json.loads(capped.read_text())
    assert max(h for r in doc["routes"] for h in r["H"].values()) == peak
    assert cli.run(["validate", str(path), str(capped), "--eps-risk", repr(peak)]) == 0


def test_pareto_output_byte_stable(tmp_path):
    inst = random_instance(11, n=5, fleet_size=2)
    path = tmp_path / "inst.json"
    path.write_text(emit_realworld(inst))
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert cli.run(["pareto", str(path), "--step", "0.5", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _run_cli_in_child(*argv):
    """Run the CLI in a child process whose wait is bounded, for commands
    that may never return."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rdarp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("edarp", [False, True], ids=["rdarp", "edarp"])
def test_pareto_csv_matches_brute_force_front(tmp_path, edarp):
    import math

    from rdarp.instance import edarp_transform
    from rdarp.oracle import brute_force_solve

    inst = random_instance(4, n=2, fleet_size=2)
    path = tmp_path / "fixture2.json"
    path.write_text(emit_realworld(inst))
    out = tmp_path / "front.csv"
    if edarp:
        # a sweep that steps a cap the solve ignores never ends
        inst = edarp_transform(inst)
        proc = _run_cli_in_child("pareto", str(path), "--edarp", "--step", "0.5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    else:
        assert cli.run(["pareto", str(path), "--step", "0.5", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "epsilon_risk,cost,max_risk,n_routes"
    got = [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]

    solutions = []
    caps = [math.inf] + [h for _, h in got]
    for cap in caps:
        bf = brute_force_solve(inst, eps_risk=cap)
        if bf.status == "Optimal":
            peak = max((inst.exposure_measure(i, h) for r in bf.routes
                        for i, h in r.exposure.items()), default=0.0)
            solutions.append((round(bf.objective, 5), round(peak, 5)))
    front = sorted(
        (c, h) for c, h in set(solutions)
        if not any((oc, oh) != (c, h) and oc <= c + 1e-9 and oh <= h + 1e-9
                   for oc, oh in solutions)
    )
    assert sorted((round(c, 5), round(h, 5)) for c, h in got) == front


def test_convert_roundtrip(tmp_path):
    cordeau = tmp_path / "toy.txt"
    cordeau.write_text(TOY_CORDEAU)
    as_json = tmp_path / "toy.json"
    assert cli.run(["convert", str(cordeau), str(as_json)]) == 0
    inst = parse_realworld(as_json.read_text())
    assert inst.n == 2 and inst.risk[1] == 1.0
    back = tmp_path / "back.txt"
    assert cli.run(["convert", str(as_json), str(back)]) == 0
    from rdarp.cli import load_instance

    again = load_instance(str(back))
    assert again.n == inst.n
    assert again.travel == inst.travel


TOY_CORDEAU = (
    "1 2 480 3 30\n"
    "0 0.0 0.0 0 0 0 480\n"
    "1 3.0 4.0 2 1 10 40\n"
    "2 6.0 8.0 2 1 20 60\n"
    "3 0.0 4.0 2 -1 10 200\n"
    "4 6.0 0.0 2 -1 20 200\n"
    "5 0.0 0.0 0 0 0 480\n"
)


def test_convert_refuses_a_lossy_json_to_cordeau_conversion(tmp_path, capsys):
    # rw-2's risk scores are not its loads, and request 2 rides under 22.5,
    # not the 43.7 of request 1 that a Cordeau header would give every rider
    out = tmp_path / "rw-2.txt"
    assert cli.run(["convert", str(FIXTURES / "rw-2.json"), str(out)]) == 1
    assert not out.exists()
    assert "cannot hold this instance: risk would change" in capsys.readouterr().err
    cordeau = tmp_path / "toy.txt"
    cordeau.write_text(TOY_CORDEAU)
    as_json = tmp_path / "toy.json"
    assert cli.run(["convert", str(cordeau), str(as_json)]) == 0
    doc = json.loads(as_json.read_text())
    doc["max_ride"][1] = 25.0
    as_json.write_text(json.dumps(doc))
    assert cli.run(["convert", str(as_json), str(out)]) == 1
    assert not out.exists()
    assert "cannot hold this instance: max_ride would change" in capsys.readouterr().err


def test_shipped_fixtures_roundtrip():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        inst = parse_realworld(text)
        assert parse_realworld(emit_realworld(inst)) == inst


def test_usage_errors():
    assert cli.run(["solve"]) == 1
    assert cli.run(["solve", "/nonexistent/file.json"]) == 1
    assert cli.run([]) == 1


@pytest.mark.parametrize("flag", ["--eps-risk", "--eps-cost", "--eps-dt"])
def test_solve_rejects_a_nan_cap(flag, capsys):
    # a NaN cap compares false with everything, so it would lift the cap
    rc = cli.run(["solve", str(FIXTURES / "rw-2.json"), flag, "nan"])
    assert rc == 1
    assert "nan" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps-risk", "--eps-cost", "--eps-dt"])
def test_solve_rejects_a_negative_cap(flag, capsys):
    # under a negative cap the master LP itself is infeasible, which says
    # nothing about the instance
    rc = cli.run(["solve", str(FIXTURES / "rw-2.json"), flag, "-1"])
    assert rc == 1
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--eps-cost", "1"],                   # a cost cap binds only the risk objective
    ["--eps-dt", "0.01"],                  # a detour-rate cap binds only EDARP instances
    ["--edarp", "--eps-risk", "1"],        # an EDARP instance caps detour rates
    ["--mode", "risk", "--eps-risk", "1"],  # the risk objective takes no exposure cap
])
def test_solve_rejects_a_cap_that_does_not_apply(args, capsys):
    # the solve would not enforce these caps and would report the uncapped optimum
    rc = cli.run(["solve", str(FIXTURES / "rw-2.json"), *args])
    assert rc == 1
    assert args[-2] in capsys.readouterr().err


def test_solve_accepts_caps_that_apply(tmp_path):
    path = str(FIXTURES / "rw-2.json")
    assert cli.run(["solve", path, "--mode", "risk", "--eps-cost", "70", "--out",
                    str(tmp_path / "a.json")]) == 0
    assert cli.run(["solve", path, "--eps-risk", "inf", "--eps-dt", "inf", "--out",
                    str(tmp_path / "b.json")]) == 0
    assert cli.run(["solve", path, "--edarp", "--eps-dt", "0.01", "--out",
                    str(tmp_path / "c.json")]) == 2


@pytest.mark.parametrize("args", [
    ["--edarp", "--eps-risk", "0.001"],  # an EDARP instance caps detour rates
    ["--eps-dt", "0.001"],               # only an EDARP instance has detour rates
])
def test_validate_rejects_a_cap_that_does_not_apply(tmp_path, args, capsys):
    # the check would pass whatever the solution's exposure
    path = str(FIXTURES / "rw-2.json")
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", path, *args[:-2], "--out", str(sol)]) == 0
    capsys.readouterr()
    assert cli.run(["validate", path, str(sol), *args]) == 1
    assert args[-2] in capsys.readouterr().err


def _drop_h(doc):
    del doc["routes"][0]["H"]
    return doc


def _letter_in_sequence(doc):
    doc["routes"][0]["sequence"][1] = "x"
    return doc


def _node_out_of_range(doc):
    doc["routes"][0]["sequence"][1] = -1  # would index the end depot
    return doc


def _nan_start_time(doc):
    doc["routes"][0]["schedule"][1] = math.nan  # every check on it would pass
    return doc


@pytest.mark.parametrize("malform, message", [
    (_drop_h, "route 0 has no 'H' field"),
    (_letter_in_sequence, "sequence entry 'x' is not an integer"),
    (_node_out_of_range, "sequence entry -1 is not a node index (0 to 7)"),
    (_nan_start_time, "schedule entry nan is not a finite number"),
    (lambda doc: doc["routes"], "a solution must be a JSON object, not list"),
], ids=["route-without-H", "non-integer-node", "unknown-node", "nan-start-time",
        "top-level-list"])
def test_validate_reports_a_malformed_solution_as_a_usage_error(
        tmp_path, small_json, capsys, malform, message):
    sol = tmp_path / "sol.json"
    assert cli.run(["solve", str(small_json), "--out", str(sol)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform(json.loads(sol.read_text()))))
    capsys.readouterr()
    assert cli.run(["validate", str(small_json), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_certify_risk_on_a_detour_rate_cap(tmp_path):
    # the certifying risk solve takes the cost cap alone
    path = str(FIXTURES / "rw-2.json")
    out = tmp_path / "sol.json"
    assert cli.run(["solve", path, "--edarp", "--eps-dt", "1.5", "--certify-risk",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "Optimal" and doc["routes"]


@pytest.mark.parametrize("spent", [3.0, 10.0], ids=["time-left", "time-used-up"])
def test_certify_risk_gets_only_the_time_the_cost_solve_left(tmp_path, small_json,
                                                             monkeypatch, spent):
    # each solve takes `spent` seconds on the clock the CLI reads
    from types import SimpleNamespace

    from rdarp import bcp

    clock = [0.0]
    limits = []
    real_solve = bcp.solve

    def solve(inst, mode, options):
        limits.append((mode, options.time_limit))
        rep = real_solve(inst, mode, replace(options, time_limit=None))
        clock[0] += spent
        return rep

    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(bcp, "solve", solve)
    out = tmp_path / "sol.json"
    assert cli.run(["solve", str(small_json), "--certify-risk", "--time-limit", "8",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "Optimal"
    if spent < 8.0:
        assert limits == [("cost", 8.0), ("risk", 8.0 - spent)]
    else:  # the limit is used up: the cost solve's routes stand
        assert limits == [("cost", 8.0)]
        monkeypatch.undo()
        alone = tmp_path / "alone.json"
        assert cli.run(["solve", str(small_json), "--out", str(alone)]) == 0
        assert doc["routes"] == json.loads(alone.read_text())["routes"]


@pytest.mark.parametrize("command", ["solve", "pareto"])
@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_rejects_a_time_limit_that_is_nan_or_negative(small_json, command, limit):
    assert cli.run([command, str(small_json), "--time-limit", limit]) == 1


@pytest.mark.parametrize("step", ["0", "-0.5"])
def test_pareto_rejects_a_step_that_is_not_positive(small_json, step):
    assert cli.run(["pareto", str(small_json), "--step", step]) == 1


def test_pareto_rejects_a_nan_step(small_json):
    # a sweep with a NaN step never ends
    proc = _run_cli_in_child("pareto", str(small_json), "--step", "nan")
    assert proc.returncode == 1, proc.stderr


@pytest.mark.parametrize("command", ["solve", "pareto"])
def test_rejects_an_unknown_cut_family(small_json, command, capsys):
    assert cli.run([command, str(small_json), "--cuts", "ipec,bogus"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_cut_families_may_be_empty(small_json):
    assert cli.run(["solve", str(small_json), "--cuts", ""]) == 0


def test_version(capsys):
    rc = cli.run(["--version"])
    assert rc == 0
    assert "rdarp" in capsys.readouterr().out


def test_infeasible_exit_code(tmp_path):
    from dataclasses import replace

    from tests.test_oracle import corridor_instance

    inst = replace(corridor_instance(), fleet_size=1,
                   late=(100.0, 3.0, 3.0, 100.0, 100.0, 100.0))
    path = tmp_path / "inf.json"
    path.write_text(emit_realworld(inst))
    assert cli.run(["solve", str(path), "--eps-risk", "0.5"]) == 2


def _drop_late(doc):
    del doc["nodes"][2]["late"]
    return doc


def _n_as_word(doc):
    doc["n"] = "two"
    return doc


def _nodes_as_number(doc):
    doc["nodes"] = 5
    return doc


def _nan_early(doc):
    doc["nodes"][1]["early"] = math.nan  # json writes NaN and reads it back
    return doc


def _nan_travel_time(doc):
    doc["travel_time"][3] = math.nan
    return doc


def _infinite_max_ride(doc):
    doc["max_ride"][0] = math.inf
    return doc


@pytest.mark.parametrize("malform, message", [
    (_drop_late, "node 2 has no 'late' field"),
    (_n_as_word, "n must be a number, got 'two'"),
    (_nodes_as_number, "nodes must be a list, not int"),
    (_nan_early, "early[1] is not finite: nan"),
    (_nan_travel_time, "travel[0][3] is not finite: nan"),
    (_infinite_max_ride, "max_ride[0] is not finite: inf"),
], ids=["node-without-late", "n-not-a-number", "nodes-not-a-list", "nan-early",
        "nan-travel-time", "infinite-max-ride"])
def test_solve_reports_a_malformed_instance_as_a_usage_error(
        tmp_path, small_json, capsys, malform, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform(json.loads(small_json.read_text()))))
    assert cli.run(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_solve_rejects_a_nan_cordeau_coordinate(tmp_path, capsys):
    path = tmp_path / "toy.txt"
    path.write_text(TOY_CORDEAU.replace("2 6.0 8.0", "2 nan 8.0"))
    assert cli.run(["solve", str(path)]) == 1
    assert "coords[2][0] is not finite: nan" in capsys.readouterr().err


def test_an_infinite_window_end_still_solves(tmp_path, small_json):
    # preprocessing tightens it from the paired node's window and ride time:
    # request 1's pick-up and request 2's drop-off (n = 3)
    doc = json.loads(small_json.read_text())
    doc["nodes"][1]["late"] = doc["nodes"][5]["late"] = math.inf
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    assert cli.run(["solve", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "Optimal"
