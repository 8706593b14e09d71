import json

import numpy as np
import pytest

from mpvc.cli import main, run_grid, _grid_points
from mpvc.nlp import solve_nlp
from mpvc.problems import academic, assemble_stiffness, ten_bar
from mpvc.regularize import direct_nlp
from mpvc.stationarity import Grade, grade_at


def run(args):
    return main(args)


def test_solve_academic_from_local_min(tmp_path, capsys):
    code = run([
        "solve", "--problem", "academic", "--scheme", "lshaped",
        "--x0", "0,5", "--out", str(tmp_path),
    ])
    assert code == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["f"] == pytest.approx(10.0, abs=1e-6)
    assert result["outer_iterations"] <= 2
    assert result["grade"] in ("M", "S")


def test_solve_writes_trace(tmp_path):
    code = run([
        "solve", "--problem", "academic", "--scheme", "global",
        "--x0", "10,10", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "k,t,f,maxVio,fullVio,innerIters,eps"
    assert len(lines) >= 2
    result = json.loads((tmp_path / "result.json").read_text())
    np.testing.assert_allclose(result["x"], [0.0, 5.0], atol=1e-3)


def test_solve_direct_baseline_has_grade(tmp_path):
    code = run([
        "solve", "--problem", "academic", "--scheme", "none",
        "--x0", "10,10", "--out", str(tmp_path),
    ])
    result = json.loads((tmp_path / "result.json").read_text())
    assert "grade" in result and result["scheme"] == "none"
    assert code in (0, 1)


def test_solve_direct_reports_iterations_run(tmp_path):
    x0 = np.array([13.0, -5.0])
    sol = solve_nlp(direct_nlp(academic()), x0, eps_target=1e-9)
    run([
        "solve", "--problem", "academic", "--scheme", "none",
        "--x0", "13,-5", "--out", str(tmp_path),
    ])
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["inner_iterations"] == sol.total_iterations


def test_solve_infeasible_end_exits_1(tmp_path):
    # ten-bar-gld seed 7 instance 8, LOCAL: the run ends with every product
    # G_i H_i near 0 but full violation 1.0, so it is not converged, and a
    # point that infeasible is not weakly stationary whatever its multipliers
    prob = ten_bar()
    geo = prob.meta["geometry"]
    a = np.array([0.9424181063030086, 1.5918454674164109, 0.6593860649321641,
                  0.7085891236308867, 1.693483592841475, 1.692968440745225,
                  0.6160947941932851, 1.5426983099486664, 0.5874053019547494,
                  1.8531417645037416])
    x0 = np.concatenate([a, np.linalg.solve(assemble_stiffness(geo, a), geo.load)])
    code = run([
        "solve", "--problem", "ten_bar", "--scheme", "local",
        "--x0=" + ",".join(map(repr, x0.tolist())), "--out", str(tmp_path),
    ])
    assert code == 1
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["termination"] == "InnerFailure"
    assert result["full_violation"] > 1e-6
    assert result["grade"] == "NotWeak"


def test_solve_grades_by_the_fit_where_recovered_multipliers_fall_short(tmp_path):
    # ten-bar-gld seed 701 instance 7 (perfbench's make_instances), LSHAPED:
    # one Converged solve at t = 1 ends at a feasible point with f = 8
    # where the multipliers recovered from it break a support condition by
    # 0.2 (NotWeak), while fitted multipliers certify S
    prob = ten_bar()
    geo = prob.meta["geometry"]
    rng = np.random.default_rng([701, 1])
    for _ in range(8):
        a = rng.uniform(0.5, 2.0, size=10)
    x0 = np.concatenate([a, np.linalg.solve(assemble_stiffness(geo, a), geo.load)])
    code = run([
        "solve", "--problem", "ten_bar", "--scheme", "lshaped",
        "--x0=" + ",".join(map(repr, x0.tolist())), "--out", str(tmp_path),
    ])
    assert code == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["outer_iterations"] == 1
    assert result["f"] == pytest.approx(8.0, abs=1e-6)
    assert result["grade"] == "S"


def write_config(tmp_path, driver):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"driver": driver}))
    return str(path)


def test_config_sigma_shrinks_t(tmp_path):
    out = tmp_path / "out"
    code = run([
        "solve", "--problem", "academic", "--scheme", "global", "--x0", "10,10",
        "--config", write_config(tmp_path, {"sigma": 0.5}), "--out", str(out),
    ])
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()[1:]
    ts = [float(line.split(",")[1]) for line in lines]
    assert len(ts) >= 3 and ts[0] == 1.0
    assert all(b == 0.5 * a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("driver", [{"sigmma": 0.5}, {"max_inner_iter": 0}, {"sigma": "abc"},
                                    {"t0": None}, 3])
def test_bad_driver_config_is_usage_error(tmp_path, driver):
    code = run([
        "solve", "--problem", "academic", "--scheme", "global", "--x0", "10,10",
        "--config", write_config(tmp_path, driver), "--out", str(tmp_path / "out"),
    ])
    assert code == 2


@pytest.mark.parametrize("scheme", ["lshaped", "global"])
@pytest.mark.parametrize("driver", [{"tau_act": -1}, {"tau_act": 0}, {"eps_inner": -1},
                                    {"eps_inner": 0}])
def test_nonpositive_tolerance_is_usage_error(tmp_path, scheme, driver):
    # rejected before the solve runs, whichever scheme would read it
    out = tmp_path / "out"
    code = run([
        "solve", "--problem", "academic", "--scheme", scheme, "--x0", "10,10",
        "--config", write_config(tmp_path, driver), "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("driver", [{"sigmma": 3}, {"tau_act": -1}])
def test_direct_solve_checks_driver_config(tmp_path, driver):
    out = tmp_path / "out"
    code = run([
        "solve", "--problem", "academic", "--scheme", "none", "--x0", "10,10",
        "--config", write_config(tmp_path, driver), "--out", str(out),
    ])
    assert code == 2
    assert not (out / "result.json").exists()


def test_direct_solve_reads_max_inner_iter(tmp_path):
    out = tmp_path / "out"
    run([
        "solve", "--problem", "academic", "--scheme", "none", "--x0", "10,10",
        "--config", write_config(tmp_path, {"max_inner_iter": 2}), "--out", str(out),
    ])
    result = json.loads((out / "result.json").read_text())
    assert result["inner_iterations"] <= 2


@pytest.mark.parametrize("args, config", [
    (["solve", "--x0", "10,10"], {"drivr": {"sigma": 0.5}}),
    (["solve", "--x0", "10,10"], {"aerothermo_constants": {"K_e": 1e-3}}),
    (["grid", "--grid", "0,1,2,0,1,2"], {"driver": {"sigmma": 0.5}}),
    (["grid", "--problem", "ten_bar", "--grid", "0,1,2,0,1,2"], {}),
    (["solve", "--x0", "10,10"], ["driver"]),
    (["solve", "--problem", "academic", "--nodes", "8", "--x0", "10,10"], {}),
    (["grid", "--nodes", "8", "--grid", "0,1,2,0,1,2"], {}),
    (["solve", "--problem", "aerothermo", "--nodes", "0"], {}),
    (["solve", "--problem", "aerothermo", "--nodes", "1"], {}),
    (["check", "--x0", "0,5", "--scheme", "local"], {}),
    (["solve", "--problem", "aerothermo", "--nodes", "2"], {"aerothermo_constants": {"K_E": 5.0}}),
    (["check", "--problem", "aerothermo", "--nodes", "2", "--x0", "0"],
     {"aerothermo_constants": {"K_e": "abc"}}),
    (["check", "--problem", "aerothermo", "--nodes", "2", "--x0", "0"],
     {"aerothermo_constants": [1]}),
], ids=["unknown-top-level-key", "constants-off-aerothermo", "grid-unknown-driver-key",
        "grid-ten-bar", "config-not-an-object", "nodes-off-aerothermo", "grid-nodes",
        "nodes-zero", "nodes-one", "check-scheme", "unknown-constant",
        "constant-not-a-number", "constants-not-an-object"])
def test_usage_error(tmp_path, args, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([*args, "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_grid_honours_config(tmp_path):
    config = write_config(tmp_path, {"sigma": 0.5, "max_inner_iter": 1})
    outer = {}
    for name, extra in [("plain", []), ("config", ["--config", config])]:
        out = tmp_path / name
        run(["grid", "--grid", "10,10,1,10,10,1", "--out", str(out), *extra])
        outer[name] = json.loads((out / "summary.json").read_text())["total_outer_iterations"]
    run(["solve", "--x0", "10,10", "--config", config, "--out", str(tmp_path / "solve")])
    result = json.loads((tmp_path / "solve" / "result.json").read_text())
    assert outer["config"] == result["outer_iterations"] != outer["plain"]


def test_unknown_problem_is_usage_error(tmp_path, capsys):
    code = run([
        "solve", "--problem", "nope", "--scheme", "global", "--out", str(tmp_path),
    ])
    assert code == 2


def test_check_reports(tmp_path):
    code = run([
        "check", "--problem", "academic", "--x0", "0,0", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["grade"] in ("M", "S")
    assert report["mpvc_licq"]["holds"]
    assert report["index_sets"]["I_0plus"] == [0, 1]


def test_check_rejects_unknown_driver_key(tmp_path):
    assert run(["check", "--x0", "0,5", "--config", write_config(tmp_path, {"sigmma": 3}),
                "--out", str(tmp_path / "out")]) == 2


def test_check_reads_tau_act(tmp_path):
    # at (0, 5.001) the second pair has H = 5.001 and G = -0.001: strictly
    # negative under the default tau_act, active under tau_act = 0.01
    sets = {}
    for name, extra in [("plain", []),
                        ("config", ["--config", write_config(tmp_path, {"tau_act": 0.01})])]:
        out = tmp_path / name
        assert run(["check", "--x0", "0,5.001", "--out", str(out), *extra]) == 0
        sets[name] = json.loads((out / "check.json").read_text())["index_sets"]
    assert 1 in sets["plain"]["I_plusminus"] and 1 not in sets["plain"]["I_plus0"]
    assert 1 in sets["config"]["I_plus0"] and 1 not in sets["config"]["I_plusminus"]


def test_check_weak_point(tmp_path):
    import math

    x = f"0,{5 * math.sqrt(2)}"
    run(["check", "--problem", "academic", "--x0", x, "--out", str(tmp_path)])
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["grade"] == "Weak"


def test_check_interior_point(tmp_path):
    run(["check", "--problem", "academic", "--x0", "10,10", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["grade"] == "NotWeak"


def test_check_grades_as_grade_at_where_solve_ended(tmp_path):
    # at the ten-bar NONSMOOTH end point check prints grade_at's grade at
    # tau = 1e-4 (M); a fit banded at the absolute tau_act printed NotWeak
    assert run(["solve", "--problem", "ten_bar", "--scheme", "nonsmooth",
                "--out", str(tmp_path)]) == 0
    x = json.loads((tmp_path / "result.json").read_text())["x"]
    assert run(["check", "--problem", "ten_bar", f"--x0={','.join(map(repr, x))}",
                "--out", str(tmp_path)]) == 0
    grade = grade_at(ten_bar(), np.array(x), 1e-4)
    assert grade >= Grade.WEAK
    assert json.loads((tmp_path / "check.json").read_text())["grade"] == grade.label()


def test_grid_single_cell(tmp_path):
    code = run([
        "grid", "--problem", "academic", "--scheme", "global",
        "--grid", "0,0,1,5,5,1", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["buckets"]["xstar"] == 1
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_grid_requires_spec(tmp_path):
    assert run(["grid", "--problem", "academic", "--out", str(tmp_path)]) == 2


def test_grid_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run([
            "grid", "--problem", "academic", "--scheme", "lshaped",
            "--grid=-2,8,3,-2,8,3", "--out", str(out), "--jobs", "2",
        ])
    assert (a / "grid.csv").read_bytes() == (b / "grid.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_grid_summary_matches_rows(tmp_path):
    points = _grid_points("-1,6,3,-1,6,3")
    rows, summary = run_grid("academic", "nonsmooth", points, jobs=1)
    for label, count in summary["buckets"].items():
        assert count == sum(1 for r in rows if r["bucket"] == label)
    assert summary["total_outer_iterations"] == sum(r["outer_iterations"] for r in rows)
