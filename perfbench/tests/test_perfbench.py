"""Self-checks of the benchmark harness (not part of the library's suite).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import builtins
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import spans  # noqa: E402


def traced_pass(workload, seed, count):
    mods, instances, _ = bench.set_up(workload, seed)
    tracer = spans.Tracer()
    untraced, run = bench.run_pass(mods, workload, seed, instances, count=count, tracer=tracer)
    layer = spans.layer_metrics(tracer.spans, tracer.absent, run.measured_s, untraced.measured_s)
    return run, layer, tracer


def counts(run, layer):
    e = bench.end_to_end(run)
    return {
        "failed_frac": e["failed_frac"],
        "target_frac": e["target_frac"],
        "nlp.sqp_iters": layer["nlp.sqp_iters"],
        "qp.iters": layer["qp.iters"],
        "qp.cap_hits": layer["qp.cap_hits"],
    }


@pytest.mark.parametrize("workload,count", [("academic", 20), ("ten-bar-gld", 2)])
def test_same_seed_gives_same_counts(workload, count):
    first = counts(*traced_pass(workload, 3, count)[:2])
    second = counts(*traced_pass(workload, 3, count)[:2])
    assert first == second
    assert first["nlp.sqp_iters"] > 0 and first["qp.iters"] > 0


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_other_seed_gives_other_starts(workload):
    mods = bench.load_modules()
    family = bench.WORKLOADS[workload].family
    a = bench.make_instances(mods, family, 1, 3)
    again = bench.make_instances(mods, family, 1, 3)
    b = bench.make_instances(mods, family, 2, 3)
    assert all(np.array_equal(x.x0, y.x0) for x, y in zip(a, again))
    assert not any(np.array_equal(x.x0, y.x0) for x, y in zip(a, b))


def test_hidden_entry_point_is_reported_absent(monkeypatch):
    nlp = importlib.import_module("mpvc.nlp")
    elastic = nlp.solve_qp_elastic
    # As after a QP rewrite without an elastic wrapper: the tracer finds no
    # nlp.solve_qp_elastic.  The solver still resolves its global name
    # through builtins, so the run itself is unchanged.
    monkeypatch.delattr(nlp, "solve_qp_elastic")
    monkeypatch.setattr(builtins, "solve_qp_elastic", elastic, raising=False)
    run, layer, tracer = traced_pass("academic", 1, 20)
    assert tracer.absent == ["nlp.solve_qp_elastic"]
    assert "qp.elastic_calls" not in layer and "qp.elastic_s" not in layer
    assert len(run.solves) == 20 * len(bench.WORKLOADS["academic"].modes)
    assert layer["qp.calls"] > 0 and layer["qp.phase1_calls"] > 0
    assert layer["qp.fit_calls"] > 0 and layer["stationarity.calls"] > 0


def test_untraced_run_wraps_nothing():
    mods = bench.load_modules()
    before = {(m, a): getattr(mods[m], a) for m, a in spans.MODULE_ENTRY_POINTS}
    tracer = spans.Tracer()
    tracer.install(mods)
    assert all(hasattr(getattr(mods[m], a), "__wrapped__") for m, a in before)
    tracer.uninstall()
    assert all(getattr(mods[m], a) is fn for (m, a), fn in before.items())


def test_rejected_certificate_fails_the_run(monkeypatch, tmp_path, capsys):
    nlp = importlib.import_module("mpvc.nlp")
    monkeypatch.setattr(nlp, "check_eps_stationary",
                        lambda *args: (False, {"stationarity": 1.0}))
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    status = bench.main(["--workload", "academic", "--seed", "1", "--seconds", "0.01"])
    err = capsys.readouterr().err
    assert status == 1
    assert "academic seed=1 instance=0 (start 0) mode=global" in err


def test_self_time_and_phase1_classification():
    # name, start, end, parent, solve, result
    recs = [
        ["driver.solve_mpvc", 0.0, 10.0, -1, 0, ("FeasibilityReached", 2)],
        ["driver.solve_nlp", 1.0, 9.0, 0, 0, ("Converged", 5)],
        ["nlp.solve_qp", 2.0, 6.0, 1, 0, ("optimal", 7)],
        ["qp.solve_qp", 2.5, 4.5, 2, 0, ("optimal", 3)],          # phase 1
        ["nlp.solve_qp_elastic", 6.0, 8.0, 1, 0, ("optimal", 4)],
        ["qp.solve_qp", 6.5, 7.5, 4, 0, ("max_iter", 4)],        # elastic inner
        ["problems.f", 8.0, 8.5, 1, 0, None],
    ]
    m = spans.layer_metrics(recs, [], 11.0, 10.0)
    assert m["qp.calls"] == 2 and m["qp.busy_s"] == pytest.approx(6.0)
    assert m["qp.phase1_calls"] == 1 and m["qp.phase1_s"] == pytest.approx(2.0)
    assert m["qp.phase1_iters"] == 3 and m["qp.iters"] == 11
    assert m["qp.elastic_calls"] == 1 and m["qp.cap_hits"] == 1
    assert m["nlp.self_s"] == pytest.approx(8.0 - 4.0 - 2.0 - 0.5)
    assert m["driver.self_s"] == pytest.approx(2.0)
    assert m["nlp.evals_per_iter"] == pytest.approx(1 / 5)
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
