"""Tests of the benchmark itself, kept out of the package's test collection.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once at a tiny size, the tracer counts what it should, and
every checker rejects a wrong output.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import CliResult  # noqa: E402

TINY = {
    "corr": dict(n=4, heights=(4, 6)),
    "ff-large": dict(n=16, max_particles=4, fault_momenta=2,
                     zero_spec=(3, (1, 5, 9, 12), ())),
    "oracle": dict(n=4),
    "verify": dict(n=4, cauchy_n=6),
}


def tiny_ops(api, name: str, seed: int = 0):
    return workloads.WORKLOADS[name](api, np.random.default_rng(seed), **TINY[name])


@pytest.fixture(scope="module")
def api():
    return workloads.fresh_import()


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(api, name):
    res = run.run_passes(tiny_ops(api, name), 0.0, None)
    assert res["correct"] and res["failed"] == 0
    metrics = run.end_to_end(res["times"], res["failed"], 0.01)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_operations(api, name):
    labels = [op.label for op in tiny_ops(api, name, seed=3)]
    assert labels == [op.label for op in tiny_ops(api, name, seed=3)]
    assert labels != [op.label for op in tiny_ops(api, name, seed=4)]


def _failures(ops, index, out):
    """Run one pass with op ``index`` returning ``out``; (failed, correct)."""
    ops = list(ops)
    ops[index] = replace(ops[index], run=lambda: out)
    res = run.run_passes(ops, 0.0, None)
    return res["failed"], res["correct"]


def test_verify_known_fault_matches_only_its_failure(api):
    ops = tiny_ops(api, "verify")
    res = ops[-1].run()
    residuals = json.loads(res.stdout)["results"]["residuals"]
    nan_det = {**residuals, "det_phi_theta_vs_lu": math.nan}
    other = sorted(k for k in residuals if k != "det_phi_theta_vs_lu")[0]
    assert _failures(ops, -1, _tamper(res, residuals=nan_det)) == (1, True)
    # the same NaN plus any other bad residual, or another exit code, is not it
    assert _failures(ops, -1, _tamper(res, residuals={**nan_det, other: 1e-6})) == (1, False)
    assert _failures(ops, -1, _tamper(res, residuals={**nan_det, other: math.nan})) == (1, False)
    assert _failures(ops, -1, replace(_tamper(res, residuals=nan_det), code=5)) == (1, False)
    assert _failures(ops, -1, CliResult(0, "not json", "")) == (1, False)
    # nor is the same failure on an op without the known fault
    assert _failures(ops, 0, _tamper(ops[0].run(), residuals=nan_det)) == (1, False)


def test_ff_known_faults_match_only_their_failure(api):
    ops = tiny_ops(api, "ff-large")
    res = ops[-2].run()
    f = json.loads(res.stdout)["results"]
    overflow = replace(_tamper(res, closed_re=math.nan, closed_im=math.nan), code=5)
    assert _failures(ops, -2, overflow) == (1, True)
    assert _failures(ops, -2, replace(overflow, code=3)) == (1, False)
    assert _failures(ops, -2, _tamper(overflow, pfaffian_re=math.nan)) == (1, False)
    wrong = replace(_tamper(res, closed_re=f["closed_re"] + 0.01), code=5)
    assert _failures(ops, -2, wrong) == (1, False)
    assert _failures(ops, 0, overflow) == (1, False)
    # the pfaffian route exactly 0 with a finite closed value and CLI exit 0
    zero = _tamper(res, pfaffian_re=0.0, pfaffian_im=0.0)
    assert workloads.pfaffian_zero(zero)
    assert not workloads.pfaffian_zero(replace(zero, code=5))
    assert not workloads.pfaffian_zero(_tamper(zero, closed_re=math.nan))
    assert not workloads.pfaffian_zero(_tamper(zero, closed_re=1.5, closed_im=0.0))
    assert not workloads.pfaffian_zero(res)


def test_exception_in_known_fault_op_is_incorrect(api):
    ops = tiny_ops(api, "verify")

    def crash():
        raise FloatingPointError("overflow")

    ops[-1] = replace(ops[-1], run=crash)
    res = run.run_passes(ops, 0.0, None)
    assert res["failed"] == 1 and not res["correct"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_for_one_seed(name):
    counts = []
    for _ in range(2):
        api = workloads.fresh_import()
        ops = tiny_ops(api, name, seed=5)
        tracer = run.start_tracer(api, ops)
        res = run.run_passes(ops, 0.0, tracer)
        metrics = tracer.layer_metrics(len(res["times"]))
        counts.append({k: metrics[k]["value"] for k, (_, kind, _) in LAYER_METRICS.items()
                       if kind != "self"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_traced_counts_and_checks_untraced():
    api = workloads.fresh_import()
    tracer = Tracer()
    tracer.install(api)
    ops = tiny_ops(api, "corr")
    res = run.run_passes(ops, 0.0, tracer)
    metrics = tracer.layer_metrics(len(res["times"]))
    assert set(metrics) == set(LAYER_METRICS)
    # 8 x 8 Fock states at N=4, either parity; the checks (dense oracle)
    # ran with the tracer inactive, so the oracle layer saw nothing
    assert metrics["formfactors.ff_closed_calls"]["value"] == 64
    assert metrics["oracle.build_s"]["value"] == 0
    assert metrics["formfactors.corr_s"]["value"] > 0
    spans = tracer.dump()["spans"]
    assert {s[0] for s in spans} >= {"bench.op", "formfactors.ff_closed"}


def test_traced_oracle_labels():
    api = workloads.fresh_import()
    tracer = Tracer()
    tracer.install(api)
    ops = tiny_ops(api, "oracle")
    res = run.run_passes(ops, 0.0, tracer)
    metrics = tracer.layer_metrics(len(res["times"]))
    assert metrics["oracle.labels"]["value"] == 16   # 2 sectors x 2^(N-1)
    assert metrics["cli.self_s"]["value"] > 0


def test_speedometer_takes_its_samples_off_the_call():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    speed = run.Speedometer()
    speed.time(lambda: busy(0.3))
    took = [t for _, t in speed.inside]
    assert len(took) >= 3
    assert speed.seconds == pytest.approx(0.3 - sum(took), abs=0.005)
    assert 0 < speed.slowness < math.inf
    quiet = run.Speedometer(during=False)
    quiet.time(lambda: busy(0.2))
    assert quiet.inside == [] and quiet.seconds >= 0.2


def _tamper(res: CliResult, **results) -> CliResult:
    payload = json.loads(res.stdout)
    payload["results"].update(results)
    return replace(res, stdout=json.dumps(payload))


def test_corr_check_rejects_wrong_values(api):
    op = tiny_ops(api, "corr")[0]
    value = op.run()
    assert op.check(value) is None
    assert "trace ratio" in op.check(value + 1e-6)
    assert "exceeds 1" in op.check(1.5)
    assert "not finite" in op.check(math.nan)


def test_ff_check_rejects_route_mismatch_and_large_modulus(api):
    op = tiny_ops(api, "ff-large")[1]
    res = op.run()
    assert op.check(res) is None
    f = json.loads(res.stdout)["results"]
    bumped = _tamper(res, closed_re=f["closed_re"] * (1 + 1e-8) + 1e-12)
    assert "pfaffian route" in op.check(bumped)
    assert "exceeds 1" in op.check(_tamper(res, closed_re=1.5, closed_im=0.0))
    assert "not finite" in op.check(_tamper(res, closed_re=math.nan))


def test_oracle_check_rejects_residuals(api):
    op = tiny_ops(api, "oracle")[0]
    res = op.run()
    assert op.check(res) is None
    assert "oracle_residual" in op.check(_tamper(res, oracle_residual=1e-6))
    assert "oracle_residual" in op.check(_tamper(res, oracle_residual=math.nan))
    assert "route_residual" in op.check(_tamper(res, route_residual=1e-9))


def test_verify_check_rejects_nan_residual(api):
    op = tiny_ops(api, "verify")[0]
    res = op.run()
    assert op.check(res) is None
    residuals = json.loads(res.stdout)["results"]["residuals"]
    name = sorted(residuals)[0]
    assert name in op.check(_tamper(res, residuals={**residuals, name: math.nan}))
    assert name in op.check(_tamper(res, residuals={**residuals, name: 1e-9}))


@pytest.mark.parametrize("name", ["ff-large", "oracle", "verify"])
def test_checks_reject_nonzero_exit(api, name):
    op = tiny_ops(api, name)[0]
    assert "CLI exit 5" in op.check(CliResult(5, "", "verification failure: x\n"))


def test_run_refuses_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "corr", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
