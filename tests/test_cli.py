import json

import pytest

from isingff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParams:
    def test_reports_derived_scalars(self, capsys):
        code, out = run(capsys, "params", "--kx", "0.5", "--ky", "0.5")
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert res["ferromagnetic"] is True
        assert res["kx_star"] < res["ky"]
        for key in ("k", "kprime", "K", "Kprime", "eta", "xi", "nome_q"):
            assert key in res

    def test_non_ferromagnetic_exits_domain(self, capsys):
        code, _ = run(capsys, "params", "--kx", "0.1", "--ky", "0.2")
        assert code == 3


class TestSpectrum:
    def test_both_sectors_listed(self, capsys):
        code, out = run(capsys, "spectrum", "--kx", "0.4", "--ky", "0.7",
                        "--n", "3")
        assert code == 0
        points = json.loads(out)["results"]["points"]
        assert len(points) == 6
        assert {p["sector"] for p in points} == {"a", "p"}

    def test_csv_rows(self, capsys):
        code, out = run(capsys, "spectrum", "--kx", "0.4", "--ky", "0.7",
                        "--n", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("sector,index,theta")
        assert len(lines) == 5


class TestFF:
    def test_routes_and_oracle_agree(self, capsys):
        code, out = run(capsys, "ff", "--kx", "0.4", "--ky", "0.7", "--n", "4",
                        "--site", "0", "--bra", "0,1", "--ket", "")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["routes_agree"] and res["oracle_agrees"]
        for key in ("closed_re", "closed_im", "closed_abs", "pfaffian_re",
                    "pfaffian_im", "oracle_abs"):
            assert isinstance(res[key], float)
        # the N=4 two-particle antiperiodic pair sits in a reversal doublet
        assert res["oracle_is_blockwise"] is True

    def test_one_particle_each_side(self, capsys):
        code, out = run(capsys, "ff", "--kx", "0.3", "--ky", "0.9", "--n", "5",
                        "--site", "2", "--bra", "1", "--ket", "3")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["routes_agree"] and res["oracle_agrees"]
        assert res["oracle_is_blockwise"] is False

    def test_oracle_labels_bottom_of_strong_coupling_spectrum(self, capsys):
        # the spectrum spans about ten decades here, so the bottom labels only
        # when eigenvalues are grouped relative to themselves, not to the top
        code, out = run(capsys, "ff", "--kx", "0.3", "--ky", "0.9", "--n", "10",
                        "--site", "2", "--bra", "0,1", "--ket", "")
        assert code == 0
        assert json.loads(out)["results"]["oracle_agrees"] is True

    def test_invalid_momentum_list(self, capsys):
        code, _ = run(capsys, "ff", "--kx", "0.4", "--ky", "0.7", "--n", "4",
                      "--bra", "0,zebra", "--ket", "")
        assert code == 3

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, "ff", "--kx", "0.4", "--ky", "0.7", "--n", "4",
                      "--site", "1", "--bra", "0,3", "--ket", "0,1")
        _, out2 = run(capsys, "ff", "--kx", "0.4", "--ky", "0.7", "--n", "4",
                      "--site", "1", "--bra", "0,3", "--ket", "0,1")
        assert out1 == out2


class TestCorr:
    def test_agrees_with_oracle(self, capsys):
        code, out = run(capsys, "corr", "--kx", "0.4", "--ky", "0.7", "--n", "4",
                        "--m-height", "4", "--dx", "1", "--dy", "2")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["oracle_agrees"]

    def test_antiperiodic_x(self, capsys):
        code, out = run(capsys, "corr", "--kx", "0.4", "--ky", "0.7", "--n", "4",
                        "--m-height", "6", "--dx", "2", "--dy", "1",
                        "--eps-x", "-1")
        assert code == 0
        assert json.loads(out)["results"]["oracle_agrees"]


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "all", "--kx", "0.3", "--ky", "0.9",
                        "--n", "4")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["passed"] and res["max_residual"] < 1e-10

    def test_impossible_tolerance_fails(self, capsys):
        code, _ = run(capsys, "verify", "elliptic", "--kx", "0.3", "--ky", "0.9",
                      "--n", "4", "--tol", "1e-18")
        assert code == 5

    def test_csv_lists_checks(self, capsys):
        code, out = run(capsys, "verify", "rotation", "--kx", "0.5", "--ky", "0.5",
                        "--n", "3", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,residual,passed"
        assert len(lines) > 5


def test_unknown_command_is_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_tolerance_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ISINGFF_TOL", "1e-18")
    code, _ = run(capsys, "verify", "elliptic", "--kx", "0.3", "--ky", "0.9",
                  "--n", "4")
    assert code == 5


def _strict_json(out: str) -> dict:
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(out, parse_constant=reject)


def test_verify_cauchy_at_n32_is_finite(capsys):
    code, out = run(capsys, "verify", "cauchy", "--kx", "0.3", "--ky", "0.9",
                    "--n", "32")
    assert code == 0
    res = _strict_json(out)["results"]
    assert res["passed"] and res["failed_checks"] == []
    for name, value in res["residuals"].items():
        assert isinstance(value, float) and value <= 1e-10, name


def test_nan_residual_fails_verify(capsys, monkeypatch):
    from isingff import verification
    monkeypatch.setattr(verification, "cauchy_suite",
                        lambda c: {"fine": 1e-13, "broken": float("nan")})
    code, out = run(capsys, "verify", "cauchy", "--kx", "0.3", "--ky", "0.9",
                    "--n", "4")
    assert code == 5
    res = _strict_json(out)["results"]
    assert res["passed"] is False
    assert res["failed_checks"] == ["broken"]
    assert res["residuals"] == {"fine": 1e-13, "broken": "nan"}
    assert res["max_residual"] == "nan"


def test_verify_all_at_n12(capsys):
    code, out = run(capsys, "verify", "all", "--kx", "0.4", "--ky", "0.7",
                    "--n", "12", "--site", "3")
    assert code == 0
    residuals = _strict_json(out)["results"]["residuals"]
    per_suite = {}
    for name in residuals:
        suite, check = name.split(".", 1)
        per_suite.setdefault(suite, set()).add(check)
    assert {k: len(v) for k, v in per_suite.items()} \
        == {"elliptic": 23, "cauchy": 22, "rotation": 16, "formfactor": 5}
    assert per_suite["formfactor"] == {
        "bra_reversal_antisymmetry", "closed_vs_pfaffian", "completeness_sum_rule",
        "pairing_matrix_assembly", "translation_phase"}
    assert {"det_phi_theta_vs_lu", "det_phi_squared_trig_vs_lu"} <= per_suite["cauchy"]
    for name, value in residuals.items():
        assert isinstance(value, float) and value <= 1e-10, name


@pytest.mark.parametrize("n", [80, 128])
def test_verify_cauchy_at_large_n_exits_cleanly(capsys, n):
    # log|det Phi| is far past the double range here; every determinant check
    # compares logarithms, so no determinant itself is ever formed
    code = main(["verify", "cauchy", "--kx", "0.3", "--ky", "0.9", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    for name, value in _strict_json(captured.out)["results"]["residuals"].items():
        assert isinstance(value, float) and value <= 1e-10, name


@pytest.mark.parametrize("n", [128, 144])
def test_verify_rotation_at_large_n(capsys, n):
    # (sinh 2ky / N)^N |det Phi| is out of the double range here; the
    # determinant route is compared as a difference of logs
    code, out = run(capsys, "verify", "rotation", "--kx", "0.3", "--ky", "0.9",
                    "--n", str(n), "--site", "3")
    assert code == 0
    for name, value in _strict_json(out)["results"]["residuals"].items():
        assert isinstance(value, float) and value <= 1e-10, name


@pytest.mark.parametrize("suite", ["all", "formfactor"])
def test_verify_refuses_oversized_formfactor_suite(capsys, monkeypatch, suite):
    from isingff import verification

    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the size check")
    for other in ("elliptic_suite", "cauchy_suite", "rotation_suite"):
        monkeypatch.setattr(verification, other, never)
    code = main(["verify", suite, "--kx", "0.3", "--ky", "0.9", "--n", "80"])
    captured = capsys.readouterr()
    assert code == 4
    assert "specs" in captured.err
