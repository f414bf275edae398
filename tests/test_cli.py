import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from isingff import cli, verification
from isingff.cli import _closed_block_norm, main
from isingff.exceptions import DomainError, VerificationError
from isingff.formfactors import FockState, FormFactorSpec, ff_closed
from isingff.oracle import block_labels, build_operators, find_state, labeled_spectrum
from isingff.cauchy import u_of_theta
from isingff.spectral import SECTORS, Couplings, b_of_theta
from isingff.verification import formfactor_suite, rotation_suite


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

    def test_curve_points_are_the_public_functions(self, capsys):
        code, out = run(capsys, "spectrum", "--kx", "0.3", "--ky", "0.9",
                        "--n", "5")
        assert code == 0
        points = json.loads(out)["results"]["points"]
        c = Couplings.from_kx_ky(0.3, 0.9, 5)
        for sector in SECTORS:
            rows = [p for p in points if p["sector"] == sector]
            thetas = c.sector(sector).thetas
            b, u = b_of_theta(thetas, c), u_of_theta(thetas, c)
            assert [p["b_re"] for p in rows] == b.real.tolist()
            assert [p["b_im"] for p in rows] == b.imag.tolist()
            assert [p["u"] for p in rows] == u.tolist()

    def test_csv_rows(self, capsys):
        code, out = run(capsys, "spectrum", "--kx", "0.4", "--ky", "0.7",
                        "--n", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("sector,index,theta")
        assert len(lines) == 5


class TestFF:
    @pytest.mark.parametrize("bras, kets", [
        ([(0, 1), (2, 3), (1, 6)], [(), (4, 5)]),
        ([(0, 1), (2, 3, 4, 5)], [(), (1, 2)]),  # labels of several lengths
    ])
    def test_block_norm_is_the_per_spec_sum(self, bras, kets):
        c = Couplings.from_kx_ky(0.4, 0.7, 8)
        per_spec = math.sqrt(sum(
            abs(ff_closed(FormFactorSpec(3, FockState("a", b), FockState("p", k)), c)) ** 2
            for b in bras for k in kets))
        labels = ([("a", b) for b in bras], [("p", k) for k in kets])
        assert _closed_block_norm(c, 3, *labels, {}) == per_spec
        # a known pair reads its value, with the bits of the stacked one
        known = {(bras[0], kets[0]): ff_closed(
            FormFactorSpec(3, FockState("a", bras[0]), FockState("p", kets[0])), c)}
        assert _closed_block_norm(c, 3, *labels, known) == per_spec

    def test_block_with_labels_of_two_particle_numbers(self, capsys):
        # at this ky the antiperiodic states (3, 4) and (0, 1, 6, 7) have the
        # same energy and momentum, so one oracle block carries both labels
        ky = 0.7674697492343668
        c = Couplings.from_kx_ky(0.4, ky, 8)
        spect = labeled_spectrum(build_operators(c))
        labels = block_labels(spect, find_state(spect, "a", (3, 4)).block)
        assert sorted(len(indices) for _, indices in labels) == [2, 4]
        code, out = run(capsys, "ff", "--kx", "0.4", "--ky", str(ky), "--n", "8",
                        "--site", "2", "--bra", "3,4", "--ket", "")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["oracle_is_blockwise"] is True
        assert res["oracle_agrees"] is True

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

    # small form factors in wide spectra (ROADMAP item 12): the gate is
    # relative to the block norm, so the oracle's vectors must be accurate at
    # the bottom of the spectrum; formed by a full eigh these specs read
    # oracle_residual 2.03e-8, 1.18e-8, 1.00e-8, 1.53e-8 and 2.03e-8, by
    # inverse iteration and, below |F| = 1e-6, a refinement against V's
    # factors 6.8e-11, 1.0e-12, 3.6e-10, 6.6e-11 and 2.8e-9
    def test_tiny_form_factor_in_a_wide_spectrum(self, capsys):
        code, out = run(capsys, "ff", "--kx", "0.2", "--ky", "1.2", "--n", "10",
                        "--site", "6", "--bra", "0,9", "--ket", "2,5,6,7")
        assert json.loads(out)["results"]["routes_agree"] is True
        assert code == 0

    # the last four a full eigh passed (5.5e-10, 2.9e-9, 6.5e-9 and 4.4e-9)
    # and inverse iteration with a Householder QR and no refinement did not
    # (6.3e-8, 1.4e-8, 2.1e-7 and 1.4e-8); now 2.1e-10, 7.6e-11, 3.8e-9 and
    # 2.5e-9
    @pytest.mark.parametrize("kx, ky, n, site, bra, ket", [
        ("0.15", "1.5", "9", "5", "2,3,4,7", "2,6"),               # |F| = 1.44e-4
        ("0.2", "1.2", "9", "3", "", "2,4,5,7"),                   # |F| = 2.70e-9
        ("0.15", "1.5", "7", "4", "0,2,3,4,5,6", "0,3"),           # |F| = 2.64e-9
        ("0.3", "0.9", "8", "3", "", "0,2,3,5,6,7"),               # |F| = 5.27e-11
        ("0.4", "0.7", "10", "6", "", "0,3,4,5,8,9"),              # |F| = 3.41e-10
        ("0.3", "0.9", "9", "5", "0,2,3,4,6,7,8", "4"),            # |F| = 7.33e-10
        ("0.15", "1.5", "8", "0", "0,1,2,3,5", "0"),               # |F| = 9.47e-12
        ("0.4407", "0.4407", "9", "3", "0,4", "0,2,3,4,5,6,7,8"),  # |F| = 2.46e-10
    ])
    def test_small_form_factor_in_a_wide_spectrum(self, capsys, kx, ky, n, site, bra, ket):
        code, out = run(capsys, "ff", "--kx", kx, "--ky", ky, "--n", n,
                        "--site", site, "--bra", bra, "--ket", ket)
        res = json.loads(out)["results"]
        assert res["routes_agree"] is True and res["oracle_agrees"] is True
        assert code == 0

    def test_large_form_factor_in_a_wide_spectrum_to_rounding(self, capsys):
        _, out = run(capsys, "ff", "--kx", "0.15", "--ky", "1.5", "--n", "9",
                     "--site", "5", "--bra", "2,3,4,7", "--ket", "2,6")
        assert json.loads(out)["results"]["oracle_residual"] <= 1e-11

    # inverse iteration starts from a block of its own seeded generator, and
    # the refinement of a form factor below 1e-6 draws nothing
    @pytest.mark.parametrize("kx, ky, site, bra, ket", [
        ("0.4", "0.7", "3", "1,3", "0,5"),                 # |F| = 0.0376
        ("0.2", "1.2", "6", "0,9", "2,5,6,7"),             # |F| = 2.55e-8, refined
    ])
    def test_oracle_output_ignores_the_global_random_state(self, capsys, kx, ky, site, bra, ket):
        argv = ("ff", "--kx", kx, "--ky", ky, "--n", "10", "--site", site,
                "--bra", bra, "--ket", ket)
        outs = []
        for seed in (1, 2):
            np.random.seed(seed)
            outs.append(run(capsys, *argv))
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_closed_value_of_the_spec_is_not_evaluated_again(self, capsys, monkeypatch):
        calls = []

        def counting(spec, c):
            calls.append(spec)
            return ff_closed(spec, c)

        monkeypatch.setattr(cli, "ff_closed", counting)
        code, _ = run(capsys, "ff", "--kx", "0.4", "--ky", "0.7", "--n", "8",
                      "--site", "3", "--bra", "1", "--ket", "0,2,3")
        assert code == 0 and len(calls) == 1

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

    # stdout of `ff` at (0.4, 0.7), N=256, byte for byte: the spec whose
    # pfaffian route falls below the pivot floor (exit 0 with a pfaffian of
    # exactly 0), bra = ket = 0..23 (a 48 x 48 R) and a paired m+n=16 spec
    @pytest.mark.parametrize("site, bra, ket, results", [
        ("184", "13,56,72,75,143,153,168,193,208,221,222,233", "",
         '"closed_abs": 1.2186133025258493e-49, "closed_im": -1.1856375683165596e-49, '
         '"closed_re": 2.815704844072839e-50, "pfaffian_im": 0.0, "pfaffian_re": 0.0, '
         '"route_residual": 1.2186133025258493e-19, "routes_agree": true'),
        ("0", ",".join(map(str, range(24))), ",".join(map(str, range(24))),
         '"closed_abs": 0.2813312944532548, "closed_im": 0.04127987431426715, '
         '"closed_re": 0.2782863079911447, "pfaffian_im": 0.041279874314264664, '
         '"pfaffian_re": 0.27828630799112786, "route_residual": 6.043525715998707e-14, '
         '"routes_agree": true'),
        ("107", "18,48,62,132,188,214,232,250", "18,49,62,132,189,215,232,250",
         '"closed_abs": 0.02553813197689508, "closed_im": 0.012859429699019811, '
         '"closed_re": 0.022064252824088068, "pfaffian_im": 0.0128594296990199, '
         '"pfaffian_re": 0.02206425282408806, "route_residual": 3.4749054335119294e-15, '
         '"routes_agree": true'),
    ], ids=["pfaffian-zero", "24-24", "paired-16"])
    def test_stdout_at_n256_is_pinned(self, capsys, site, bra, ket, results):
        code, out = run(capsys, "ff", "--kx", "0.4", "--ky", "0.7", "--n", "256",
                        "--site", site, "--bra", bra, "--ket", ket)
        as_list = (lambda s: f"[{', '.join(s.split(','))}]" if s else "[]")
        assert code == 0
        assert out == (f'{{"command": "ff", "inputs": {{"bra": {as_list(bra)}, '
                       f'"ket": {as_list(ket)}, "kx": 0.4, "ky": 0.7, "n": 256, '
                       f'"site": {site}, "tolerance": 1e-10}}, "results": {{{results}}}}}\n')


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


    @pytest.mark.parametrize("dy", ["0", "1"])
    def test_torus_of_no_height_exits_domain(self, capsys, dy):
        code, out = run(capsys, "corr", "--kx", "0.4", "--ky", "0.7", "--n", "8",
                        "--m-height", "0", "--dx", "0", "--dy", dy)
        assert code == 3 and out == ""


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

    # at (3, 3) k = 2.5e-5 and the sn pfaffian falls below the pivot floor of
    # linalg.pfaffian, which returns exactly 0: the check fails as not finite
    def test_vanishing_sn_pfaffian_fails_its_check(self, capsys):
        code, out = run(capsys, "verify", "cauchy", "--kx", "3", "--ky", "3", "--n", "4")
        res = _strict_json(out)["results"]
        assert code == 5
        assert res["residuals"]["sn_pfaffian_identity"] == "inf"
        assert "sn_pfaffian_identity" in res["failed_checks"]

    def test_nan_determinant_of_a_later_size_fails(self, capsys, monkeypatch):
        """A NaN after finite residuals is kept: max(0.0, nan) would read 0.0."""
        from isingff import cauchy
        stacks = []

        def nan_after_the_first_stack(cfg):
            log_det = frobenius_log_det(cfg)
            if cfg.xs.ndim == 1:        # the Ising config's log det Phi
                return log_det
            stacks.append(cfg.xs.shape)
            return log_det if len(stacks) == 1 else np.full_like(log_det, np.nan)

        frobenius_log_det = cauchy.frobenius_log_det
        monkeypatch.setattr(cauchy, "frobenius_log_det", nan_after_the_first_stack)
        code, out = run(capsys, "verify", "cauchy", "--kx", "0.3", "--ky", "0.9",
                        "--n", "4")
        res = _strict_json(out)["results"]
        assert len(stacks) > 2
        assert code == 5
        assert res["residuals"]["frobenius_det_vs_lu"] == "nan"
        assert res["failed_checks"] == ["frobenius_det_vs_lu"]


def test_verify_site_zero_is_honoured(capsys):
    """An explicit --site 0 runs the form-factor suite at site 0; without
    --site it runs at N/2, and the rotation suite at 0."""
    c = Couplings.from_kx_ky(0.4, 0.7, 6)
    argv = ("verify", "formfactor", "--kx", "0.4", "--ky", "0.7", "--n", "6")
    at_zero, at_middle = formfactor_suite(c, 0), formfactor_suite(c, 3)
    assert at_zero != at_middle
    for extra, expected in [(("--site", "0"), at_zero), ((), at_middle)]:
        code, out = run(capsys, *argv, *extra)
        assert code == 0
        assert json.loads(out)["results"]["residuals"] == expected
    code, out = run(capsys, "verify", "all", *argv[2:])
    residuals = json.loads(out)["results"]["residuals"]
    for suite, expected in [("rotation", rotation_suite(c, 0)), ("formfactor", at_middle)]:
        assert {k: residuals[f"{suite}.{k}"] for k in expected} == expected


@pytest.mark.parametrize("suite", ["elliptic", "cauchy", "rotation", "formfactor", "all"])
@pytest.mark.parametrize("site", ["-1", "4", "99"])
def test_verify_site_outside_the_chain_is_domain_error(capsys, suite, site):
    """Every suite refuses a site outside [0, N), those that read none too."""
    code = main(["verify", suite, "--kx", "0.4", "--ky", "0.7", "--n", "4", f"--site={site}"])
    captured = capsys.readouterr()
    assert code == 3 and not captured.out
    assert captured.err == f"domain error: site {site} outside [0, 4)\n"


def test_unknown_suite_is_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'bogus'"):
        verification.run_suite("bogus", Couplings.from_kx_ky(0.4, 0.7, 4))


def test_verification_error_exits_5(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise VerificationError("correlation sum has non-negligible imaginary part 1.000e-03")

    monkeypatch.setattr(cli, "two_point_correlation", fail)
    code = main(["corr", "--kx", "0.4", "--ky", "0.7", "--n", "4", "--m-height", "4",
                 "--dx", "1", "--dy", "1"])
    captured = capsys.readouterr()
    assert code == 5 and not captured.out
    assert captured.err == ("verification failure: correlation sum has non-negligible "
                            "imaginary part 1.000e-03\n")


def test_unknown_command_is_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_tolerance_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ISINGFF_TOL", "1e-18")
    code, _ = run(capsys, "verify", "elliptic", "--kx", "0.3", "--ky", "0.9",
                  "--n", "4")
    assert code == 5


def test_tolerance_env_var_set_after_first_call(capsys, monkeypatch):
    # the parser is built once per process; the variable is read on each call
    argv = ("verify", "elliptic", "--kx", "0.3", "--ky", "0.9", "--n", "4")
    monkeypatch.delenv("ISINGFF_TOL", raising=False)
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["inputs"]["tolerance"] == 1e-10
    monkeypatch.setenv("ISINGFF_TOL", "1e-18")
    code, out = run(capsys, *argv)
    assert code == 5 and json.loads(out)["inputs"]["tolerance"] == 1e-18
    code, out = run(capsys, *argv, "--tol", "1e-6")
    assert code == 0 and json.loads(out)["inputs"]["tolerance"] == 1e-6


def test_unparseable_tolerance_env_var_is_parse_error(capsys, monkeypatch):
    monkeypatch.setenv("ISINGFF_TOL", "abc")
    assert main(["params", "--kx", "0.4", "--ky", "0.7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "ISINGFF_TOL" in err


@pytest.mark.parametrize("text", ["nan", "-1e-10", "-inf"])
def test_nan_or_negative_tolerance_is_parse_error(capsys, monkeypatch, text):
    # either would fail every check; the flag and the variable share one rule
    argv = ["verify", "rotation", "--kx", "0.4", "--ky", "0.7", "--n", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={text}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    monkeypatch.setenv("ISINGFF_TOL", text)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "ISINGFF_TOL" in err


_VERIFY = ("verify", "rotation", "--kx", "0.4", "--ky", "0.7", "--n", "4")
_FF = ("ff", "--kx", "0.4", "--ky", "0.7", "--n", "4", "--bra", "0,1", "--ket", "2,3")
_CORR = ("corr", "--kx", "0.4", "--ky", "0.7", "--n", "4", "--m-height", "4",
         "--dx", "1", "--dy", "2", "--eps-x", "-1")


@pytest.mark.parametrize("argv, text, code", [
    pytest.param(_VERIFY, "0", 5, id="0-5"),
    pytest.param(_VERIFY, "inf", 0, id="inf-0"),
    pytest.param(_FF, "0", 5, id="ff-0-5"),
    pytest.param(_FF, "inf", 0, id="ff-inf-0"),
    # the oracle checks at no less than its floor, so this corr passes at 0
    pytest.param(_CORR, "0", 0, id="corr-0-0"),
    pytest.param(_CORR, "inf", 0, id="corr-inf-0"),
])
def test_zero_and_infinite_tolerance_are_accepted(capsys, monkeypatch, argv, text, code):
    # 0 fails every nonzero residual, inf passes every finite one
    monkeypatch.delenv("ISINGFF_TOL", raising=False)
    runs = [run(capsys, *argv, "--tol", text)]
    monkeypatch.setenv("ISINGFF_TOL", text)
    runs.append(run(capsys, *argv))
    for got, out in runs:
        assert got == code and float(json.loads(out)["inputs"]["tolerance"]) == float(text)


def test_commands_import_no_scipy():
    # a fresh process: other tests load scipy into this one
    script = """
import sys
from isingff import cli
for argv in (["params", "--kx", "0.4", "--ky", "0.7"],
             ["spectrum", "--kx", "0.4", "--ky", "0.7", "--n", "8"],
             ["ff", "--kx", "0.4", "--ky", "0.7", "--n", "8", "--bra", "1,2", "--ket", "0,5"],
             ["corr", "--kx", "0.4", "--ky", "0.7", "--n", "8", "--m-height", "4",
              "--dx", "1", "--dy", "2"],
             ["verify", "all", "--kx", "0.4", "--ky", "0.7", "--n", "4"]):
    assert cli.main(argv) == 0, argv
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy was imported"
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the size check")
    for other in ("elliptic_suite", "cauchy_suite", "rotation_suite"):
        monkeypatch.setattr(verification, other, never)
    code = main(["verify", suite, "--kx", "0.3", "--ky", "0.9", "--n", "80"])
    captured = capsys.readouterr()
    assert code == 4
    assert "specs" in captured.err


@pytest.mark.parametrize("argv", [
    ["params"],
    ["spectrum"],
    ["ff"],
    ["corr", "--m-height", "4", "--dx", "1", "--dy", "0"],
    ["verify", "elliptic"],
], ids=lambda argv: argv[0])
def test_zero_width_is_a_domain_error(capsys, argv):
    """--n 0 is refused (exit 3), not silently run at N=1."""
    code = main(argv + ["--kx", "0.4", "--ky", "0.7", "--n", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "lattice width" in captured.err


class TestNearCriticality:
    """At (0.4407, 0.4407) gamma_0 = 2(ky - kx*) is about 5e-5, so every
    route reads a small gamma that must keep its digits."""

    COUPLING = ("--kx", "0.4407", "--ky", "0.4407")

    @pytest.mark.parametrize("suite, n", [("all", "8"), ("cauchy", "32")])
    def test_verify_passes(self, capsys, suite, n):
        code, out = run(capsys, "verify", suite, *self.COUPLING, "--n", n)
        res = _strict_json(out)["results"]
        assert code == 0 and res["failed_checks"] == []
        for name, value in res["residuals"].items():
            assert isinstance(value, float) and value <= 1e-10, name

    def test_corr_agrees_with_oracle(self, capsys):
        code, out = run(capsys, "corr", *self.COUPLING, "--n", "8", "--m-height", "16",
                        "--dx", "3", "--dy", "2", "--eps-x", "-1")
        assert code == 0
        assert json.loads(out)["results"]["oracle_residual"] <= 1e-11

    def test_ff_agrees_with_oracle(self, capsys):
        code, out = run(capsys, "ff", *self.COUPLING, "--n", "8", "--site", "2",
                        "--bra", "1,2", "--ket", "")
        assert code == 0
        assert json.loads(out)["results"]["oracle_residual"] <= 1e-11


class TestStrongCoupling:
    """At (6, 6) k = 1/s is about 1.5e-10, below the 1.3e-9 where
    k' = sqrt((1 - k)(1 + k)) rounds to 1: the evaluation path, which reads no
    modulus, serves the coupling, and the elliptic routes refuse it by name."""

    COUPLING = ("--kx", "6", "--ky", "6", "--n", "8")

    def test_corr_agrees_with_the_dense_trace(self, capsys):
        code, out = run(capsys, "corr", *self.COUPLING, "--m-height", "8",
                        "--dx", "2", "--dy", "1")
        assert code == 0
        assert json.loads(out)["results"]["oracle_agrees"] is True

    @pytest.mark.parametrize("argv", [["params"], ["verify", "all"]],
                             ids=lambda argv: argv[0])
    def test_elliptic_routes_name_their_limit(self, capsys, argv):
        code = main(argv + list(self.COUPLING))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "modulus k=1.510e-10" in captured.err
        assert "k' = sqrt(1 - k^2) rounds to 1" in captured.err
        assert "elliptic routes (params, spectrum, verify)" in captured.err
