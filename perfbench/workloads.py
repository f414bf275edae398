"""The four workloads: seeded inputs, the timed call, and the check of each output.

Every workload is a fixed list of operations built once from the seed; a run
repeats the list in whole passes.  An operation's ``run`` is the timed call
into isingff; its ``check`` looks at the output afterwards, untimed, against a
computation made apart from the timed call or against a property the result
must have, and returns ``None`` when the output is correct or the reason it
is not.  An operation that fails on every run through a known program fault
carries ``known_fault``, a predicate on its output that holds only for that
fault's failure: such a failure counts as failed without making the run
incorrect, and any other failure of the operation makes the run incorrect.

The CLI workloads call ``isingff.cli.main(argv)`` in this process with stdout
and stderr captured; ``corr`` calls the library directly.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

COUPLINGS = ((0.3, 0.9), (0.4, 0.7), (0.5, 0.5))
CORR_TOL = 1e-8
ROUTE_TOL = 1e-10
ORACLE_TOL = 1e-8
VERIFY_TOL = 1e-10
# |C| and |F| are at most 1; a value that is exactly 1 may round above it
UNIT_SLACK = 1e-12
# isingff.cli's exit code for a failed verification
EXIT_VERIFY = 5


def fresh_import():
    """Import isingff anew, dropping any earlier import, and return the package.

    Importing ``isingff.cli`` loads every layer module, so each is then an
    attribute of the package (``api.oracle``, ``api.cli``, ...).
    """
    for name in [m for m in sys.modules if m == "isingff" or m.startswith("isingff.")]:
        del sys.modules[name]
    importlib.import_module("isingff.cli")
    return sys.modules["isingff"]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_fault: Callable[[Any], bool] | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(api, argv: list[str]) -> CliResult:
    """``isingff.cli.main(argv)`` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_results(res: CliResult) -> tuple[dict | None, str | None]:
    if res.code != 0:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        return None, f"CLI exit {res.code}: {last[0]}"
    return _results(res), None


def _results(res: CliResult) -> dict:
    """The ``results`` object of the CLI's JSON output ({} if there is none)."""
    try:
        return json.loads(res.stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return {}


def _route_values(res: CliResult) -> tuple[complex, complex]:
    """The closed and pfaffian values that ``isingff ff`` printed."""
    r = _results(res)
    return (complex(r["closed_re"], r["closed_im"]),
            complex(r["pfaffian_re"], r["pfaffian_im"]))


def _indices(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


# ---- corr ------------------------------------------------------------------


def check_corr(api, c, value, m_height, dx, dy, eps_x, eps_y, oracle_cache) -> str | None:
    """Agreement with the dense trace ratio, and |C| <= 1 (up to rounding)."""
    if not math.isfinite(value):
        return f"correlation {value} is not finite"
    if abs(value) > 1.0 + UNIT_SLACK:
        return f"|C| = {abs(value)!r} exceeds 1"
    key = (c.kx, c.ky, c.n, eps_y)
    if key not in oracle_cache:
        oracle_cache[key] = api.oracle.build_operators(c, eps_y=eps_y)
    ref = api.oracle.oracle_correlation(oracle_cache[key], m_height, dx, dy,
                                        eps_x=eps_x)
    err = abs(value - ref) / max(1.0, abs(value), abs(ref))
    if not err <= CORR_TOL:
        return f"correlation {value!r} vs trace ratio {ref!r}: error {err:.3e}"
    return None


def build_corr(api, rng: np.random.Generator, n: int = 8,
               heights=(8, 16, 32)) -> list[Op]:
    """One op per (coupling, eps_y): the full N=8 spectral sum.

    M, dx, dy and eps_x are drawn from the seed.  dx = 0 with dy = 0 mod N is
    redrawn: the library returns 1 there without summing, which would put a
    second, thousandfold cheaper population into the percentiles.
    """
    couplings = {kxy: api.spectral.Couplings.from_kx_ky(*kxy, n) for kxy in COUPLINGS}
    for c in couplings.values():
        for table in ("thetas", "gamma", "u", "b", "sqrt_b", "nu"):
            getattr(c, f"{table}_a"), getattr(c, f"{table}_p")
    oracle_cache: dict = {}
    ops = []
    for kxy in COUPLINGS:
        for eps_y in (1, -1):
            m_height = int(rng.choice(heights))
            while True:
                dx = int(rng.integers(0, m_height + 1))
                dy = int(rng.integers(-n, n + 1))
                if dx or dy % n:
                    break
            eps_x = int(rng.choice((1, -1)))
            c = couplings[kxy]
            args = (m_height, dx, dy, eps_x, eps_y)
            ops.append(Op(
                label=f"corr kx={kxy[0]} ky={kxy[1]} n={n} M={m_height} dx={dx} "
                      f"dy={dy} eps_x={eps_x} eps_y={eps_y}",
                run=lambda c=c, a=args: api.formfactors.two_point_correlation(c, *a),
                check=lambda v, c=c, a=args: check_corr(api, c, v, *a, oracle_cache),
            ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---- ff-large --------------------------------------------------------------


def check_ff_route(api, res: CliResult, kxy, n, site, bra, ket) -> str | None:
    """CLI exit 0; closed value finite, |F| <= 1 (up to rounding), and equal to
    the pfaffian route.

    The pfaffian route is evaluated here, apart from the timed call, on a
    freshly built ``Couplings``.
    """
    results, err = _cli_results(res)
    if err:
        return err
    if "closed_re" not in results:
        return "no closed value in the output"
    f = complex(results["closed_re"], results["closed_im"])
    if not (math.isfinite(f.real) and math.isfinite(f.imag)):
        return f"closed value {f} is not finite"
    if abs(f) > 1.0 + UNIT_SLACK:
        return f"|F| = {abs(f)!r} exceeds 1"
    fs = api.formfactors
    c = api.spectral.Couplings.from_kx_ky(*kxy, n)
    spec = fs.FormFactorSpec(site, fs.FockState("a", bra), fs.FockState("p", ket))
    ref = fs.ff_pfaffian(spec, c)
    if not abs(f - ref) <= ROUTE_TOL * abs(ref):
        return f"closed {f} vs pfaffian route {ref}"
    return None


def paired_momenta(rng: np.random.Generator, n: int, pairs: int):
    """``pairs`` bra momenta, each with a ket momentum at distance pi/N.

    Bra index j (angle (2j+1)pi/N) sits between ket indices j and j+1 (angles
    2j pi/N and 2(j+1) pi/N); bra indices keep a gap of at least 2, so the
    kets are distinct.  Form factors of such states are of order 0.02..1.
    Uncorrelated momenta give |F| down to 1e-90 at N=256, where the closed and
    pfaffian routes disagree by up to 1e-5 relative on some seeds only (see
    CHANGES.md); ``PFAFFIAN_ZERO`` keeps that fault in every pass.
    """
    offset = int(rng.integers(0, 2))
    bra = 2 * rng.choice(n // 2, pairs, replace=False) + offset
    ket = (bra + rng.integers(0, 2, pairs)) % n
    return tuple(sorted(int(i) for i in bra)), tuple(sorted(int(i) for i in ket))


# (site, bra, ket) at (0.4, 0.7), N=256, m+n = 12: ff_closed gives |F| = 1.2e-49
# and linalg.pfaffian's absolute pivot floor turns the pfaffian route into 0;
# the CLI exits 0, as its route residual is taken relative to max(|F|, 1e-30)
PFAFFIAN_ZERO = (184, (13, 56, 72, 75, 143, 153, 168, 193, 208, 221, 222, 233), ())


def closed_overflow(res: CliResult) -> bool:
    """The ``ff_closed`` overflow: CLI exit 5, the closed value not finite and
    the pfaffian route finite and nonzero."""
    closed, pf = _route_values(res)
    return (res.code == EXIT_VERIFY and not cmath.isfinite(closed)
            and cmath.isfinite(pf) and pf != 0)


def pfaffian_zero(res: CliResult) -> bool:
    """The pfaffian pivot floor: CLI exit 0, the pfaffian route exactly 0 and
    the closed value finite, nonzero and at most 1 in modulus."""
    closed, pf = _route_values(res)
    return (res.code == 0 and pf == 0 and cmath.isfinite(closed)
            and 0 < abs(closed) <= 1.0)


def build_ff_large(api, rng: np.random.Generator, n: int = 256,
                   max_particles: int = 16, fault_momenta: int = 24,
                   zero_spec=PFAFFIAN_ZERO) -> list[Op]:
    """CLI ``ff`` at N=256: per coupling one op for each m+n in 0, 2, .., 16.

    Every pass ends with two seed-independent specs that fail through known
    faults: bra = ket = momenta 0..23, on which ``ff_closed`` overflows, and
    ``zero_spec``, on which ``ff_pfaffian`` returns 0.
    """
    ops = []
    for kxy in COUPLINGS:
        for total in range(0, max_particles + 1, 2):
            bra, ket = paired_momenta(rng, n, total // 2)
            ops.append(_ff_op(api, kxy, n, int(rng.integers(0, n)), bra, ket))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    block = tuple(range(fault_momenta))
    ops.append(_ff_op(api, (0.4, 0.7), n, 0, block, block, known_fault=closed_overflow))
    ops.append(_ff_op(api, (0.4, 0.7), n, *zero_spec, known_fault=pfaffian_zero))
    return ops


def _ff_op(api, kxy, n, site, bra, ket, check=check_ff_route,
           known_fault: Callable[[CliResult], bool] | None = None) -> Op:
    """CLI ``ff`` for one spec, checked by ``check``."""
    argv = ["ff", "--kx", str(kxy[0]), "--ky", str(kxy[1]), "--n", str(n),
            "--site", str(site), "--bra", _indices(bra), "--ket", _indices(ket)]
    return Op(label=" ".join(argv),
              run=lambda: call_cli(api, argv),
              check=lambda res: check(api, res, kxy, n, site, bra, ket),
              known_fault=known_fault)


# ---- oracle ----------------------------------------------------------------


def check_oracle(api, res: CliResult, kxy, n, site, bra, ket) -> str | None:
    """The route check of ff-large, plus the CLI's own route and oracle residuals."""
    err = check_ff_route(api, res, kxy, n, site, bra, ket)
    if err:
        return err
    results = _results(res)
    route = results["route_residual"]
    if not route <= ROUTE_TOL:
        return f"route_residual {route!r} above {ROUTE_TOL}"
    if "oracle_residual" not in results:
        return "no oracle_residual in the output"
    resid = results["oracle_residual"]
    if not (math.isfinite(resid) and resid <= ORACLE_TOL):
        return f"oracle_residual {resid!r} is not finite and <= {ORACLE_TOL}"
    return None


_ORACLE_SHAPES = {0: ((0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (0, 4)),
                  1: ((1, 1), (3, 1), (1, 3))}


def build_oracle(api, rng: np.random.Generator, n: int = 10) -> list[Op]:
    """CLI ``ff`` at N=10, where the dense 2^N oracle runs on every call.

    One op per (coupling, bra parity): even and odd at (0.4, 0.7) and
    (0.5, 0.5), odd only at (0.3, 0.9), where even bra states hit the
    label-grouping fault (see CHANGES.md).  Site, particle numbers
    (m + n <= 4) and momenta are drawn from the seed.
    """
    cells = [((0.4, 0.7), 0), ((0.4, 0.7), 1), ((0.5, 0.5), 0), ((0.5, 0.5), 1),
             ((0.3, 0.9), 1)]
    ops = []
    for kxy, parity in cells:
        shapes = _ORACLE_SHAPES[parity]
        m, k = shapes[int(rng.integers(0, len(shapes)))]
        bra = tuple(sorted(int(i) for i in rng.choice(n, m, replace=False)))
        ket = tuple(sorted(int(i) for i in rng.choice(n, k, replace=False)))
        site = int(rng.integers(0, n))
        ops.append(_ff_op(api, kxy, n, site, bra, ket, check=check_oracle))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---- verify ----------------------------------------------------------------


def _bad_residuals(residuals: dict) -> dict:
    return {k: v for k, v in residuals.items()
            if not (math.isfinite(v) and v <= VERIFY_TOL)}


def check_verify(res: CliResult) -> str | None:
    """CLI exit 0 and every residual finite and <= 1e-10."""
    results, err = _cli_results(res)
    if err:
        return err
    if not results.get("residuals"):
        return "no residuals in the output"
    bad = _bad_residuals(results["residuals"])
    if bad:
        return f"residuals not finite and <= {VERIFY_TOL}: {bad}"
    return None


def det_phi_theta_nan(res: CliResult) -> bool:
    """The theta-product overflow: CLI exit 0, ``det_phi_theta_vs_lu`` not
    finite, and every other residual finite and <= 1e-10."""
    bad = _bad_residuals(_results(res)["residuals"])
    return (res.code == 0 and list(bad) == ["det_phi_theta_vs_lu"]
            and not math.isfinite(bad["det_phi_theta_vs_lu"]))


def build_verify(api, rng: np.random.Generator, n: int = 8,
                 cauchy_n: int = 32) -> list[Op]:
    """CLI ``verify all`` at N=8 for the three couplings (site from the seed),
    then ``verify cauchy`` at (0.3, 0.9), N=32, whose theta-product determinant
    is NaN (a known fault)."""
    ops = []
    for kxy in COUPLINGS:
        argv = ["verify", "all", "--kx", str(kxy[0]), "--ky", str(kxy[1]),
                "--n", str(n), "--site", str(int(rng.integers(0, n)))]
        ops.append(Op(label=" ".join(argv), run=lambda argv=argv: call_cli(api, argv),
                      check=check_verify))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    argv = ["verify", "cauchy", "--kx", "0.3", "--ky", "0.9", "--n", str(cauchy_n)]
    ops.append(Op(label=" ".join(argv), run=lambda: call_cli(api, argv),
                  check=check_verify, known_fault=det_phi_theta_nan))
    return ops


WORKLOADS = {
    "corr": build_corr,
    "ff-large": build_ff_large,
    "oracle": build_oracle,
    "verify": build_verify,
}
