"""Command-line front end.

Subcommands: ``params`` (derived coupling scalars), ``spectrum`` (per-sector
spectral tables), ``ff`` (one form factor through every route), ``corr``
(two-point function plus the dense-oracle value), and ``verify`` (named
identity suites).  Output is JSON by default or CSV rows with ``--output csv``;
both are deterministic, so re-running a command is bit-identical.

Momenta on the command line are integer indices into the sector's ordered
quasimomentum list, never floating angles.

Exit codes: 0 success, 2 unparseable flags, 3 domain error, 4 resource
limit, 5 verification failure (a residual above tolerance or not finite).
Non-finite numbers are written as the strings "nan", "inf" and "-inf", so
the JSON output stays valid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verification
from .exceptions import (AmbiguousLabelError, ConvergenceError, DomainError,
                         ResourceError, SingularMatrixError, VerificationError)
from .formfactors import (FockState, FormFactorSpec, ff_closed, ff_pfaffian,
                          two_point_correlation, vacuum_overlap, xi_t)
from .oracle import (_TRACE_MAX_M, _TRACE_MAX_N, block_labels, build_operators, find_state,
                     labeled_spectrum, oracle_correlation, oracle_ff_modulus)
from .spectral import Couplings

_ORACLE_MAX_N = 10
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5


def _default_tolerance() -> float:
    return float(os.environ.get("ISINGFF_TOL", "1e-10"))


def _parse_indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise DomainError(f"momentum list must be comma-separated integers: {text!r}") from exc


def _json_safe(value):
    """``value`` with every non-finite float replaced by its name ("nan",
    "inf", "-inf"), so that the output stays valid JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _emit(payload: dict, rows: list[dict], output: str) -> None:
    if output == "json":
        print(json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False))
        return
    if not rows:
        return
    keys = list(rows[0].keys())
    print(",".join(keys))
    for row in rows:
        print(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k])
                       for k in keys))


def _couplings(args) -> Couplings:
    return Couplings.from_kx_ky(args.kx, args.ky, getattr(args, "n", 1) or 1)


def _cmd_params(args) -> int:
    c = _couplings(args)
    results = {
        "kx": c.kx, "ky": c.ky, "n": c.n,
        "kx_star": c.kx_star,
        "ferromagnetic": bool(c.kx_star < c.ky),
        "alpha": c.alpha, "beta": c.beta,
        "sinh2kx_sinh2ky": c.s,
        "k": c.modulus.k, "kprime": c.modulus.kprime,
        "K": c.modulus.bigK, "Kprime": c.modulus.bigKprime,
        "nome_q": c.modulus.q,
        "eta": c.eta,
        "xi": c.xi, "xi_T": xi_t(c),
        "vacuum_overlap": vacuum_overlap(c),
    }
    _emit({"command": "params", "results": results}, [results], args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    c = _couplings(args)
    rows = []
    for t in (c.sector("a"), c.sector("p")):
        for i in range(c.n):
            rows.append({
                "sector": t.sector, "index": i,
                "theta": float(t.thetas[i]), "gamma": float(t.gamma[i]),
                "b_re": float(t.b[i].real), "b_im": float(t.b[i].imag),
                "u": float(t.u[i]), "nu": float(t.nu[i]),
            })
    payload = {"command": "spectrum",
               "inputs": {"kx": args.kx, "ky": args.ky, "n": args.n},
               "results": {"points": rows}}
    _emit(payload, rows, args.output)
    return EXIT_OK


def _cmd_ff(args) -> int:
    c = _couplings(args)
    tol = args.tol
    spec = FormFactorSpec(args.site, FockState("a", _parse_indices(args.bra)),
                          FockState("p", _parse_indices(args.ket)))
    f_closed = ff_closed(spec, c)
    f_pf = ff_pfaffian(spec, c)
    route_residual = abs(f_closed - f_pf) / max(abs(f_closed), 1e-30)
    results = {
        "closed_re": f_closed.real, "closed_im": f_closed.imag,
        "closed_abs": abs(f_closed),
        "pfaffian_re": f_pf.real, "pfaffian_im": f_pf.imag,
        "route_residual": route_residual,
        "routes_agree": bool(route_residual <= tol),
    }
    ok = results["routes_agree"]
    if c.n <= _ORACLE_MAX_N:
        eps_y = 1 if len(spec.bra) % 2 == 0 else -1
        ops = build_operators(c, eps_y=eps_y)
        spect = labeled_spectrum(ops, c)
        oracle_val = oracle_ff_modulus(ops, spect, spec)
        bra_labels = block_labels(spect, find_state(spect, "a", spec.bra.indices).block)
        ket_labels = block_labels(spect, find_state(spect, "p", spec.ket.indices).block)
        blockwise = len(bra_labels) > 1 or len(ket_labels) > 1
        closed_block = math.sqrt(sum(
            abs(ff_closed(FormFactorSpec(args.site, FockState("a", bi),
                                         FockState("p", ki)), c)) ** 2
            for _, bi in bra_labels for _, ki in ket_labels))
        oracle_residual = abs(closed_block - oracle_val) / max(closed_block, 1e-30)
        results.update({
            "oracle_abs": oracle_val,
            "oracle_is_blockwise": blockwise,
            "oracle_residual": oracle_residual,
            "oracle_agrees": bool(oracle_residual <= max(tol, 1e-8)),
        })
        ok = ok and results["oracle_agrees"]
    payload = {"command": "ff",
               "inputs": {"kx": args.kx, "ky": args.ky, "n": args.n,
                          "site": args.site, "bra": list(spec.bra.indices),
                          "ket": list(spec.ket.indices), "tolerance": tol},
               "results": results}
    _emit(payload, [results], args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_corr(args) -> int:
    c = _couplings(args)
    tol = args.tol
    value = two_point_correlation(c, args.m_height, args.dx, args.dy,
                                  eps_x=args.eps_x, eps_y=args.eps_y)
    results = {"correlation": value}
    ok = True
    if c.n <= _TRACE_MAX_N and args.m_height <= _TRACE_MAX_M:
        ops = build_operators(c, eps_y=args.eps_y)
        oracle_val = oracle_correlation(ops, args.m_height, args.dx, args.dy,
                                        eps_x=args.eps_x)
        residual = abs(value - oracle_val) / max(1.0, abs(value), abs(oracle_val))
        results.update({
            "oracle": oracle_val,
            "oracle_residual": residual,
            "oracle_agrees": bool(residual <= max(tol, 1e-8)),
        })
        ok = results["oracle_agrees"]
    payload = {"command": "corr",
               "inputs": {"kx": args.kx, "ky": args.ky, "n": args.n,
                          "m_height": args.m_height, "dx": args.dx,
                          "dy": args.dy, "eps_x": args.eps_x,
                          "eps_y": args.eps_y, "tolerance": tol},
               "results": results}
    _emit(payload, [results], args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify(args) -> int:
    c = _couplings(args)
    tol = args.tol
    residuals = verification.run_suite(args.suite, c, site=args.site)
    # a non-finite residual fails its check, and np.max keeps a NaN
    passes = {k: bool(math.isfinite(v) and v <= tol) for k, v in residuals.items()}
    failed = sorted(k for k, ok in passes.items() if not ok)
    results = {"residuals": residuals,
               "max_residual": float(np.max(list(residuals.values()))),
               "tolerance": tol, "passed": not failed, "failed_checks": failed}
    rows = [{"check": k, "residual": v, "passed": passes[k]}
            for k, v in sorted(residuals.items())]
    payload = {"command": "verify",
               "inputs": {"kx": args.kx, "ky": args.ky, "n": args.n,
                          "suite": args.suite, "tolerance": tol},
               "results": results}
    _emit(payload, rows, args.output)
    return EXIT_OK if results["passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingff",
        description="Exact finite-lattice Ising form factors and correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--kx", type=float, required=True, help="horizontal coupling")
        p.add_argument("--ky", type=float, required=True, help="vertical coupling")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="lattice width N")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=_default_tolerance(),
                       help="agreement tolerance (env ISINGFF_TOL)")

    p = sub.add_parser("params", help="derived coupling scalars")
    common(p, with_n=False)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("spectrum", help="spectral data of both momentum sectors")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("ff", help="one spin form factor via all routes")
    common(p)
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--bra", type=str, default="",
                   help="comma-separated antiperiodic momentum indices")
    p.add_argument("--ket", type=str, default="",
                   help="comma-separated periodic momentum indices")
    p.set_defaults(func=_cmd_ff)

    p = sub.add_parser("corr", help="two-point correlation function")
    common(p)
    p.add_argument("--m-height", type=int, required=True, dest="m_height",
                   help="lattice height M")
    p.add_argument("--dx", type=int, required=True)
    p.add_argument("--dy", type=int, required=True)
    p.add_argument("--eps-x", type=int, choices=(1, -1), default=1, dest="eps_x")
    p.add_argument("--eps-y", type=int, choices=(1, -1), default=1, dest="eps_y")
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=verification.SUITES + ("all",))
    common(p)
    p.add_argument("--site", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConvergenceError, SingularMatrixError,
            AmbiguousLabelError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
