"""The golden CLI corpus: a fixed list of ``isingff`` calls and their output.

``cli.jsonl`` starts with a header line naming the numeric stack that wrote
it (numpy, its BLAS, the BLAS thread count, the machine and the CPU model),
then holds one line per in-process :func:`isingff.cli.main` call: the call's
tag, its argv, the exit code, stdout, and the last stderr line (the error
line of exits 2-4, and of exit 5 where a check raises; empty otherwise).  Warnings carry
file paths, so they are caught and not stored.

A nonzero exit that the ROADMAP names as a known fault is tagged with the
item that owns it, so a mend shows as that line's exit code moving.

Rewrite the corpus from the repository root with

    PYTHONPATH=src python3 tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("cli.jsonl")
REGENERATE = "PYTHONPATH=src python3 tests/golden/generate.py"

_SEED = 20261020
_FF_COUPLINGS = ((0.4, 0.7), (0.2, 1.2), (0.4407, 0.4407))
_CORR_COUPLINGS = ((0.4, 0.7), (0.3, 0.9), (1.0, 1.2))
_VERIFY_COUPLINGS = ((0.4, 0.7), (0.3, 0.9), (0.5, 0.5))
_REPEAT_COUPLINGS = ((0.4, 0.7), (0.2, 1.2))
_LABEL_FAULT = "ff --kx 0.2 --ky 1.2 --n 10 --bra 1 --ket 3"     # item 12
_PFAFFIAN_ZERO = ("184", "13,56,72,75,143,153,168,193,208,221,222,233")   # site, bra


def stack() -> dict:
    """The numeric stack that the corpus bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):       # numpy before 1.26 prints its configuration only
        blas = "unknown"
    threads = (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
               or str(os.cpu_count()))
    cpu = platform.processor()
    try:        # the BLAS picks its kernels by CPU model, and they round differently
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "machine": platform.machine(), "cpu": cpu}


def _ff(kx, ky, n, site, bra, ket) -> list[str]:
    return ["ff", "--kx", str(kx), "--ky", str(ky), "--n", str(n), "--site", str(site),
            "--bra", ",".join(map(str, bra)), "--ket", ",".join(map(str, ket))]


def _random_ff(rng, kx, ky, n, parity) -> list[str]:
    """A spec of the given bra parity: m + n <= 6, at a random site."""
    m, k = rng.choice([(a, b) for a in range(parity, 5, 2)
                       for b in range(parity, 5, 2) if a + b <= 6])
    bra, ket = (sorted(rng.choice(n, size, replace=False).tolist()) for size in (m, k))
    return _ff(kx, ky, n, int(rng.integers(n)), bra, ket)


def _seeded_ff(rng) -> list[tuple[str, list[str]]]:
    """One spec per (N, coupling, parity)."""
    return [("seeded ff", _random_ff(rng, kx, ky, n, parity))
            for n in (4, 6, 8, 10) for kx, ky in _FF_COUPLINGS for parity in (0, 1)]


def _seeded_corr(rng) -> list[tuple[str, list[str]]]:
    calls = []
    for n in (4, 6, 8):
        for eps_x in (1, -1):
            kx, ky = _CORR_COUPLINGS[int(rng.integers(len(_CORR_COUPLINGS)))]
            m = int(rng.integers(2, 17))
            calls.append(("seeded corr", [
                "corr", "--kx", str(kx), "--ky", str(ky), "--n", str(n),
                "--m-height", str(m), "--dx", str(int(rng.integers(m + 1))),
                "--dy", str(int(rng.integers(2 * n))), "--eps-x", str(eps_x),
                "--eps-y", str(int(rng.choice([1, -1])))]))
    return calls


def _verify_all() -> list[tuple[str, list[str]]]:
    """``verify all`` at N = 4, 8 and 12; (0.3, 0.9) at N=12 fails the route gate."""
    return [("items 3/10" if (kx, ky, n) == (0.3, 0.9, 12) else "verify all",
             ["verify", "all", "--kx", str(kx), "--ky", str(ky), "--n", str(n)])
            for n in (4, 8, 12) for kx, ky in _VERIFY_COUPLINGS]


def _repeated_ff(rng) -> list[tuple[str, list[str]]]:
    """Six specs at each repeat coupling, N=10, and the item-12 label fault,
    each called twice in a row: the second call reads what the first kept."""
    specs = [("repeated ff", _random_ff(rng, kx, ky, 10, int(rng.integers(2))))
             for kx, ky in _REPEAT_COUPLINGS for _ in range(6)]
    specs.append(("item 12", _LABEL_FAULT.split()))
    return [call for call in specs for _ in range(2)]


def _argv(text: str) -> list[str]:
    """The words of ``text``; a trailing "--ket" is the README's --ket "", no momenta."""
    words = text.split()
    return words[:-1] + ["--ket="] if words[-1] == "--ket" else words


def calls() -> list[tuple[str, list[str]]]:
    """Every (tag, argv) of the corpus, in order."""
    readme = [
        "params --kx 0.5 --ky 0.5",
        "spectrum --kx 0.4 --ky 0.7 --n 6",
        "ff --kx 0.4 --ky 0.7 --n 4 --site 0 --bra 0,1 --ket",
        "corr --kx 0.4 --ky 0.7 --n 4 --m-height 4 --dx 1 --dy 2 --eps-x -1",
        "verify all --kx 0.3 --ky 0.9 --n 6",
        "corr --kx 0.4 --ky 0.7 --n 8 --m-height 65 --dx 3 --dy 1",
        "corr --kx 6 --ky 6 --n 8 --m-height 8 --dx 2 --dy 1",
        "params --kx 6 --ky 6 --n 8",
        "ff --kx 0.2 --ky 1.2 --n 10 --bra 4 --ket 7",
        "verify all --kx 0.4 --ky 0.7 --n 8 --site 3",
        "verify rotation --kx 0.4 --ky 0.7 --n 4 --tol nan",
        "ff --kx 0.15 --ky 1.5 --n 8 --site 0 --bra 0,1,2,3,5 --ket 0",
    ]
    faults = [
        ("item 12", _LABEL_FAULT),
        ("item 12", "ff --kx 6 --ky 6 --n 8"),
        ("items 3/10", "verify all --kx 0.2 --ky 1.2 --n 8"),
        ("item 20", "corr --kx 6 --ky 6 --n 6 --m-height 16 --dx 3 --dy 2 --eps-x -1"),
        ("item 3", "ff --kx 0.4 --ky 0.7 --n 256 --site {} --bra {} --ket".format(
            *_PFAFFIAN_ZERO)),
        ("item 2", "verify elliptic --kx 3.5 --ky 3.5 --n 4"),
    ]
    rng = np.random.default_rng(_SEED)
    return ([("readme", _argv(t)) for t in readme]
            + [(tag, _argv(t)) for tag, t in faults]
            + _seeded_ff(rng) + _seeded_corr(rng) + _verify_all() + _repeated_ff(rng))


def run(argv: list[str]) -> dict:
    """One in-process CLI call: its exit code, stdout and last stderr line,
    with ``ISINGFF_TOL`` unset for the call."""
    from isingff.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("ISINGFF_TOL", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True):
            try:
                code = main(list(argv))
            except SystemExit as exc:       # argparse refuses the flags
                code = exc.code
    finally:
        if saved is not None:
            os.environ["ISINGFF_TOL"] = saved
    lines = err.getvalue().splitlines()
    return {"exit": code, "stdout": out.getvalue(), "stderr": lines[-1] if lines else ""}


def main() -> None:
    lines = [json.dumps({"stack": stack()}, sort_keys=True)]
    for tag, argv in calls():
        lines.append(json.dumps({"tag": tag, "argv": argv, **run(argv)}, sort_keys=True))
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} calls to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
