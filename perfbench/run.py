"""Benchmark of isingff: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload corr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory.  The run builds the workload's operations from ``--seed``,
repeats them in whole passes until ``--seconds`` have gone by, checks every
output (untimed), and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The same object, plus the spans of a traced run,
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS/OpenMP thread keeps runs on a shared
# 2-CPU host steady
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9
# the calibration kernel's time on the reference machine; every reported time
# is scaled to that machine's speed (see README.md)
CALIBRATION_REF_S = 0.5e-3
EDGE_SAMPLES = 3
# well above an ff-large op (10-20 ms), so short ops rarely carry a sample
SAMPLE_EVERY_S = 0.05

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402  (after the thread settings)
import scipy.linalg, scipy.optimize, scipy.special  # noqa: E401,E402,F401

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_CAL_X = np.linspace(0.0, 4.0, 256)
_CAL_M = np.outer(_CAL_X[:96], _CAL_X[:96]) / 256.0


def _calibration_kernel() -> float:
    """Fixed work shaped like isingff's: interpreter loops, small array
    arithmetic and a small matrix product.  Independent of isingff."""
    total = 0.0
    for i in range(2000):
        total += math.sin(i * 1e-3) * (i % 7)
    x = _CAL_X
    for _ in range(30):
        x = np.sqrt(np.abs(np.sin(x) * 1.5 + 0.1)) + _CAL_X * 1e-3
    return total + float((_CAL_M @ _CAL_M).sum()) + float(x.sum())


class Speedometer:
    """How much slower than the reference machine this one runs while a call
    is timed.

    The calibration kernel runs ``EDGE_SAMPLES`` times between timed calls
    and, from a SIGALRM timer, every ``SAMPLE_EVERY_S`` during one; the time
    the samples inside a call take is taken off the call's time.  A call's
    slowness is the mean kernel time over the samples just before, during
    and just after it, over ``CALIBRATION_REF_S``: the mean, not the median,
    since the host switches between a fast and a slow state many times a
    second and the mean follows the mix.  Samples spread through a call of
    seconds follow the host's drift within it, where samples taken only at
    its ends did not (README.md).  With ``during=False`` (traced runs) the
    timer stays off, so no sample lands inside a traced span.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.inside: list[tuple[float, float]] = []   # (end, seconds)
        self.edge = self._edge()
        self.seconds = self.slowness = math.nan
        if during:
            signal.signal(signal.SIGALRM, self._tick)

    @staticmethod
    def _sample() -> float:
        start = time.perf_counter()
        _calibration_kernel()
        return time.perf_counter() - start

    def _edge(self) -> list[float]:
        return [self._sample() for _ in range(EDGE_SAMPLES)]

    def _tick(self, signum, frame) -> None:
        took = self._sample()
        self.inside.append((time.perf_counter(), took))

    def time(self, fn):
        """``fn()``, leaving in ``seconds`` its wall time less the samples
        taken inside it and in ``slowness`` the machine's slowness around it;
        both are set also when ``fn`` raises."""
        self.inside = []
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            inside = [took for at, took in self.inside if at <= end]
            self.seconds = end - start - sum(inside)
            before, self.edge = self.edge, self._edge()
            self.slowness = statistics.mean(before + inside + self.edge) / CALIBRATION_REF_S


def set_up(workload: str, seed: int):
    """Import isingff afresh and build the workload, ``SETUP_REPEATS`` times.

    numpy and scipy are imported once above, outside the timing: their import
    varies by a fifth between processes and no change to isingff moves it.
    Each repeat starts from a collected heap and is scaled to reference speed
    by ``Speedometer``.  Returns the last import, its operations, the median
    set-up time at reference speed and the median wall time.
    """
    def build():
        api = workloads.fresh_import()
        return api, workloads.WORKLOADS[workload](api, np.random.default_rng(seed))

    speed = Speedometer()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        api, ops = speed.time(build)
        raw.append(speed.seconds)
        scaled.append(speed.seconds / speed.slowness)
    return api, ops, statistics.median(scaled), statistics.median(raw)


def start_tracer(api, ops) -> Tracer:
    """One untraced pass over ``ops``, then a tracer installed on ``api``.

    After that pass the package's lru caches stand the same in every traced
    pass, so the per-op counts do not depend on how many passes the run
    makes; failures show again in the traced passes.
    """
    for op in ops:
        with contextlib.suppress(Exception):
            op.run()
    tracer = Tracer()
    tracer.install(api)
    return tracer


def run_passes(ops, seconds: float, tracer: Tracer | None) -> dict:
    """Whole passes over ``ops`` until ``seconds`` of wall time have gone by.

    Each operation's wall time is also divided by the machine's slowness
    around and during it (``Speedometer``), giving its time at reference speed.
    """
    times, scaled, slowness = [], [], []
    failed = 0
    correct = True
    calls = [tracer.wrap("bench.op", op.run) if tracer else op.run for op in ops]
    speed = Speedometer(during=tracer is None)
    start = time.perf_counter()
    while True:
        for op, call in zip(ops, calls):
            if tracer:
                tracer.op_id += 1
                tracer.active = True
            try:
                out, err = speed.time(call), None
            except Exception:  # the run goes on; the op counts as failed
                out, err = None, traceback.format_exc(limit=3)
            if tracer:
                tracer.active = False
            times.append(speed.seconds)
            slowness.append(speed.slowness)
            scaled.append(speed.seconds / speed.slowness)
            known = False
            if err is None:
                err = op.check(out)
                known = err is not None and _is_known_fault(op, out)
            if err is not None:
                failed += 1
                if not known:
                    correct = False
                    print(f"FAILED {op.label}: {err}", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            break
    return {"times": times, "scaled": scaled, "slowness": slowness,
            "failed": failed, "correct": correct}


def _is_known_fault(op, out) -> bool:
    """Whether ``out`` fails through the op's known fault and nothing else; an
    output the predicate cannot read is not that fault."""
    if op.known_fault is None:
        return False
    try:
        return bool(op.known_fault(out))
    except Exception:
        return False


def end_to_end(times: list[float], failed: int, setup_s: float) -> dict:
    return {
        "ops_per_s": {"value": (len(times) - failed) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "unit": "MiB"},
    }


def p90_ms(times: list[float]) -> float:
    return 1e3 * statistics.quantiles(times, n=10)[8] if len(times) > 1 else 1e3 * times[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isingff" / "__init__.py").is_file():
        print(f"no isingff package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    api, ops, setup_s, setup_raw_s = set_up(args.workload, args.seed)
    if Path(api.__file__).resolve().parent != SRC / "isingff":
        print(f"isingff imported from {api.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = start_tracer(api, ops) if args.trace else None
    res = run_passes(ops, args.seconds, tracer)
    attempted = len(res["times"])
    if tracer:
        metrics = tracer.layer_metrics(attempted)
    else:
        metrics = end_to_end(res["scaled"], res["failed"], setup_s)
    result = {"correct": res["correct"], "attempted": attempted,
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": int(THREADS),
              "passes": attempted // len(ops), "result": result,
              "wall": end_to_end(res["times"], res["failed"], setup_raw_s),
              "op_p90_ms": {"scaled": p90_ms(res["scaled"]),
                            "wall": p90_ms(res["times"]), "samples": attempted},
              "operations": [op.label for op in ops],
              "wall_times_s": res["times"], "slowness": res["slowness"]}
    if tracer:
        record["trace_data"] = tracer.dump()
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
