"""Span tracing of the public functions of isingff, installed from outside.

The tracer wraps every public function of the layer modules (and the public
classmethods of their classes, such as ``Couplings.from_kx_ky``) and rebinds
the wrapper in every ``isingff`` module namespace that holds the original, so
calls made inside the package are traced as well as calls made from here.
Nothing in the package is edited.

Each call records a span (name, operation id, parent span, start, end).  Self
time is computed online as the span's duration minus the time its traced
children took, so memory stays bounded however many calls a run makes; only
the first ``MAX_SPANS`` spans are kept for the trace file.  While the tracer
is inactive (outside the timed calls, so during correctness checks) the
wrappers pass straight through and record nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("elliptic", "spectral", "cauchy", "linalg", "formfactors", "oracle",
          "verification", "cli")

MAX_SPANS = 100_000   # spans kept for the trace file; later ones only counted

_SPECTRAL_TABLES = ("quasimomenta", "theta_of_index", "gamma_of_theta",
                    "b_of_theta", "sqrt_b_of_theta", "u_of_theta", "log_sinh",
                    "nu_of_gamma")
_SUITES = ("elliptic", "cauchy", "rotation", "formfactor")


def _blocks(spectrum) -> int:
    return len({state.block for state in spectrum})


def _pair_bytes(arrays) -> int:
    return sum(a.nbytes for a in arrays)


# counts taken from a traced function's return value: span name -> counter
_RESULT_COUNTERS = {
    "oracle.predicted_fock_labels": ("oracle.labels", len),
    "oracle.labeled_spectrum": ("oracle.blocks", _blocks),
    "formfactors.two_particle_matrices": ("formfactors.pair_matrix_bytes",
                                          _pair_bytes),
    **{f"verification.{s}_suite": ("verification.checks", len) for s in _SUITES},
}

# per-layer metric -> (unit, kind, span names or counter name); "calls" and
# "self" sum over the listed spans, "count" reads a result counter
LAYER_METRICS = {
    "elliptic.theta_calls": ("calls/op", "calls", ["elliptic.theta"]),
    "elliptic.theta_s": ("s/op", "self", ["elliptic.theta"]),
    "elliptic.sn_calls": ("calls/op", "calls", ["elliptic.jacobi_sn_cn_dn"]),
    "elliptic.sn_s": ("s/op", "self", ["elliptic.jacobi_sn_cn_dn"]),
    "spectral.couplings_calls": ("calls/op", "calls", ["spectral.Couplings.from_kx_ky"]),
    "spectral.couplings_s": ("s/op", "self", ["spectral.Couplings.from_kx_ky"]),
    "spectral.tables_s": ("s/op", "self", [f"spectral.{f}" for f in _SPECTRAL_TABLES]),
    "spectral.u_of_theta_calls": ("calls/op", "calls", ["spectral.u_of_theta"]),
    "cauchy.calls": ("calls/op", "calls", "cauchy."),
    "cauchy.s": ("s/op", "self", "cauchy."),
    "linalg.pfaffian_calls": ("calls/op", "calls", ["linalg.pfaffian"]),
    "linalg.pfaffian_s": ("s/op", "self", ["linalg.pfaffian"]),
    "linalg.det_inverse_s": ("s/op", "self", ["linalg.det_and_inverse"]),
    "formfactors.ff_closed_calls": ("calls/op", "calls", ["formfactors.ff_closed"]),
    "formfactors.ff_closed_s": ("s/op", "self", ["formfactors.ff_closed"]),
    "formfactors.corr_s": ("s/op", "self", ["formfactors.two_point_correlation"]),
    "formfactors.ff_pfaffian_calls": ("calls/op", "calls", ["formfactors.ff_pfaffian"]),
    "formfactors.ff_pfaffian_s": ("s/op", "self", ["formfactors.ff_pfaffian"]),
    "formfactors.pair_matrix_bytes": ("bytes/op", "count", "formfactors.pair_matrix_bytes"),
    "oracle.build_s": ("s/op", "self", ["oracle.build_operators"]),
    "oracle.label_s": ("s/op", "self", ["oracle.labeled_spectrum",
                                        "oracle.predicted_fock_labels"]),
    "oracle.labels": ("count/op", "count", "oracle.labels"),
    "oracle.blocks": ("count/op", "count", "oracle.blocks"),
    "oracle.ff_modulus_s": ("s/op", "self", ["oracle.oracle_ff_modulus",
                                             "oracle.block_labels"]),
    **{f"verification.{s}_s": ("s/op", "self", [f"verification.{s}_suite"])
       for s in _SUITES},
    "verification.checks": ("count/op", "count", "verification.checks"),
    "cli.self_s": ("s/op", "self", ["cli.main", "cli.build_parser"]),
}


class Tracer:
    """Records spans and counts of the wrapped isingff functions."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list = []          # (name id, op id, parent index, start, end)
        self.dropped = 0
        self.op_id = -1
        self.active = False
        self._stack: list[list] = []   # [child seconds, span index]
        self._t0 = time.perf_counter()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        """A traced stand-in for ``fn`` recording spans under ``name``."""
        nid = self._name_id(name)
        counter = _RESULT_COUNTERS.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[nid] += duration - frame[0]
                self.calls[nid] += 1
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index] = (nid, self.op_id, parent,
                                    start - self._t0, end - self._t0)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self, api) -> None:
        """Wrap the public functions of every layer module of ``api``."""
        replaced = {}
        for layer in LAYERS:
            module = getattr(api, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            wrapped = self.wrap(f"{layer}.{attr}.{meth}", raw.__func__)
                            setattr(obj, meth, classmethod(wrapped))
        for name, module in list(sys.modules.items()):
            if name != "isingff" and not name.startswith("isingff."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def layer_metrics(self, operations: int) -> dict[str, dict]:
        """Every per-layer metric, as totals divided by ``operations``."""
        by_name = {n: i for i, n in enumerate(self.names)}
        out = {}
        for metric, (unit, kind, source) in LAYER_METRICS.items():
            if kind == "count":
                total = self.counts.get(source, 0)
            else:
                ids = ([i for n, i in by_name.items() if n.startswith(source)]
                       if isinstance(source, str) else
                       [by_name[n] for n in source if n in by_name])
                table = self.calls if kind == "calls" else self.self_s
                total = sum(table[i] for i in ids)
            out[metric] = {"value": total / operations, "unit": unit}
        return out

    def dump(self) -> dict:
        """Per-span-name totals and the kept spans, for the trace file."""
        return {
            "functions": {n: {"calls": c, "self_s": s}
                          for n, c, s in zip(self.names, self.calls, self.self_s)
                          if c},
            "counts": dict(self.counts),
            "span_fields": ["name", "op", "parent", "start_s", "end_s"],
            "spans": [(self.names[s[0]],) + s[1:] for s in self.spans
                      if s is not None],
            "spans_dropped": self.dropped,
        }
