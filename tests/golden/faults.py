"""The known faults of the golden CLI corpus, as predicates on a call's outcome.

Each predicate reads one corpus line, (argv, exit code, stdout, last stderr
line), and says whether the line shows its fault; ``item`` names the ROADMAP
item that owns the fault, or "refusal" for a documented refusal of input the
program cannot serve.  ``tests/test_golden.py`` asks that every nonzero exit
is claimed by exactly one predicate, and every line tagged with an item by
that item's; a predicate that claims no line names a mended fault, to drop.
"""

from __future__ import annotations

import json
import re

FAULTS = []     # every predicate, in the order below


def _fault(item: str):
    def register(predicate):
        predicate.item = item
        FAULTS.append(predicate)
        return predicate
    return register


def _results(stdout: str) -> dict:
    """The ``results`` of a JSON payload; {} for CSV or no output."""
    try:
        return json.loads(stdout).get("results", {})
    except ValueError:
        return {}


@_fault("item 12")
def label_fault(argv, exit, stdout, stderr) -> bool:
    """Labelling finds a cell or block of V whose states its labels do not match."""
    return exit == 3 and re.search(r"has \d+ states but \d+ (matching|predicted) labels",
                                   stderr) is not None


@_fault("items 3/10")
def route_gate(argv, exit, stdout, stderr) -> bool:
    """``verify`` fails the closed-vs-pfaffian form-factor check and nothing else."""
    return exit == 5 and _results(stdout).get("failed_checks") == [
        "formfactor.closed_vs_pfaffian"]


@_fault("item 20")
def sector_sums_cancel(argv, exit, stdout, stderr) -> bool:
    """The spectral sum's two sector sums cancel in double at eps_x = -1."""
    return exit == 3 and "partition sum vanishes" in stderr


@_fault("item 2")
def eta_residual(argv, exit, stdout, stderr) -> bool:
    """The elliptic routes at strong coupling: eta misses its residual gate."""
    return exit == 3 and "eta residual" in stderr


@_fault("item 3")
def pfaffian_zero(argv, exit, stdout, stderr) -> bool:
    """The pfaffian pivot floor: ``ff`` exits 0 with the pfaffian route exactly 0
    and the closed value nonzero."""
    res = _results(stdout)
    return (exit == 0 and res.get("pfaffian_re") == 0 == res.get("pfaffian_im")
            and res.get("closed_abs", 0) != 0)


@_fault("refusal")
def kprime_rounds_to_one(argv, exit, stdout, stderr) -> bool:
    """Strong coupling: k' rounds to 1, so the elliptic routes refuse the coupling."""
    return exit == 3 and "rounds to 1" in stderr


@_fault("refusal")
def tolerance_not_a_number(argv, exit, stdout, stderr) -> bool:
    """``--tol nan`` is refused by the parser."""
    return exit == 2 and "tolerance must be a number >= 0, got 'nan'" in stderr


@_fault("refusal")
def zero_tolerance(argv, exit, stdout, stderr) -> bool:
    """At ``--tol 0`` any nonzero route residual fails ``ff``'s check."""
    return exit == 5 and argv[0] == "ff" and "--tol" in argv \
        and float(argv[argv.index("--tol") + 1]) == 0.0
