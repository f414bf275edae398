"""Call budgets of the verification suites.

The suites evaluate their checks as stacks: one Frobenius stack per matrix
size, one form-factor stack per (m, n) group, over every site at once for the
translation phases, and the Ising closed forms of a coupling share one
record, in which each sn/cn/dn grid, Phi^-1 and log det Phi is built once.
Counting the theta_1 evaluations and the route calls pins that down, so a
return to per-config or per-site loops fails here.  The bounds are the counts at N=8,
(0.4, 0.7).  Evaluated one config at a time, the Cauchy suite makes 403
theta_1 evaluations there, and 159 with its per-point factors (lambda, f,
g) rebuilt by each closed form; ``verify all`` made 179 while the rotation
suite built Phi^-1 and log det Phi again; with one stack per site, the
form-factor suite makes 46 ff_closed and 42 ff_pfaffian calls.
"""

import pytest

from isingff import cauchy, elliptic, verification
from isingff.spectral import Couplings

THETA1_BUDGET = {"cauchy": 132, "formfactor": 10, "all": 167}
ROUTE_BUDGET = {"ff_closed": 18, "ff_pfaffian": 14}


@pytest.fixture
def counted(monkeypatch):
    """A fresh N=8 coupling and the calls counted from then on."""
    c = Couplings.from_kx_ky(0.4, 0.7, 8)
    counted = dict.fromkeys(("theta1", *ROUTE_BUDGET), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(elliptic, "_theta1", counting("theta1", elliptic._theta1))
    for name in ROUTE_BUDGET:
        monkeypatch.setattr(verification, name, counting(name, getattr(verification, name)))
    # a cold record cache, so the count does not depend on earlier tests
    cauchy.ising_record.cache_clear()
    return c, counted


def test_cauchy_suite_budget(counted):
    c, counts = counted
    verification.cauchy_suite(c)
    assert counts["theta1"] <= THETA1_BUDGET["cauchy"]


def test_formfactor_suite_budget(counted):
    c, counts = counted
    verification.formfactor_suite(c)
    assert counts["theta1"] <= THETA1_BUDGET["formfactor"]
    for name, budget in ROUTE_BUDGET.items():
        assert counts[name] <= budget, name


def test_all_suites_budget(counted):
    # the rotation suite reads Phi^-1 and log det Phi from the Cauchy suite's record
    c, counts = counted
    verification.run_suite("all", c)
    assert counts["theta1"] <= THETA1_BUDGET["all"]
