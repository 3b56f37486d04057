"""The public names: every entry of a module's ``__all__`` resolves, every
error type is raised somewhere, the test oracles share no library code, and
each refusal raises its own error type and message."""

import ast
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import quadwalk
from quadwalk import (asymptotics, dp, errors, ladders, montecarlo, singular_steps,
                      solve_drift, validate_steps)
from quadwalk.harmonic import make_tail_bound, w_rect

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadwalk.__path__))


def test_modules_found():
    assert {"dp", "ladders", "steps"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"quadwalk.{name}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mod, n)] == []


def test_every_error_type_is_raised():
    # a class in errors.py that no code raises is dead weight
    src = "".join(p.read_text() for p in Path(quadwalk.__file__).parent.glob("*.py"))
    raised = set(re.findall(r"raise\s+(?:\w+\.)*(\w+)", src))
    types = {n for n, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.QuadwalkError)}
    assert types - raised - {"QuadwalkError"} == set()


def test_oracles_import_nothing_from_the_library():
    # the oracles check the library, so they must not run its code
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n.split(".")[0] == "quadwalk"]


# refusals that no other test reaches: (id, call, error type, message)
TILTED = validate_steps([((1, -1), 2.0), ((1, 1), 1.0), ((-1, 1), 1.0)])
QUAD, V = dp.ExitSpec(), np.arange(1.0, 400.0)


def _w(x, barrier, block):
    return w_rect(TILTED, x, QUAD, lambda m: V[:m + 1], make_tail_bound(TILTED, 1.0),
                  1e-3, 8, barrier, block)


def _ladder(pmf):
    return ladders.LadderDist(pmf=pmf, truncation_error=0.0, mean=min(pmf.values()))


REFUSALS = [
    ("run_dp-start", lambda: dp.run_dp(TILTED, (0, 1), QUAD, 5), errors.InputError,
     "start (0, 1) is not inside the survival region"),
    ("half-plane-n", lambda: dp.half_plane_survival(TILTED, 1, -1), errors.InputError,
     "n must be >= 0"),
    ("half-plane-start", lambda: dp.half_plane_survival(TILTED, 0, 5),
     errors.InputError, "start height 0 is outside the region"),
    ("count_paths-n", lambda: dp.count_paths(TILTED, (1, 1), (2, 2), -1),
     errors.InputError, "n must be >= 0"),
    ("count_paths-start", lambda: dp.count_paths(TILTED, (1, 0), (2, 2), 3),
     errors.InputError, "start (1, 0) is not inside the survival region"),
    ("count_line-n", lambda: dp.count_line(TILTED, (1, 1), -1), errors.InputError,
     "n must be >= 0"),
    ("count_line-start", lambda: dp.count_line(TILTED, (0, 1), 3), errors.InputError,
     "start (0, 1) is not inside the survival region"),
    ("simulate_survival-n",
     lambda: montecarlo.simulate_survival(TILTED, (1, 1), -1, 10, 1),
     errors.InputError, "n must be >= 0"),
    ("w_rect-start", lambda: _w((0, 1), 10, (0, 2)), errors.InputError,
     "start (0, 1) is not inside the quadrant"),
    ("w_rect-barrier", lambda: _w((3, 1), 3, (1, 2)), errors.BarrierError,
     "barrier 3 below x1 + max |dx| = 4"),
    ("w_rect-block", lambda: _w((1, 1), 10, (2, 2)), errors.InputError,
     "block (2, 2) does not hold the start (1, 1)"),
    ("GaussParams-variance",
     lambda: asymptotics.GaussParams(mu1=0.5, sigma1sq=0.0, sigma2sq=1.0, rho=0.0),
     errors.InputError, "variances must be positive"),
    ("GaussParams-D",
     lambda: asymptotics.GaussParams(mu1=0.5, sigma1sq=1.0, sigma2sq=1.0, rho=1.0),
     errors.InputError, "sigma1^2 sigma2^2 - rho^2 must be positive"),
    ("AsymptoticConstants",
     lambda: asymptotics.AsymptoticConstants(kappa=1.0, kappa_prime=0.0, int_q=1.0),
     errors.InputError, "asymptotic constants must be positive"),
    ("RenewalTable-end", lambda: ladders.RenewalTable(values=np.array([1.0, 2.0]))(2),
     errors.InputError, "renewal table of size 1 queried at 2"),
    ("CrossingSolver-one-sided", lambda: ladders.CrossingSolver({1: 0.5, 2: 0.5}),
     errors.DegenerateSupportError, "crossing solver needs both up and down steps"),
    ("CrossingSolver-drift", lambda: ladders.CrossingSolver({-1: 0.25, 1: 0.75}),
     errors.NonzeroDriftError, "characteristic polynomial remainder 5.00e-01 at z=1"),
    ("renewal_V-p0", lambda: ladders.renewal_V(_ladder({0: 1.0 - 1e-16, 1: 1e-16}), 5),
     errors.InputError, "ladder law has all mass at overshoot 0"),
    ("renewal_H-charges-0", lambda: ladders.renewal_H(_ladder({0: 0.5, 1: 0.5}), 5),
     errors.InputError, "strict ascending ladder law cannot charge 0"),
    ("solve_drift-nan", lambda: solve_drift(singular_steps(), (math.nan, 0.0)),
     errors.InfeasibleDriftError, "target drift (nan, 0.0) is not finite"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
