"""L-BFGS-B against SciPy's L-BFGS-B (Byrd, Lu, Nocedal and Zhu) as an
independent oracle, on chained Rosenbrock with and without a box.

SciPy is a test-only dependency; these tests skip where it is absent.  Both
solvers run with memory 5, an analytic gradient and tight stopping rules, so
that parameter differences measure where the algorithms end, not when they
stop.
"""

import numpy as np
import pytest

from paropt import optimize

scipy_optimize = pytest.importorskip("scipy.optimize")

BOXES = {
    "unbounded": lambda p: np.full(p, np.inf),
    "x<=0.8": lambda p: np.full(p, 0.8),
    "x[0]<=0.5": lambda p: np.r_[0.5, np.full(p - 1, np.inf)],
}
# paropt's final value may exceed SciPy's by this much, relative
VALUE_RTOL = 1e-6
# where the values agree, the parameters must agree this closely (max norm)
PAR_ATOL = 1e-4


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("p", [2, 10])
def test_matches_scipy_lbfgsb(p, box, chained_rosenbrock, rosenbrock_starts):
    fn, gr = chained_rosenbrock
    upper = BOXES[box](p)
    lower = np.full(p, -np.inf)
    classic = np.where(np.arange(p) % 2, 1.0, -1.2)
    for x0 in [classic] + rosenbrock_starts(p, 5, seed=p):
        x0 = np.minimum(x0, upper)
        ours = optimize(fn, x0, gr, lower=lower, upper=upper, memory_m=5, factr=1e4)
        ref = scipy_optimize.minimize(
            fn, x0, jac=gr, method="L-BFGS-B",
            bounds=scipy_optimize.Bounds(lower, upper),
            options={"maxcor": 5, "ftol": 1e-12, "gtol": 1e-9})
        tol = VALUE_RTOL * max(1.0, abs(ref.fun))
        # one-sided: finding a lower minimum than the oracle is no failure
        assert ours.value <= ref.fun + tol, (x0, ours.value, ref.fun)
        if abs(ours.value - ref.fun) <= tol:
            assert np.abs(ours.par - ref.x).max() <= PAR_ATOL, (x0, ours.par, ref.x)
