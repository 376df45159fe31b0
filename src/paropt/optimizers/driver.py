"""Bound-constrained minimization loop shared by all methods.

One iteration = one accepted line-search step.  Every objective/gradient
evaluation, including line-search trials and finite-difference stencils,
goes through a single coupled evaluator, so evaluation counts follow the
batch laws exactly and parallel execution never changes the arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..engine import WorkerPool
from ..errors import ConfigError
from ..evaluator import ANALYTIC, CoupledEvaluator
from ..iterlog import IterationLog
from ..stencil import as_parameter_vector, validate_bounds
from .directions import LbfgsHistory, bfgs_update, cg_direction
from .linesearch import LineSearchFailure, wolfe_line_search
from .options import (BFGS, CG, LBFGSB, MACHINE_EPS, Convergence, OptimOptions,
                      OptimResult)


def projected_gradient(par, grad, lower, upper):
    """Gradient with infeasible components removed: par - P(par - grad).

    Zero exactly when no feasible descent movement exists, including at
    active bounds, which makes it the stationarity measure for boxes.
    """
    return par - np.clip(par - grad, lower, upper)


def active_mask(par, grad, lower, upper):
    """Coordinates pinned at a bound with the descent direction pointing
    outside the box; movement along -grad would leave the feasible set."""
    at_lower = (par <= lower) & (grad > 0.0)
    at_upper = (par >= upper) & (grad < 0.0)
    return at_lower | at_upper


def optimize(objective, par0, gradient=None, *, options=None, pool=None,
             **overrides) -> OptimResult:
    """Minimize objective from par0, optionally with an analytic gradient.

    Parameters
    ----------
    objective : callable
        Maps a parameter vector to a float.
    par0 : array_like
        Starting point; projected onto the box if one is set.
    gradient : callable, optional
        Analytic gradient.  When omitted the gradient comes from finite
        differences with the scheme and eps in the options.
    options : OptimOptions, optional
        Full option set.  Mutually exclusive with keyword overrides.
    pool : WorkerPool, optional
        Evaluation pool to borrow.  When omitted a pool of
        ``options.workers`` threads is created and closed internally.
    **overrides
        Convenience: OptimOptions fields, e.g. ``method="bfgs"``.

    Returns
    -------
    OptimResult
        Final point, value, evaluation counts, convergence code 0-3,
        message, and the iteration log when ``loginfo`` is set.
    """
    if options is None:
        options = OptimOptions(**overrides)
    elif overrides:
        raise ConfigError("pass either options= or keyword overrides, not both")
    opts = options.validated()

    par = as_parameter_vector(par0)
    lower, upper = validate_bounds(opts.lower, opts.upper, par.size)
    par = np.clip(par, lower, upper)

    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(opts.workers)
    evaluator = CoupledEvaluator(objective, par.size, gradient=gradient,
                                 scheme=opts.scheme, eps=opts.eps,
                                 lower=lower, upper=upper, pool=pool)
    log = IterationLog(par.size) if opts.loginfo else None
    try:
        return _minimize(evaluator, par, opts, lower, upper, log)
    finally:
        if own_pool:
            pool.close()


def _minimize(ev, par, opts, lower, upper, log):
    method = opts.method

    if ev.mode != ANALYTIC and np.any(lower == upper):
        # a fixed coordinate leaves no room for any difference stencil
        value = ev.objective_value(par)
        return OptimResult(par=par, value=value, counts=ev.counts(),
                           convergence=Convergence.DEGENERATE,
                           message="bounds fix a coordinate, finite differences are degenerate",
                           log=log)

    f, g = ev.value_and_gradient(par)
    if log is not None:
        log.append(par, f, g)

    history = LbfgsHistory(opts.memory_m) if method == LBFGSB else None
    hessian = np.eye(par.size) if method == BFGS else None
    first_update = True
    prev_g = prev_d = None
    steps_since_restart = 0
    prev_drop = None

    code = Convergence.MAXIT_REACHED
    message = f"iteration limit of {opts.maxit} reached"

    iters = 0
    while iters < opts.maxit:
        pg = projected_gradient(par, g, lower, upper)
        pgnorm = float(np.abs(pg).max()) if pg.size else 0.0
        if method == LBFGSB:
            converged_grad = pgnorm <= opts.pgtol
        else:
            converged_grad = pgnorm == 0.0
        if converged_grad:
            code = Convergence.CONVERGED
            message = "projected gradient within tolerance"
            break

        steepest = False
        if method == LBFGSB:
            mask = active_mask(par, g, lower, upper)
            gm = np.where(mask, 0.0, g)
            d = history.direction(gm)
            # also pin free coordinates on a bound face where d points out of
            # the box (active for gradient -d); no step along them is feasible
            d[mask | active_mask(par, -d, lower, upper)] = 0.0
            steepest = len(history) == 0
            if float(np.dot(d, g)) >= 0.0:
                history.reset()
                d = -gm
                steepest = True
        elif method == BFGS:
            d = -(hessian @ g)
            steepest = first_update
            if float(np.dot(d, g)) >= 0.0:
                hessian = np.eye(par.size)
                first_update = True
                d = -g
                steepest = True
        else:
            if steps_since_restart >= par.size:
                prev_g = prev_d = None
                steps_since_restart = 0
            d = cg_direction(g, prev_g, prev_d)
            steepest = prev_g is None

        dphi0 = float(np.dot(d, g))
        if dphi0 >= 0.0:
            code = Convergence.LINE_SEARCH_FAILURE
            message = "no descent direction available"
            break

        if method == CG and prev_drop is not None and prev_drop > 0.0:
            initial = 2.02 * prev_drop / (-dphi0)
            if not np.isfinite(initial) or initial <= 0.0:
                initial = 1.0
            initial = min(1.0, initial)
        elif steepest:
            dinf = float(np.abs(d).max())
            initial = min(1.0, 1.0 / dinf) if dinf > 0.0 else 1.0
        else:
            initial = 1.0

        c2 = 0.1 if method == CG else 0.9
        try:
            ls = wolfe_line_search(ev, par, f, g, d, lower, upper,
                                   c2=c2, initial_step=initial)
        except LineSearchFailure as exc:
            if method == LBFGSB and len(history) > 0:
                # as L-BFGS-B does: refresh the memory and retry from the
                # same point along projected steepest descent
                history.reset()
                continue
            if exc.best is not None and exc.best[1] < f:
                par, f, g = exc.best
                if log is not None:
                    log.append(par, f, g)
            code = Convergence.LINE_SEARCH_FAILURE
            message = f"line search failed: {exc}"
            break

        iters += 1
        if log is not None:
            log.append(ls.par, ls.value, ls.gradient)

        s = ls.par - par
        y = ls.gradient - g
        if method == LBFGSB:
            history.update(s, y)
        elif method == BFGS:
            if bool(np.dot(s, y) > 0.0):
                hessian = bfgs_update(hessian, s, y, first=first_update)
                first_update = False
        else:
            prev_g, prev_d = g, d
            steps_since_restart += 1

        f_prev = f
        par, f, g = ls.par, ls.value, ls.gradient
        prev_drop = f_prev - f

        if method == LBFGSB:
            if f_prev - f <= opts.factr * MACHINE_EPS * max(abs(f_prev), abs(f), 1.0):
                code = Convergence.CONVERGED
                message = "relative function reduction within factr tolerance"
                break
        else:
            if f_prev - f <= opts.reltol * (abs(f) + opts.reltol):
                code = Convergence.CONVERGED
                message = "relative function reduction within reltol"
                break

    return OptimResult(par=par, value=f, counts=ev.counts(),
                       convergence=code, message=message, log=log)
