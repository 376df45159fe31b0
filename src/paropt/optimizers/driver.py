"""Bound-constrained minimization loop shared by all methods.

One iteration = one accepted line-search step.  Every objective/gradient
evaluation, including line-search trials and finite-difference stencils,
goes through a single coupled evaluator, so evaluation counts follow the
batch laws exactly and parallel execution never changes the arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..evaluator import ANALYTIC, CoupledEvaluator
from ..iterlog import IterationLog
from ..stencil import as_parameter_vector
from .directions import LbfgsHistory, bfgs_update, cg_direction
from .linesearch import LineSearchFailure, wolfe_line_search
from .options import (BFGS, CG, LBFGSB, MACHINE_EPS, Convergence, OptimOptions,
                      OptimResult)


def projected_gradient(par, grad, lower, upper):
    """Gradient with infeasible components removed: par - P(par - grad).

    Zero exactly when no feasible descent movement exists, including at
    active bounds, which makes it the stationarity measure for boxes.
    """
    return par - (par - grad).clip(lower, upper)


def active_mask(par, grad, lower, upper):
    """Coordinates pinned at a bound with the descent direction pointing
    outside the box; movement along -grad would leave the feasible set."""
    at_lower = (par <= lower) & (grad > 0.0)
    at_upper = (par >= upper) & (grad < 0.0)
    return at_lower | at_upper


def optimize(objective, par0, gradient=None, *, pool=None,
             **options) -> OptimResult:
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
    pool : object with run_batch(tasks), optional
        Evaluation pool to borrow, such as a WorkerPool: any object whose
        ``run_batch(tasks)`` returns the tasks' results in submission
        order.  When omitted, each batch runs on the calling thread.
    **options
        OptimOptions fields, e.g. ``method="bfgs"``; the rest keep their
        class defaults.

    Returns
    -------
    OptimResult
        Final point, value, evaluation counts, convergence code 0-2,
        message, and the iteration log when ``loginfo`` is set.
    """
    opts = OptimOptions(**options).validated()

    par = as_parameter_vector(par0)
    ev = CoupledEvaluator(objective, par.size, gradient=gradient,
                          scheme=opts.scheme, eps=opts.eps,
                          lower=opts.lower, upper=opts.upper, pool=pool)
    log = IterationLog(par.size) if opts.loginfo else None
    return _minimize(ev, par.clip(ev.lower, ev.upper), opts, log)


def _minimize(ev, par, opts, log):
    method = opts.method
    lower, upper = ev.lower, ev.upper

    f, g = ev.value_and_gradient(par)
    if log is not None:
        log.append(par, f, g)

    drop_memory = True
    prev_drop = 0.0

    code = Convergence.MAXIT_REACHED
    message = f"iteration limit of {opts.maxit} reached"

    iters = 0
    while iters < opts.maxit:
        pg = projected_gradient(par, g, lower, upper)
        if float(np.abs(pg).max()) <= (opts.pgtol if method == LBFGSB else 0.0):
            code = Convergence.CONVERGED
            message = "projected gradient within tolerance"
            break

        if drop_memory or (method == CG and steps_since_restart >= par.size):
            # each method's curvature memory: the L-BFGS pairs, the BFGS
            # inverse Hessian (None is the unscaled identity), or CG's
            # previous gradient and direction
            history = LbfgsHistory(opts.memory_m)
            hessian = prev_g = prev_d = None
            steps_since_restart = 0
            drop_memory = False
        steepest = len(history) == 0 and hessian is None and prev_d is None

        if method == LBFGSB and not ev.has_box:
            d = history.direction(g)  # plain L-BFGS: no bound to pin against
        elif method == LBFGSB:
            mask = active_mask(par, g, lower, upper)
            d = history.direction(np.where(mask, 0.0, g))
            # also pin free coordinates on a bound face where d points out of
            # the box (active for gradient -d); no step along them is feasible
            d[mask | active_mask(par, -d, lower, upper)] = 0.0
        elif method == BFGS:
            d = -g if hessian is None else -(hessian @ g)
        else:
            d = cg_direction(g, prev_g, prev_d)

        dphi0 = float(np.dot(d, g))
        c2 = 0.1 if method == CG else 0.9
        try:
            if not dphi0 < 0.0:
                raise LineSearchFailure("no descent direction available")
            if method == CG and prev_drop > 0.0:
                initial = min(1.0, 2.02 * prev_drop / (-dphi0))
            elif steepest:
                initial = min(1.0, 1.0 / float(np.abs(d).max()))
            else:
                initial = 1.0
            ls = wolfe_line_search(ev, par, f, g, d, c2=c2, initial_step=initial)
        except LineSearchFailure as exc:
            if not steepest:
                # as optim's L-BFGS-B, BFGS and CG do: drop the memory and
                # retry from the same point along projected steepest descent
                drop_memory = True
                continue
            if dphi0 == 0.0:
                # d.g underflows along steepest descent, so no representable
                # step can decrease the objective
                code = Convergence.CONVERGED
                message = "the steepest-descent slope underflows to zero"
            elif exc.rounded and ev.mode != ANALYTIC:
                # the difference gradient's error swamps the slope: no
                # representable step decreases the objective along it
                code = Convergence.CONVERGED
                message = "no decrease along the difference gradient before the step rounds to zero"
            elif exc.rounded and method != LBFGSB:
                # how optim's vmmin and cgmin stop: a steepest step that
                # changes no parameter
                code = Convergence.CONVERGED
                message = "no decrease along steepest descent before the step rounds to zero"
            else:
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
            hessian = bfgs_update(hessian, s, y)
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
