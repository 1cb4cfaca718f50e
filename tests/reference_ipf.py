"""Iterative proportional fitting, group by group: the oracle for the
package's maximum-likelihood fit.

This is plain cyclic scaling (Deming & Stephan 1940): one constraint group
at a time, in configuration-row order, with a fancy-indexed sum and multiply
per group and a per-group discrepancy.  It converges to the same MLE as the
package's Newton fitter by an entirely different route, so agreement of the
two fitted means is a check of both.  It is kept only as a test oracle.
"""

import math

import numpy as np

from markovfiber import models as _models
from markovfiber.fit import FitError, FitResult
from markovfiber.models import build_configuration


def constraint_groups(model, R, C):
    """Flat cell indices per constraint group, one per row of the model's
    configuration: rows, columns, subtable terms."""
    return [np.flatnonzero(row) for row in build_configuration(model, R, C).matrix]


def reference_core(n_cells, groups, targets, tol, max_iter, total, x_flat=None):
    """Cyclic proportional scaling toward the group targets, from the
    uniform table; asserts the Poisson log-likelihood ascends when
    ``x_flat`` is given."""
    m = np.full(n_cells, total / n_cells if total > 0 else 0.0, dtype=np.float64)

    pos_x = None
    last_ll = -math.inf
    if x_flat is not None:
        pos_x = [(p, float(v)) for p, v in enumerate(x_flat) if v > 0]

    disc = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        for g, tau in zip(groups, targets):
            s = float(m[g].sum())
            if tau == 0.0:
                if s != 0.0:
                    m[g] = 0.0
                continue
            if s == 0.0:
                raise FitError("scaling group pinned to zero but its target is positive")
            m[g] *= tau / s
        disc = 0.0
        for g, tau in zip(groups, targets):
            d = abs(float(m[g].sum()) - tau)
            if d > disc:
                disc = d
        if pos_x is not None:
            ll = sum(v * math.log(m[p]) for p, v in pos_x) - float(m.sum())
            assert ll >= last_ll - 1e-9, f"log-likelihood decreased: {last_ll} -> {ll}"
            last_ll = ll
        if disc <= tol:
            return FitResult(m, it, disc, True)
    return FitResult(m, it, disc, False)


def reference_fit(table, model, tol=1e-10, max_iter=10_000):
    """A fit of ``table`` under ``model`` by the group-by-group core."""
    R, C = table.R, table.C
    _models.require_valid(model, R, C)
    x = table.vec().astype(np.float64)
    groups = constraint_groups(model, R, C)
    targets = [float(x[g].sum()) for g in groups]
    res = reference_core(R * C, groups, targets, tol, max_iter, float(x.sum()), x_flat=x)
    return FitResult(res.expected.reshape(R, C), res.iterations,
                     res.max_discrepancy, res.converged)
