"""Step-by-step reference for the Metropolis walk.

This is the plain loop that ``markovfiber.mcmc.walk`` must reproduce byte
for byte: a modulo test per step for the sample and for the fiber audit, a
numpy item write per sample, the move's coefficients multiplied by the
sign on every accept, and the tracker fed one move per accept.  The
package records the accepted moves of a window of steps, has the tracker
value them in one call, copies the window's kept steps to the samples with
one numpy lookup, and takes the sign by picking the stored coefficients or
their negated copy, which changes no random draw, no acceptance decision
and no floating-point operation.  Both draw moves through the basis's
sampler, whose draws ``test_moves`` pins to ``randrange``.  It is kept only
as a test oracle.
"""

import math

import numpy as np

from markovfiber.mcmc import RESYNC_EVERY, ChainConfig, ChainResult, _as_tracker, estimate_pvalue
from markovfiber.tables import Configuration, Table


def walk(start: Table, cfg_matrix: Configuration, chain: ChainConfig, statistic) -> ChainResult:
    """Run one chain and return its thinned post-burn-in statistic stream.

    Every visited state satisfies A x = t (audited every ``check_every``
    steps).  Stays and rejections both contribute the current state as a
    sample, so the chain is counted per step.

    ``statistic`` is a tracker or a plain callable on the (R, C) table.  A
    tracker's ``values_after`` gets each accepted move alone, once; every ``RESYNC_EVERY`` accepts the walk calls ``start`` on
    the current state to reset float drift.  A plain callable must be a pure
    function of the table: it is evaluated once per distinct state among the
    1,024 most recently used (about 8*R*C bytes a state, 1.2 MB on 12x12),
    not once per accepted step.
    """
    import random as _random

    basis = chain.proposal
    R, C = start.R, start.C
    if (basis.R, basis.C) != (R, C):
        raise ValueError("proposal basis grid does not match the table")
    rng = _random.Random(chain.seed)
    tracker = _as_tracker(statistic, R, C)

    x = [int(v) for v in start.vec()]
    t0 = cfg_matrix.apply(start.vec())
    A = cfg_matrix.matrix.astype(np.int64)
    # a cell is at most its row's and its column's sum, and a proposal adds
    # at most 8 to it (eight slots of +-1) before a later cell goes negative
    counts = start.counts.tolist()
    col_sums = [sum(col) for col in zip(*counts)]
    top = max(min(sum(row), c) for row in counts for c in col_sums)
    lf = [math.lgamma(n + 1) for n in range(top + 8 + 1)]

    cur = tracker.start(x)
    if not math.isfinite(cur):
        raise ValueError(f"statistic is not finite at the starting table: {cur}")
    observed = cur

    draw, (off, flat, coef, _) = basis.sampler(rng)

    n_keep = (chain.steps - chain.burn_in + chain.thin - 1) // chain.thin
    samples = np.empty(n_keep, dtype=np.float64)
    n_samp = 0
    accepts = stays = rejects = 0
    burn, thin, check_every = chain.burn_in, chain.thin, chain.check_every
    rnd = rng.random
    exp = math.exp

    for step in range(chain.steps):
        k = draw()
        lo, hi = off[k], off[k + 1]
        s = 1 if rnd() < 0.5 else -1

        lr = 0.0
        ok = True
        p = lo
        while p < hi:
            f, c = flat[p], s * coef[p]
            xv = x[f]
            nv = xv + c
            if nv < 0:
                ok = False
                break
            lr += lf[xv] - lf[nv]
            p += 1

        if not ok:
            stays += 1
        elif lr >= 0.0 or rnd() < exp(lr):
            fl = flat[lo:hi]
            co = [s * c for c in coef[lo:hi]]
            for f, c in zip(fl, co):
                x[f] += c
            cur = float(tracker.values_after(np.array(fl), np.array(co),
                                             np.array([len(fl)]))[0])
            if not math.isfinite(cur):
                raise ValueError(f"statistic became non-finite at step {step}: {cur}")
            accepts += 1
            if accepts % RESYNC_EVERY == 0:
                tracker.start(x)
        else:
            rejects += 1

        if step >= burn and (step - burn) % thin == 0:
            samples[n_samp] = cur
            n_samp += 1
        if check_every and (step + 1) % check_every == 0:
            now = A @ np.asarray(x, dtype=np.int64)
            if not np.array_equal(now, t0):
                raise AssertionError(f"fiber invariant broken at step {step}")

    assert n_samp == n_keep
    return ChainResult(
        samples=samples,
        accept_count=accepts,
        stay_count=stays,
        reject_count=rejects,
        observed=observed,
        pvalue=estimate_pvalue(samples, observed),
        seed=chain.seed,
        steps=chain.steps,
    )
