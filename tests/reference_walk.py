"""Step-by-step reference for the Metropolis walk.

This is the plain loop that ``markovfiber.mcmc.walk`` must reproduce byte
for byte: a modulo test per step for the sample and for the fiber audit, a
numpy item write per sample, the move's coefficients multiplied by the
sign on every accept, and the tracker fed the accepted moves between two
resyncs in one call, after which each sample taken since gets the value
after the last accept at or before its step.  The package records the
accepted moves of a window of at most ``PIECE`` steps, has the tracker
value them in one call, copies the window's kept steps to the samples with
one numpy lookup, and takes the sign by picking the stored coefficients or
their negated copy, which changes no random draw, no acceptance decision
and no floating-point operation.  Both draw moves through the basis's
sampler, whose draws ``test_moves`` pins to ``randrange``.  It is kept only
as a test oracle.
"""

import math

import numpy as np

from markovfiber.fit import as_tracker as _as_tracker
from markovfiber.mcmc import (
    LF_TABLE,
    RESYNC_EVERY,
    ChainConfig,
    ChainResult,
    estimate_pvalue,
)
from markovfiber.tables import Configuration, Table


def walk(start: Table, cfg_matrix: Configuration, chain: ChainConfig, statistic) -> ChainResult:
    """Run one chain and return its thinned post-burn-in statistic stream.

    Every visited state satisfies A x = t (audited every ``check_every``
    steps).  Stays and rejections both contribute the current state as a
    sample, so the chain is counted per step.

    ``statistic`` is a tracker or a plain callable on the (R, C) table.  A
    tracker's ``values_after`` gets the accepted moves since the last
    resync, at every ``RESYNC_EVERY``-th accept (then the walk calls
    ``start`` on the current state to reset float drift), at a failed
    audit and at the chain's end.  A plain callable must be a pure
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
    # at most 8 to it (eight slots of +-1) before a later cell goes negative;
    # at most LF_TABLE log-factorials are listed, and a larger count's is
    # lgamma's
    counts = start.counts.tolist()
    col_sums = [sum(col) for col in zip(*counts)]
    top = max(min(sum(row), c) for row in counts for c in col_sums)
    lf = [math.lgamma(n + 1) for n in range(min(top + 8 + 1, LF_TABLE))]

    cur = tracker.start(x)
    if not math.isfinite(cur):
        raise ValueError(f"statistic is not finite at the starting table: {cur}")
    observed = cur

    draw, (off, flat, coef, _, _) = basis.sampler(rng)

    n_keep = (chain.steps - chain.burn_in + chain.thin - 1) // chain.thin
    samples = np.empty(n_keep, dtype=np.float64)
    n_samp = 0
    accepts = stays = rejects = 0
    burn, thin, check_every = chain.burn_in, chain.thin, chain.check_every
    rnd = rng.random
    exp = math.exp
    # the accepted moves not yet valued (their cells, signed coefficients,
    # entry end offsets and steps), and for each sample taken since the
    # first of them, the number of them at or before its step
    cells, coefs, ends, at, since = [], [], [], [], []

    def value_pending():
        """Value the pending moves in one call and fill their samples."""
        nonlocal cur
        values = [cur]
        if ends:
            values += np.asarray(tracker.values_after(np.array(cells), np.array(coefs),
                                                      np.array(ends)), dtype=np.float64).tolist()
            for step, value in zip(at, values[1:]):
                if not math.isfinite(value):
                    raise ValueError(f"statistic became non-finite at step {step}: {value}")
        for k, j in enumerate(since):
            samples[n_samp - len(since) + k] = values[j]
        cur = values[-1]
        del cells[:], coefs[:], ends[:], at[:], since[:]

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
            lr += (lf[xv] if xv < len(lf) else math.lgamma(xv + 1)) - (
                lf[nv] if nv < len(lf) else math.lgamma(nv + 1))
            p += 1

        if not ok:
            stays += 1
        elif lr >= 0.0 or rnd() < exp(lr):
            fl = flat[lo:hi]
            co = [s * c for c in coef[lo:hi]]
            for f, c in zip(fl, co):
                x[f] += c
            cells.extend(fl)
            coefs.extend(co)
            ends.append(len(cells))
            at.append(step)
            accepts += 1
        else:
            rejects += 1

        if step >= burn and (step - burn) % thin == 0:
            since.append(len(ends))
            n_samp += 1
        if ends and accepts % RESYNC_EVERY == 0:  # this step's accept was the resync's
            value_pending()
            tracker.start(x)
        if check_every and (step + 1) % check_every == 0:
            now = A @ np.asarray(x, dtype=np.int64)
            if not np.array_equal(now, t0):
                value_pending()  # a value that went non-finite earlier raises first
                raise AssertionError(f"fiber invariant broken at step {step}")
    value_pending()

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
