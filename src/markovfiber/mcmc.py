"""Metropolis walk over a fiber.

Proposal: a move z from the basis's sampler (uniform over an enumerated
basis, drawn in batches by a lazy one), uniform sign s; x' = x + s z.  The
sampler's store holds every move's coefficients in both signs, so the sign
picks one of two byte arrays and nothing is multiplied or negated per step.
A negative cell means the chain stays put (the stay still yields a sample);
otherwise accept with probability min(1, prod x! / prod x'!), evaluated in
log-factorial space.  The stationary law is the conditional distribution
proportional to 1/prod x_ij! on the fiber of the starting table: the
model's parameter terms are functions of the sufficient statistic alone, so
they cancel from every ratio once t is fixed.

The walk counts accepts and rejects; stays are the rest of the steps.  No
statistic is evaluated per step.  An accept applies the move to x and
copies the move's cells, signed coefficients and step number to typed
buffers: the entries, not the move's index, since a lazy sampler refills
its store in place.  A window of steps ends after at most ``PIECE`` steps,
at every ``RESYNC_EVERY``-th accept and at the chain's end, whatever the
audit cadence; there the tracker values the window's moves in one call,
and the window's kept steps take their values from those in one numpy
lookup.  So a long thinned chain holds its samples and buffers of at most
``PIECE`` accepted moves, not a value per step.

Statistics are streamed through a tracker; ``fit.as_tracker`` states the
contract and adapts a function of the table.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .fit import PV_TOL, as_tracker
from .tables import Configuration, MarkovFiberError, Table, TableError

__all__ = [
    "ChainError",
    "ChainConfig",
    "ChainResult",
    "walk",
    "run_chains",
    "estimate_pvalue",
    "pooled_pvalue",
]

# accepts between two full recomputations of a tracker's value
RESYNC_EVERY = 4096
# steps in a window of the walk, at most: its buffers hold the accepted
# moves of at most this many steps (about 130 kB with eight-cell moves),
# whatever the chain's length
PIECE = 4096
# the most a proposal adds to one cell: a stored coefficient is +-1 or +-2
# (Type IV slots merged where its cells coincide; ``moves`` codes it as
# flat * 5 + coef + 2)
MOVE_REACH = 2
# the most log-factorials a chain lists (about 2 MB of floats): the walk
# takes ``math.lgamma`` of a larger count on the step that reaches it
LF_TABLE = 1 << 16


class ChainError(MarkovFiberError, ValueError):
    """Raised for a walk that cannot run or be summed up: a bad chain
    configuration, a statistic that is not finite, no samples or no chains."""


@dataclass(frozen=True)
class ChainConfig:
    steps: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    proposal: object = None
    check_every: int = 1000  # fiber-invariant audit cadence in steps; 0: no audit

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ChainError("steps must be positive")
        if not (0 <= self.burn_in < self.steps):
            raise ChainError("need 0 <= burn_in < steps")
        if self.thin < 1:
            raise ChainError("thin must be >= 1")
        if self.check_every < 0:
            raise ChainError("check_every must be >= 0; 0 turns the audit off")
        if self.proposal is None:
            raise ChainError("a proposal basis is required")


@dataclass(frozen=True)
class ChainResult:
    samples: np.ndarray = field(repr=False)
    accept_count: int
    stay_count: int
    reject_count: int
    observed: float
    pvalue: float
    seed: int
    steps: int

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.steps


def walk(start: Table, cfg_matrix: Configuration, chain: ChainConfig, statistic) -> ChainResult:
    """Run one chain and return its thinned post-burn-in statistic stream.

    Every visited state satisfies A x = t (audited every ``check_every``
    steps).  Stays and rejections both contribute the current state as a
    sample, so the chain is counted per step; the stays are the steps that
    neither accept nor reject.  The sign's draw picks the store's
    coefficients or their negation (``neg``).  The steps run in
    windows of at most ``PIECE``; an accept records the move, and at the
    window's end the tracker values the recorded moves in one call and the
    window's kept steps are copied to the samples.

    ``statistic`` is anything ``fit.as_tracker`` takes.  A value that is
    not finite raises ``ChainError`` naming the step of its move.
    """
    import random as _random

    basis = chain.proposal
    R, C = start.R, start.C
    if (basis.R, basis.C) != (R, C):
        raise TableError("proposal basis grid does not match the table")
    rng = _random.Random(chain.seed)
    tracker = as_tracker(statistic, R, C)

    x = [int(v) for v in start.vec()]
    t0 = cfg_matrix.apply(start.vec())
    A = cfg_matrix.matrix.astype(np.int64)
    # log-factorials of every count a proposal can reach (a state's cell is
    # at most its row's and its column's sum, a proposal adds MOVE_REACH at
    # most), but no more than LF_TABLE; a count past them is an IndexError
    counts = start.counts
    top = int(np.minimum.outer(counts.sum(axis=1), counts.sum(axis=0)).max())
    lf = [math.lgamma(n + 1) for n in range(min(top + MOVE_REACH + 1, LF_TABLE))]

    cur = tracker.start(x)
    if not math.isfinite(cur):
        raise ChainError(f"statistic is not finite at the starting table: {cur}")
    observed = cur

    draw, (off, flat, coef, _, neg) = basis.sampler(rng)

    steps, burn, thin, check_every = chain.steps, chain.burn_in, chain.thin, chain.check_every
    n_keep = (steps - burn + thin - 1) // thin
    try:
        samples = np.empty(n_keep, dtype=np.float64)
    except (ValueError, MemoryError):
        raise ChainError(f"cannot hold the chain's {n_keep} kept samples; "
                         "raise thin or lower steps") from None
    n_samp = 0
    keep = burn  # the next step whose value is a sample
    # the accepted moves of the open window: their entries' cells and signed
    # coefficients, entries per move, and steps
    cells, coefs, sizes, at = array(flat.typecode), array("b"), array("b"), array("q")

    def close(last: int) -> None:
        """Value the window's moves and copy its kept steps, up to last-1,
        to the samples."""
        nonlocal cur, n_samp, keep
        if at:
            ends = np.cumsum(np.array(sizes), dtype=np.intp)
            values = np.asarray(tracker.values_after(np.array(cells), np.array(coefs), ends),
                                dtype=np.float64)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                j = bad[0]
                raise ChainError(f"statistic became non-finite at step {at[j]}: "
                                 f"{float(values[j])}")
        if keep < last:
            kept = np.arange(keep, last, thin)
            into = samples[n_samp:n_samp + len(kept)]
            if at:
                # a step's value is that after the last accept at or before it
                moved = np.searchsorted(np.array(at), kept, side="right")
                np.take(np.concatenate(([cur], values)), moved, out=into)
            else:
                into[:] = cur
            n_samp += len(kept)
            keep += len(kept) * thin
        if at:
            cur = float(values[-1])
            del cells[:], coefs[:], sizes[:], at[:]

    accepts = rejects = 0
    resync = RESYNC_EVERY  # the accept count of the next resync
    audit = check_every or steps + 1  # the step count of the next fiber audit
    rnd = rng.random
    exp = math.exp

    done = win = 0  # steps run, and the first step of the open window
    while done < steps:
        for i in range(done, min(win + PIECE, steps, audit)):
            k = draw()
            lo, hi = off[k], off[k + 1]
            cf = coef if rnd() < 0.5 else neg

            lr = 0.0
            p = lo
            while p < hi:
                xv = x[flat[p]]
                nv = xv + cf[p]
                if nv < 0:  # a stay
                    break
                try:
                    lr += lf[xv] - lf[nv]
                except IndexError:
                    lr += math.lgamma(xv + 1) - math.lgamma(nv + 1)
                p += 1
            else:
                if lr >= 0.0 or rnd() < exp(lr):
                    fl = flat[lo:hi]
                    co = cf[lo:hi]
                    for f, c in zip(fl, co):
                        x[f] += c
                    cells += fl
                    coefs += co
                    sizes.append(hi - lo)
                    at.append(i)
                    accepts += 1
                    if accepts == resync:
                        break
                else:
                    rejects += 1
        done = i + 1
        if done == audit:
            now = A @ np.asarray(x, dtype=np.int64)
            if not np.array_equal(now, t0):
                close(done)  # a value that went non-finite earlier raises first
                raise AssertionError(f"fiber invariant broken at step {i}")
            audit += check_every
        if accepts == resync or done == win + PIECE or done == steps:
            close(done)
            win = done
            if accepts == resync:
                tracker.start(x)
                resync += RESYNC_EVERY

    assert n_samp == len(samples)
    return ChainResult(
        samples=samples,
        accept_count=accepts,
        stay_count=steps - accepts - rejects,
        reject_count=rejects,
        observed=observed,
        pvalue=estimate_pvalue(samples, observed),
        seed=chain.seed,
        steps=chain.steps,
    )


def estimate_pvalue(samples, observed: float) -> float:
    """Add-one Monte Carlo estimator: (#{sample >= observed - PV_TOL} + 1) / (n + 1)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ChainError("need at least one sample")
    n_ge = int((arr >= observed - PV_TOL).sum())
    return (n_ge + 1) / (arr.size + 1)


def run_chains(start: Table, cfg_matrix: Configuration, chain: ChainConfig,
               statistic, n_chains: int = 1) -> list[ChainResult]:
    """k independent chains seeded seed+0 .. seed+k-1, run one after another
    in the calling thread (threads only slow a walk that holds the GIL).

    Every chain gets the same statistic, and each chain's result is that of
    a freshly built tracker (``fit.as_tracker`` says why).
    """
    if n_chains < 1:
        raise ChainError("n_chains must be >= 1")
    return [walk(start, cfg_matrix, replace(chain, seed=chain.seed + k), statistic)
            for k in range(n_chains)]


def pooled_pvalue(results: list[ChainResult]) -> tuple[float, float]:
    """Pooled p-value (mean over chains) and a Monte Carlo standard error:
    between-chain spread for k >= 2, twenty-batch means within the single
    chain otherwise."""
    k = len(results)
    if k == 0:
        raise ChainError("no chains")
    ps = [r.pvalue for r in results]
    p = float(np.mean(ps))
    if k >= 2:
        se = float(np.std(ps, ddof=1) / math.sqrt(k))
        return p, se
    r = results[0]
    ind = r.samples >= r.observed - PV_TOL
    n_batches = min(20, ind.size)
    if n_batches < 2:
        return p, float("nan")
    # exact counts over views of the boolean indicator: no float copy of it
    # (nor the int64 one that np.add.reduceat with an int64 dtype makes)
    means = np.array([np.count_nonzero(b) / len(b) for b in np.array_split(ind, n_batches)])
    se = float(np.std(means, ddof=1) / math.sqrt(n_batches))
    return p, se
