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

The walk counts accepts and rejects; stays are the rest of the steps.  Each
step's value goes to a buffer of at most ``PIECE`` steps, an audit block or
a piece of one, and the kept steps of each piece are copied to the samples
in one numpy slice, so a long thinned chain holds its samples and 32 kB,
not a value per step.

Statistics are streamed through a tracker, an object with two methods (see
fit.py): ``start(x)`` returns the statistic at x and resets the tracker's
per-chain state; ``value_after(x, flats, coefs)`` is called once per
accepted move, on the state after the move, and returns the new value from
the few cells the move changed.  ``flats`` and ``coefs`` are integer
sequences, possibly slices of the basis's arrays, valid only during the
call, and a cell appears at most once per move.  Every ``RESYNC_EVERY``
accepts the walk calls ``start`` on the current state, so float drift in
the increments cannot build up; the sample at that step is still the
incremental value.
Plain callables work too and are wrapped.  A plain callable must be a pure
function of the table: it is evaluated once per distinct state among the
1,024 most recently used, keyed by the tuple of the flat cells (about
8*R*C bytes a key, 1.2 MB in all on a 12x12 grid).  Since ``start`` resets
the per-chain state, the chains of ``run_chains``, which run one after
another, share one tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .tables import Configuration, Table

__all__ = [
    "ChainConfig",
    "ChainResult",
    "walk",
    "run_chains",
    "estimate_pvalue",
    "pooled_pvalue",
]

# the tie rule of every p-value, chain and exact: a value counts as at
# least the observed one within PV_TOL
PV_TOL = 1e-12
# accepts between two full recomputations of a tracker's value
RESYNC_EVERY = 4096
# steps whose values the walk buffers before it copies the kept ones to the
# samples: 32 kB, whatever the chain's length
PIECE = 4096


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
            raise ValueError("steps must be positive")
        if not (0 <= self.burn_in < self.steps):
            raise ValueError("need 0 <= burn_in < steps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.check_every < 0:
            raise ValueError("check_every must be >= 0; 0 turns the audit off")
        if self.proposal is None:
            raise ValueError("a proposal basis is required")


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


class _CallableTracker:
    """Adapter giving a plain statistic callable the tracker interface; a
    revisited state reuses the callable's value instead of calling it again."""

    # states whose values are kept: a small fiber fits whole, and the keys
    # of a 12x12 grid take about 1.2 MB
    CACHE_SIZE = 1024

    def __init__(self, fn, R: int, C: int) -> None:
        self._fn = fn
        self._shape = (R, C)
        self._value = lru_cache(self.CACHE_SIZE)(self._compute)

    def _compute(self, key: tuple[int, ...]) -> float:
        arr = np.asarray(key, dtype=np.int64).reshape(self._shape)
        return float(self._fn(arr))

    def start(self, x_flat) -> float:
        return self._value(tuple(x_flat))

    def value_after(self, x_flat, flats, coefs) -> float:
        return self._value(tuple(x_flat))


def _as_tracker(statistic, R: int, C: int):
    if hasattr(statistic, "start") and hasattr(statistic, "value_after"):
        return statistic
    if callable(statistic):
        return _CallableTracker(statistic, R, C)
    raise TypeError("statistic must be callable or implement the tracker protocol")


def walk(start: Table, cfg_matrix: Configuration, chain: ChainConfig, statistic) -> ChainResult:
    """Run one chain and return its thinned post-burn-in statistic stream.

    Every visited state satisfies A x = t (audited every ``check_every``
    steps).  Stays and rejections both contribute the current state as a
    sample, so the chain is counted per step; the stays are the steps that
    neither accept nor reject.  The sign's draw picks the store's
    coefficients or their negation (``store.neg``), and each step writes
    its value to a buffer of at most ``PIECE`` steps whose kept steps are
    copied to the samples a piece at a time.

    ``statistic`` is a tracker or a plain callable on the (R, C) table.  A
    tracker's ``value_after`` sees each accepted state once, after the move
    is applied, with the move's cells and signed coefficients as integer
    sequences (possibly slices of the basis's arrays, valid only during the
    call; each cell at most once); every ``RESYNC_EVERY`` accepts the walk
    calls ``start`` on the current state to reset float drift.  A plain
    callable must be a pure function of the table: it is evaluated once per
    distinct state among the 1,024 most recently used (about 8*R*C bytes a
    state, 1.2 MB on 12x12), not once per accepted step.
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
    total = sum(x)
    lf = [math.lgamma(n + 1) for n in range(total + 1)]

    cur = tracker.start(x)
    if not math.isfinite(cur):
        raise ValueError(f"statistic is not finite at the starting table: {cur}")
    observed = cur

    draw, store = basis.sampler(rng)
    off, flat, coef, _ = store
    neg = store.neg

    steps, burn, thin, check_every = chain.steps, chain.burn_in, chain.thin, chain.check_every
    samples = np.empty((steps - burn + thin - 1) // thin, dtype=np.float64)
    n_samp = 0
    keep = burn  # the next step whose value is a sample
    piece = min(check_every or PIECE, PIECE, steps)
    values = np.empty(piece, dtype=np.float64)
    out = memoryview(values)  # a float write without numpy's item assignment
    accepts = rejects = 0
    resync = RESYNC_EVERY  # the accept count of the next resync
    rnd = rng.random
    exp = math.exp
    isfinite = math.isfinite
    value_after = tracker.value_after

    # blocks of check_every steps, each full one followed by the fiber
    # audit; check_every = 0 runs every step in one block, unaudited
    block = check_every or steps
    for begin in range(0, steps, block):
        end = min(begin + block, steps)
        for first in range(begin, end, piece):
            n = min(piece, end - first)
            for i in range(n):
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
                    lr += lf[xv] - lf[nv]
                    p += 1
                else:
                    if lr >= 0.0 or rnd() < exp(lr):
                        fl = flat[lo:hi]
                        co = cf[lo:hi]
                        for f, c in zip(fl, co):
                            x[f] += c
                        cur = value_after(x, fl, co)
                        if not isfinite(cur):
                            raise ValueError(f"statistic became non-finite at step "
                                             f"{first + i}: {cur}")
                        accepts += 1
                        if accepts == resync:
                            tracker.start(x)
                            resync += RESYNC_EVERY
                    else:
                        rejects += 1
                out[i] = cur
            if keep < first + n:
                kept = values[keep - first:n:thin]
                samples[n_samp:n_samp + len(kept)] = kept
                n_samp += len(kept)
                keep += len(kept) * thin
        if end - begin == check_every:
            now = A @ np.asarray(x, dtype=np.int64)
            if not np.array_equal(now, t0):
                raise AssertionError(f"fiber invariant broken at step {end - 1}")

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
        raise ValueError("need at least one sample")
    n_ge = int((arr >= observed - PV_TOL).sum())
    return (n_ge + 1) / (arr.size + 1)


def run_chains(start: Table, cfg_matrix: Configuration, chain: ChainConfig,
               statistic, n_chains: int = 1) -> list[ChainResult]:
    """k independent chains seeded seed+0 .. seed+k-1, run one after another
    in the calling thread (threads only slow a walk that holds the GIL).

    Every chain gets the same statistic: ``walk`` calls ``start`` at the
    beginning of each chain, which resets the tracker's per-chain state, and
    what a tracker keeps across chains (the LLR refit cache) depends only on
    the fiber, so each chain's result is that of a freshly built tracker.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    return [walk(start, cfg_matrix, replace(chain, seed=chain.seed + k), statistic)
            for k in range(n_chains)]


def pooled_pvalue(results: list[ChainResult]) -> tuple[float, float]:
    """Pooled p-value (mean over chains) and a Monte Carlo standard error:
    between-chain spread for k >= 2, twenty-batch means within the single
    chain otherwise."""
    k = len(results)
    if k == 0:
        raise ValueError("no chains")
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
