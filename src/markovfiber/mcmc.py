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

Statistics are streamed through a tracker, an object with two methods (see
fit.py): ``start(x)`` returns the statistic at the flat state x and resets
the tracker's per-chain state; ``values_after(cells, coefs, ends)`` takes
the moves accepted since, in order, and returns a float array of the value
after each, leaving the tracker at the last state.  Move j is the entries
``ends[j - 1]:ends[j]`` (from 0 for the first) of the integer arrays
``cells`` and ``coefs``, its flat cells and signed coefficients; a cell
appears at most once per move, there is at least one move, and the arrays
are valid only during the call.  After every ``RESYNC_EVERY``-th accept
the walk calls ``start`` on the current state, so float drift in the
increments cannot build up; the sample at that step is still the
incremental value.
A tracker with ``value_after(x, flats, coefs)`` in place of the batched
method (called once per move, on the state after it) is adapted: the
adapter replays the moves on its own copy of the state.  Plain callables
work too and are wrapped.  A plain callable must be a pure function of the
table: it is evaluated once per distinct state among the 1,024 most
recently used, keyed by the bytes of the flat int64 cells (about 8*R*C
bytes a key, 1.2 MB in all on a 12x12 grid), and the adapter rebuilds each
window's states with numpy.  Since ``start`` resets the per-chain state,
the chains of ``run_chains``, which run one after another, share one
tracker.
"""

from __future__ import annotations

import math
from array import array
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
# steps in a window of the walk, at most: its buffers hold the accepted
# moves of at most this many steps (about 130 kB with eight-cell moves),
# whatever the chain's length
PIECE = 4096
# the most a proposal adds to one cell: a move has at most eight slots of
# coefficient +-1 (Type IV), merged where its cells coincide
MOVE_REACH = 8
# the most log-factorials a chain lists (about 2 MB of floats): the walk
# takes ``math.lgamma`` of a larger count on the step that reaches it
LF_TABLE = 1 << 16


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
    revisited state reuses the callable's value instead of calling it again.
    A state's key is the bytes of its int64 cells, which numpy gives for a
    whole batch of states at once."""

    # states whose values are kept: a small fiber fits whole, and the keys
    # of a 12x12 grid take about 1.2 MB
    CACHE_SIZE = 1024
    # cells of the states a batch rebuilds at once (128 kB of int64)
    STATE_CELLS = 1 << 14

    def __init__(self, fn, R: int, C: int) -> None:
        self._fn = fn
        self._shape = (R, C)
        self._key = np.dtype((np.void, 8 * R * C))
        self._value = lru_cache(self.CACHE_SIZE)(self._compute)

    def _compute(self, key: bytes) -> float:
        arr = np.frombuffer(key, dtype=np.int64).reshape(self._shape).copy()
        return float(self._fn(arr))

    def start(self, x_flat) -> float:
        self._x = np.array(x_flat, dtype=np.int64)
        return self._value(self._x.tobytes())

    def values_after(self, cells, coefs, ends) -> np.ndarray:
        n_cells = self._x.size
        move = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        out = []
        per = max(1, self.STATE_CELLS // n_cells)  # moves whose states are rebuilt at once
        for lo in range(0, len(ends), per):
            hi = min(lo + per, len(ends))
            first, last = ends[lo - 1] if lo else 0, ends[hi - 1]
            delta = np.zeros((hi - lo, n_cells), dtype=np.int64)
            delta[move[first:last] - lo, cells[first:last]] = coefs[first:last]
            states = np.cumsum(delta, axis=0, out=delta)
            states += self._x
            self._x = states[-1].copy()
            out += map(self._value, states.view(self._key).ravel().tolist())
        return np.array(out)


class _MoveByMove:
    """Adapter for a tracker with ``value_after(x, flats, coefs)``, called
    once per move on the state after it, in place of ``values_after``: the
    adapter replays the moves on its own copy of the state."""

    def __init__(self, tracker) -> None:
        self._tracker = tracker

    def start(self, x_flat) -> float:
        self._x = list(x_flat)
        return self._tracker.start(self._x)

    def values_after(self, cells, coefs, ends) -> np.ndarray:
        x, value_after = self._x, self._tracker.value_after
        # typed copies, a few bytes an entry, whose slices are the integer
        # sequences value_after takes
        cells = array(cells.dtype.char, cells.tobytes())
        coefs = array(coefs.dtype.char, coefs.tobytes())
        out = []
        lo = 0
        for hi in ends.tolist():
            fl, co = cells[lo:hi], coefs[lo:hi]
            for f, c in zip(fl, co):
                x[f] += c
            out.append(value_after(x, fl, co))
            lo = hi
        return np.array(out, dtype=np.float64)


def _as_tracker(statistic, R: int, C: int):
    if hasattr(statistic, "start") and hasattr(statistic, "values_after"):
        return statistic
    if hasattr(statistic, "start") and hasattr(statistic, "value_after"):
        return _MoveByMove(statistic)
    if callable(statistic):
        return _CallableTracker(statistic, R, C)
    raise TypeError("statistic must be callable or implement the tracker protocol")


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

    ``statistic`` is a tracker or a plain callable on the (R, C) table.  A
    tracker's ``values_after`` gets the accepted moves of a window in
    order, as the cells, signed coefficients and end offsets of their
    entries (numpy integer arrays valid only during the call; each cell at
    most once per move), and returns the value after each move; after every
    ``RESYNC_EVERY``-th accept the walk calls ``start`` on the current state
    to reset float drift.  A tracker with a per-move ``value_after(x,
    flats, coefs)`` instead is replayed one move at a time.  A plain
    callable must be a pure function of the table: it is evaluated once per
    distinct state among the 1,024 most recently used (about 8*R*C bytes a
    state, 1.2 MB on 12x12), not once per accepted step.  A value that is
    not finite raises ``ValueError`` naming the step of its move.
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
    # log-factorials of every count a proposal can reach (a state's cell is
    # at most its row's and its column's sum, a proposal adds MOVE_REACH at
    # most), but no more than LF_TABLE; a count past them is an IndexError
    counts = start.counts
    top = int(np.minimum.outer(counts.sum(axis=1), counts.sum(axis=0)).max())
    lf = [math.lgamma(n + 1) for n in range(min(top + MOVE_REACH + 1, LF_TABLE))]

    cur = tracker.start(x)
    if not math.isfinite(cur):
        raise ValueError(f"statistic is not finite at the starting table: {cur}")
    observed = cur

    draw, (off, flat, coef, _, neg) = basis.sampler(rng)

    steps, burn, thin, check_every = chain.steps, chain.burn_in, chain.thin, chain.check_every
    samples = np.empty((steps - burn + thin - 1) // thin, dtype=np.float64)
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
                raise ValueError(f"statistic became non-finite at step {at[j]}: "
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
