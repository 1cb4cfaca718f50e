"""Maximum-likelihood fitting by Newton's method, and the test statistics
evaluated on fiber samples.

A model's configuration A maps a table x to its sufficient statistic
t = A x.  The fit maximizes the Poisson log-likelihood t . theta - sum m
over log-means log m = log m0 + c + A_S^T theta, where m0 is a start whose
logs lie in the row space of A (the uniform table) and S an exactly
independent subset of the positive-target rows, picked by exact
elimination on the integer Gram matrix A A^T.  The Hessian
A_S diag(m) A_S^T is then nonsingular, and each step is one small linear
solve (Haberman, *The Analysis of Frequency Data*, 1974).  A step is halved
until the objective does not fall beyond its rounding; the objective is
concave, so this converges from any start, and it reaches an MLE on the
boundary of the model (a cell whose mean tends to 0) as a limit (Fienberg
& Rinaldo, *Ann. Statist.* 2012).  A fit has converged when
max |A m - t| <= tol, or, where tol lies below the rounding of sums above
about 1e6, when it is within a few ulps of the largest sum.

The fitted means depend on a table only through t, so the null fit is a
single constant table on the whole fiber.  The kernel sum x log m does
too: sum x log(m / m0) = N c + t_S . theta for every table with sums t.
The nested likelihood-ratio statistic 2 sum x log(m2/m1) is the gain of
the outer kernel over the inner one, 2 (l_outer(b) - l_inner), which the
outer fit started from the inner fit m1 returns directly: one number per
vector b of the outer model's term sums (the diagonal block sums on block
models), computed from the vector alone and cached, which is what makes
million-step sampling runs affordable.  The observed table's value is the
same function at the table's own vector, so ``llr_nested`` is
``LLRTracker(...).observed``.

A statistic reaches the walk and the fiber oracle through ``as_tracker``,
which states the tracker contract and adapts what is not a tracker.

Conventions: 0 * log(0/anything) := 0 by continuity; a row with target 0
pins its cells to exactly 0 and leaves the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import models as _models
from .tables import MarkovFiberError, Table, TableError, independent_rows

__all__ = [
    "FitResult",
    "FitError",
    "TrackerError",
    "ipf_fit",
    "chi_square",
    "g_square",
    "llr_nested",
    "ChiSquareTracker",
    "GSquareTracker",
    "LLRTracker",
    "make_tracker",
    "as_tracker",
]

_EPS = float(np.finfo(np.float64).eps)
# Newton steps a fit may take before it reports itself unconverged
MAX_ITER = 10_000
# the statistics ``make_tracker`` builds, by the names the CLI takes
STATS = ("chi2", "g2", "llr")
# the tie rule of every p-value, chain and exact: a value counts as at
# least the observed one within PV_TOL
PV_TOL = 1e-12


class FitError(MarkovFiberError, ValueError):
    """Raised when a fit or a statistic cannot be made: a bad tolerance, a
    fit that does not converge, models not nested, an unknown statistic."""


class TrackerError(MarkovFiberError, TypeError):
    """Raised for a statistic that is neither a tracker nor a callable."""


@dataclass(frozen=True)
class FitResult:
    expected: np.ndarray
    iterations: int
    max_discrepancy: float
    converged: bool


class _Support:
    """What a fit of configuration ``A`` needs for one pattern of zero
    targets: the live cells (those in no zero-target row), the columns of A
    on them, and an exactly independent subset S of the positive-target
    rows on them, ``B`` = A_S restricted to the live cells."""

    def __init__(self, A: np.ndarray, zero: np.ndarray) -> None:
        self.n_cells = A.shape[1]
        self.live = np.flatnonzero(~A[zero].any(axis=0))
        # the layout fixes the order of the products' sums, so their floats
        self.A = A[:, self.live].astype(np.float64, order="C")
        pos = np.flatnonzero(~zero)
        B = A[np.ix_(pos, self.live)]
        if not B.any(axis=1).all():
            raise FitError("a row with a positive target has every cell pinned to zero")
        independent = independent_rows(B)
        self.rows = pos[independent]
        self.B = B[independent].astype(np.float64)


def _newton(sup: _Support, t: np.ndarray, total: float, tol: float,
            start: np.ndarray | None = None) -> tuple[FitResult, float]:
    """Newton's method for the Poisson log-likelihood with sums ``t`` and
    grand total ``total``, from the uniform table on the live cells or from
    the means ``start`` on them, whose logs lie in the row space of A.

    The means are m = start * exp(c + A_S^T theta) on the live cells, 0
    elsewhere.  A step in theta is halved until the objective
    t_S . theta - sum m does not fall by more than the rounding of its
    sums, so it never decreases beyond rounding across accepted steps.  The
    accepted table is then scaled to the grand total (c moves), which is
    the optimum along the constant direction, so sum m = N holds
    throughout, as at the MLE.

    Returns the fit, with the flat means and ``iterations`` counting Newton
    steps, and the kernel's gain over the start, sum x log(m / start)
    = N c + t_S . theta, the same for every table x with sums t.  The fit
    has converged when max |A m - t| <= max(tol, 4 eps max t).
    """
    m = np.zeros(sup.n_cells)
    n, k = len(sup.live), len(sup.rows)
    if n == 0:  # every target is 0
        return FitResult(m, 0, 0.0, True), 0.0
    if start is None:
        start = np.full(n, total / n)
    # sums above about 1e6 have no float within tol of their targets: a few
    # ulps of the largest is as close as their rounding lets a fit come
    reach = max(tol, 4 * _EPS * float(t.max()))
    t_s = t[sup.rows]
    c = 0.0
    theta = np.zeros(k)
    m_live = start
    it = 0
    while True:
        sums = sup.A @ m_live
        disc = float(np.abs(sums - t).max())
        if disc <= reach or it == MAX_ITER:
            break
        it += 1
        try:
            delta = np.linalg.solve((sup.B * m_live) @ sup.B.T, t_s - sums[sup.rows])
        except np.linalg.LinAlgError:  # a mean on the boundary underflowed to 0
            break
        # the objective here, less a bound on the rounding of its sums
        terms = t_s * theta
        floor = float(terms.sum()) - float(m_live.sum()) - (n + k) * _EPS * (
            float(np.abs(terms).sum()) + float(m_live.sum()))
        step = 1.0
        while step:
            trial = theta + step * delta
            m_trial = start * np.exp(c + trial @ sup.B)
            if float((t_s * trial).sum()) - float(m_trial.sum()) >= floor:
                break
            step *= 0.5
        else:  # halved to 0 (a step of inf or nan): no step ascends
            break
        scale = total / float(m_trial.sum())
        theta, c, m_live = trial, c + math.log(scale), m_trial * scale
    m[sup.live] = m_live
    return FitResult(m, it, disc, disc <= reach), total * c + float((t_s * theta).sum())


def ipf_fit(table: Table, model, tol: float = 1e-10) -> FitResult:
    """Maximum-likelihood expected cell means of the model for the table,
    by Newton's method; ``iterations`` counts Newton steps, and convergence
    is max |A m - t| <= tol on the sufficient-statistic coordinates, or
    within 4 ulps (4 eps max t) of the largest sum t where that is more.
    ``tol`` must be finite and at least 0."""
    if not 0.0 <= tol < math.inf:
        raise FitError(f"tol must be finite and >= 0, got {tol!r}")
    R, C = table.R, table.C
    A = _models.build_configuration(model, R, C).matrix
    x = table.vec()
    t = (A.astype(np.int64) @ x).astype(np.float64)
    fit, _ = _newton(_Support(A, t == 0), t, float(x.sum()), tol)
    return replace(fit, expected=fit.expected.reshape(R, C))


def _chi2_terms(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Pearson terms (x - m)^2 / m of arrays of counts and means, each the
    float a scalar evaluation gives; a cell of zero mean contributes 0 when
    empty and inf under a positive count."""
    d = x - m
    if m.all():
        return d * d / m
    terms = np.divide(d * d, m, out=np.zeros_like(d), where=m != 0.0)
    terms[(m == 0.0) & (x > 0)] = math.inf
    return terms


def _g2_cell(x, m) -> float:
    """Likelihood-ratio term 2 x log(x/m); an empty cell contributes 0, a
    positive count over a zero mean inf."""
    if x <= 0:
        return 0.0
    if m == 0.0:
        return math.inf
    return 2.0 * x * math.log(x / m)


def _g2_terms(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``_g2_cell`` of each count and mean of two arrays, by ``math.log``
    (numpy's log differs from it in the last bit on about 0.1% of
    arguments)."""
    return np.fromiter(map(_g2_cell, x.tolist(), m.tolist()), dtype=np.float64, count=len(x))


def _total(terms: np.ndarray) -> float:
    """Sum of the cell terms, one float addition at a time in cell order
    (the built-in ``sum`` compensates from Python 3.12 on, and numpy's sum
    is pairwise, which would change the floats)."""
    out = 0.0
    for term in terms.tolist():
        out += term
    return out


def _table_total(terms, table: Table, expected: np.ndarray) -> float:
    m = np.asarray(expected, dtype=np.float64)
    if table.counts.shape != m.shape:
        raise TableError("table and expected shapes differ")
    return _total(terms(table.counts.ravel(), m.ravel()))


def chi_square(table: Table, expected: np.ndarray) -> float:
    """Pearson chi-square; a cell of zero expectation contributes 0 when
    empty, and a positive count over it gives inf."""
    return _table_total(_chi2_terms, table, expected)


def g_square(table: Table, expected: np.ndarray) -> float:
    """Likelihood-ratio statistic 2 sum x log(x/m); zero counts contribute 0."""
    return _table_total(_g2_terms, table, expected)


def llr_nested(table: Table, inner, outer, tol: float = 1e-10) -> float:
    """2 sum x log(m2/m1) for nested models (inner within outer): the
    ``observed`` value of their ``LLRTracker``."""
    return LLRTracker(table, inner, outer, tol).observed


# ---------------------------------------------------------------------------
# statistic trackers for the sampler (the contract is ``as_tracker``'s)


def _entry_counts(x: np.ndarray, cells: np.ndarray,
                  coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The count of each entry's cell before and after its move, for moves
    applied to the state x in entry order; x is left at the last state.

    The entries are grouped by cell in a stable sort, so within a group
    they keep their order, and a running sum of the group's coefficients
    gives its counts."""
    order = np.argsort(cells, kind="stable")
    cell = cells[order]
    step = coefs[order].astype(np.int64)
    run = np.cumsum(step)
    first = np.ones(len(cell), dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # a group's counts are its cell's count plus the group's running sum
    base = x[cell[starts]] - (run[starts] - step[starts])
    run += np.repeat(base, np.diff(starts, append=len(cell)))
    after = np.empty_like(run)
    after[order] = run
    last = np.append(starts[1:], len(cell)) - 1
    x[cell[last]] = run[last]
    return after - coefs, after


class _FixedExpectedTracker:
    """Base for statistics against a fixed null fit (constant on the fiber):
    a subclass binds the statistic's term function, ``_terms(x, m)`` on
    arrays of counts and means.

    The tracker keeps the state.  A batch of moves costs each entry's cell
    term before and after its move, and one cumulative sum of their
    differences in entry order, which is the sum ``v += new - old`` taken
    one changed cell at a time."""

    def __init__(self, table: Table, model, tol: float = 1e-10) -> None:
        self.fit = ipf_fit(table, model, tol=tol)
        if not self.fit.converged:
            raise FitError("null fit did not converge; cannot track a statistic against it")
        self.expected = self.fit.expected
        self._m = self.expected.ravel()
        self.observed = self.start(table.vec())

    def _entry_terms(self, cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The term of each entry's cell at its count."""
        return self._terms(counts, self._m[cells])

    def start(self, x_flat) -> float:
        self._x = np.array(x_flat, dtype=np.int64)
        self._value = _total(self._terms(self._x, self._m))
        return self._value

    def values_after(self, cells, coefs, ends) -> np.ndarray:
        before, after = _entry_counts(self._x, cells, coefs)
        run = np.empty(len(cells) + 1)
        run[0] = self._value
        np.subtract(self._entry_terms(cells, after), self._entry_terms(cells, before),
                    out=run[1:])
        np.cumsum(run, out=run)
        self._value = float(run[-1])
        return run[ends]


class ChiSquareTracker(_FixedExpectedTracker):
    """Pearson chi-square against the fixed null fit.  Cells with zero
    fitted mean keep zero counts on the whole fiber (their constraint group
    sums to 0), so they contribute 0 and never blow up."""

    _terms = staticmethod(_chi2_terms)


class GSquareTracker(_FixedExpectedTracker):
    """2 sum x log(x/m) against the fixed null fit."""

    _terms = staticmethod(_g2_terms)

    def _entry_terms(self, cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
        # one math.log per distinct (cell, count) pair of the batch
        span = int(counts.max()) + 1
        pairs, inv = np.unique(cells.astype(np.int64) * span + counts, return_inverse=True)
        cell, count = np.divmod(pairs, span)
        return self._terms(count, self._m[cell])[inv]


class LLRTracker:
    """Nested log-likelihood ratio 2 sum x log(m2/m1), one number V(b) per
    vector b of the outer model's term sums (the diagonal block sums on
    block models).

    m1 (inner fit) is constant on the fiber.  Rows, columns and the inner
    terms are fixed, so the outer sums are fixed by b, and so is m2.  Both
    log m1 and log m2 lie in the outer row space, so sum x log(m2/m1) is
    the same for every table x with sums b: V(b) = 2 (l_outer(b) -
    l_inner), the difference of the maximized kernels.  The outer refit
    starts from m1 and returns that gain directly, from small coordinates,
    so no large kernels cancel.  The cells where m1 = 0 are 0 on the whole
    fiber; the refit pins them with one extra zero-target row.

    V is refitted at ``tol`` and cached for the ``CACHE_SIZE`` most recently
    used vectors; an evicted vector refits to the same value.  The fit's
    live cells and independent rows are chosen once per pattern of zero
    targets and kept for the ``PATTERN_CACHE_SIZE`` most recently used
    patterns.  ``observed`` is V at the observed table's vector, the first
    value cached, so a chain state with the observed block sums is a tie at
    exactly that value.  ``start`` computes b and looks V(b) up;
    ``values_after`` moves b by each move's changed cells, with numpy, and
    looks V up in move order, once per move that changed b, so a value
    never drifts and the cache sees the lookups one move at a time would
    make.  ``cache_counts`` gives the cache misses (refits), hits and size
    over every chain.
    """

    # block-sum vectors whose values are kept, one float each (about 250
    # bytes an entry with its key, so 1 MB full on Gilby): twelve times the
    # 340 vectors a 1M-step Victoria chain visits, and enough that a
    # 100k-step walk of independence inside the Gilby model refits 2,002
    # vectors instead of the 3,288 it refits at 1,024
    CACHE_SIZE = 4096
    # patterns of zero targets whose fit supports are kept (Victoria's
    # chains visit four or five)
    PATTERN_CACHE_SIZE = 32

    def __init__(self, table: Table, inner, outer, tol: float = 1e-10) -> None:
        R, C = table.R, table.C
        if not _models.is_nested(inner, outer, R, C):
            raise FitError("models are not nested: every inner constraint must lie "
                           "in the outer row space")

        self.fit = ipf_fit(table, inner, tol=tol)
        if not self.fit.converged:
            raise FitError("the inner fit of the nested LLR did not converge")
        self._m1 = self.fit.expected.ravel()
        self.tol = tol

        # the outer rows and the cells where m1 = 0, a row whose target is 0
        outer_rows = _models.build_configuration(outer, R, C).matrix
        A = np.vstack([outer_rows, self._m1 == 0.0])
        self._support = lru_cache(self.PATTERN_CACHE_SIZE)(
            lambda zero: _Support(A, np.frombuffer(zero, dtype=bool)))
        x = table.vec()
        self._fixed_targets = tuple(map(float, (outer_rows[:R + C].astype(np.int64) @ x).tolist()))
        self._total = float(x.sum())
        # cells x terms: 1 where the cell lies in the term
        self._cell_terms = outer_rows[R + C:].T.astype(np.int64)
        self._llr = lru_cache(self.CACHE_SIZE)(self._refit)
        self.observed = self.start(x)

    def _refit(self, b: tuple[int, ...]) -> float:
        t = np.array(self._fixed_targets + b + (0.0,))
        sup = self._support((t == 0).tobytes())
        res, gain = _newton(sup, t, self._total, self.tol, self._m1[sup.live])
        if not res.converged:
            raise FitError("outer refit did not converge on a fiber state")
        return 2.0 * gain

    def cache_counts(self) -> dict:
        info = self._llr.cache_info()
        return {"refits": info.misses, "hits": info.hits, "size": info.currsize}

    def _block_sums(self, x_flat) -> tuple[int, ...]:
        return tuple((np.asarray(x_flat, dtype=np.int64) @ self._cell_terms).tolist())

    def start(self, x_flat) -> float:
        self._b = b = self._block_sums(x_flat)
        self._value = self._llr(b)
        return self._value

    def values_after(self, cells, coefs, ends) -> np.ndarray:
        # each move's change of the block sums, and the moves that change them
        shift = np.add.reduceat(self._cell_terms[cells] * coefs[:, None].astype(np.int64),
                                np.append(0, ends[:-1]), axis=0)
        moved = shift.any(axis=1)
        values = [self._value]
        if moved.any():
            sums = np.cumsum(shift[moved], axis=0) + self._b
            # V in move order, once per move that changed the sums
            values += map(self._llr, map(tuple, sums.tolist()))
            self._b = tuple(sums[-1].tolist())
            self._value = values[-1]
        # each move keeps the value of the last move at or before it that
        # changed the sums
        return np.array(values)[np.cumsum(moved)]


def make_tracker(stat: str, table: Table, model, alt=None, tol: float = 1e-10):
    """Statistic factory for the CLI: one of ``STATS``."""
    if stat not in STATS:
        raise FitError(f"unknown statistic {stat!r}")
    if stat != "llr":
        return (ChiSquareTracker if stat == "chi2" else GSquareTracker)(table, model, tol=tol)
    if alt is None:
        raise FitError("llr needs an alternative (outer) model")
    return LLRTracker(table, model, alt, tol=tol)


class _CallableTracker:
    """Adapter giving the tracker interface to a function of the table: a
    plain statistic callable, or the ``start`` of a tracker that has no
    ``values_after``.  A revisited state reuses the function's value instead
    of calling it again.  A state's key is the bytes of its int64 cells,
    which numpy gives for a whole batch of states at once."""

    # states whose values are kept: a small fiber fits whole, and the keys
    # of a 12x12 grid take about 1.2 MB
    CACHE_SIZE = 1024
    # cells of the states a batch rebuilds at once: 128 kB of int64, and
    # the batch's keys besides, a bytes object and a list slot per state
    # (41 + 8*R*C bytes), which take 300 kB more on a 2x2 grid
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


def as_tracker(statistic, R: int, C: int):
    """The tracker that values ``statistic`` on (R, C) tables: the one door
    by which ``mcmc.walk`` and ``fiber.fiber_pvalue`` take a statistic.

    A tracker has two methods.  ``start(x)`` resets every per-chain field
    and returns the statistic at the flat state x.  ``values_after(cells,
    coefs, ends)`` takes the moves accepted since, in order, and returns a
    float array of the value after each move, leaving the tracker at the
    last state.  Move j is the entries ``ends[j - 1]:ends[j]`` (from 0 for
    j = 0) of the integer arrays ``cells`` and ``coefs``, its flat cells and
    signed coefficients; a cell appears at most once per move, there is at
    least one move, and the arrays are valid only during the call.  Each
    value equals the one the moves fed one call at a time would give, bit
    for bit.  The walk calls ``start`` again after every
    ``mcmc.RESYNC_EVERY``-th accept to shed the float drift of the
    increments; the sample at that step is still the incremental value.
    Chains run one after another, so one tracker serves them all; what
    outlives a chain (the null fit, the LLR value cache) depends only on
    the fiber.  The fiber oracle values each member by ``start``.  The
    trackers of this module also carry ``fit``, the null model's
    FitResult, and ``observed``, the statistic at the table.

    A tracker is returned as it is.  Anything else with ``start`` is valued
    by its ``start`` alone, as a function of the table; no other method of
    it is called.  A plain callable on the (R, C) table is wrapped.  Either
    must be a pure function of the table: it is evaluated once per distinct
    state among the 1,024 most recently used, keyed by the bytes of the
    flat int64 cells (about 8*R*C bytes a key, 1.2 MB in all on a 12x12
    grid), and the adapter rebuilds each window's states with numpy.
    Anything else raises ``TrackerError``.
    """
    if hasattr(statistic, "start"):
        if hasattr(statistic, "values_after"):
            return statistic
        start = statistic.start
        statistic = lambda a: start(a.ravel())
    if callable(statistic):
        return _CallableTracker(statistic, R, C)
    raise TrackerError("statistic must be callable or implement the tracker protocol")
