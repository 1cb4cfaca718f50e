"""Maximum-likelihood fitting by iterative proportional scaling, and the
test statistics evaluated on fiber samples.

The fitted cell means under any model here depend on a table only through
its sufficient statistic, so the null fit is a single constant table on the
whole fiber.  For the nested likelihood-ratio statistic the alternative fit
varies, but only through the outer model's term sums (the diagonal block
sums on block models), and so does the statistic itself: it is one number
per block-sum vector, computed from the vector alone and cached, which is
what makes million-step sampling runs affordable.

IPF scales one family at a time: a maximal run of consecutive configuration
rows whose cell sets are disjoint (all rows, all columns, the diagonal-block
terms).  Disjoint groups commute, since scaling one leaves the others' sums
unchanged, so a family costs one bincount and one gathered multiply and the
result equals group-by-group scaling up to the order of summation.

Conventions: 0 * log(0/anything) := 0 by continuity; a group with observed
sum 0 pins its cells to 0 and scaling continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import models as _models
from .tables import Table, build_configuration

__all__ = [
    "FitResult",
    "FitError",
    "ipf_fit",
    "chi_square",
    "g_square",
    "llr_nested",
    "ChiSquareTracker",
    "GSquareTracker",
    "LLRTracker",
    "make_tracker",
]


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    expected: np.ndarray
    iterations: int
    max_discrepancy: float
    converged: bool


def _scaling_groups(model, R: int, C: int) -> list[np.ndarray]:
    """Flat cell indices per constraint group, one per row of the model's
    configuration: rows, columns, subtable terms."""
    return [np.flatnonzero(row) for row in build_configuration(model, R, C).matrix]


def _scaling_families(groups: list[np.ndarray], n_cells: int) -> list[tuple]:
    """Split the groups into maximal runs of consecutive, pairwise disjoint
    groups: all rows, all columns, the diagonal-block terms; nested
    rectangles each form their own family.

    A family is ``(start, stop, cells, labels)`` for ``groups[start:stop]``:
    the run's cells in increasing order (None when that is every cell, so
    no gather is needed) and, for each, its run-local group index.
    """
    families = []
    start = 0
    seen = np.zeros(n_cells, dtype=bool)
    for q, g in enumerate(groups):
        if seen[g].any():
            families.append(_family(groups, start, q, n_cells))
            seen[:] = False
            start = q
        seen[g] = True
    families.append(_family(groups, start, len(groups), n_cells))
    return families


def _family(groups, start: int, stop: int, n_cells: int) -> tuple:
    label = np.full(n_cells, -1)
    for k, g in enumerate(groups[start:stop]):
        label[g] = k
    cells = np.flatnonzero(label >= 0)
    if len(cells) == n_cells:
        return start, stop, None, label
    return start, stop, cells, label[cells]


def _group_index(families) -> tuple[np.ndarray, np.ndarray]:
    """Every family's cells, one family after another, and each cell's
    group in configuration-row order: one bincount over them sums every
    group, each over its cells in increasing order, as a bincount per
    family does."""
    cells = np.concatenate([np.arange(len(labels)) if cells is None else cells
                            for _, _, cells, labels in families])
    labels = np.concatenate([labels + start for start, _, _, labels in families])
    return cells, labels


def _group_sums(families, v: np.ndarray) -> np.ndarray:
    """Sum of ``v`` over every group, in configuration-row order."""
    cells, labels = _group_index(families)
    return np.bincount(labels, weights=v[cells], minlength=families[-1][1])


def _ipf_core(n_cells: int, families, targets: np.ndarray, tol: float,
              max_iter: int, total: float, x_flat=None) -> FitResult:
    """Cyclic proportional scaling toward the group targets, one family at
    a time.

    The groups of a family share no cell, so scaling one leaves the sums of
    the others unchanged and they commute: one bincount of the family's
    means and one gathered multiply give exactly the group-by-group cycle in
    configuration-row order, up to the order of summation.  A zero-target
    group is zeroed at its turn; a positive-target group whose cells are
    all zero already is a FitError.

    Starts at the uniform table (interior point).  When ``x_flat`` is given,
    the log-likelihood is asserted nondecreasing across cycles, in the
    Poisson form sum(x log m) - sum(m): each scaling step maximizes it along
    its own multiplicative direction, so the cycle composition must ascend
    (the multinomial form agrees once sum(m) is back at the grand total).
    The in-sampler refits skip that bookkeeping.
    """
    m = np.full(n_cells, total / n_cells if total > 0 else 0.0, dtype=np.float64)
    steps = [(targets[start:stop], cells, labels)
             for start, stop, cells, labels in families]
    # every mean stays positive unless a target is zero, so only then can a
    # group sum vanish
    pinned = not (total > 0 and targets.all())
    # the convergence check sums every group in one bincount
    all_cells, all_labels = _group_index(families)

    last_ll = -math.inf
    if x_flat is not None:
        pos = np.flatnonzero(x_flat > 0)
        x_pos = x_flat[pos]

    disc = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        for tau, cells, labels in steps:
            mc = m if cells is None else m[cells]
            s = np.bincount(labels, weights=mc, minlength=len(tau))
            if pinned and not s.all():
                if (tau[s == 0.0] > 0.0).any():
                    raise FitError("scaling group pinned to zero but its target is positive")
                f = np.divide(tau, s, out=np.zeros_like(s), where=s != 0.0)
            else:
                f = tau / s
            if cells is None:
                m *= f[labels]
            else:
                m[cells] = mc * f[labels]
        sums = np.bincount(all_labels, weights=m[all_cells], minlength=len(targets))
        disc = float(np.abs(sums - targets).max())
        if x_flat is not None:
            ll = float((x_pos * np.log(m[pos])).sum()) - float(m.sum())
            assert ll >= last_ll - 1e-9, f"log-likelihood decreased: {last_ll} -> {ll}"
            last_ll = ll
        if disc <= tol:
            return FitResult(m, it, disc, True)
    return FitResult(m, it, disc, False)


def ipf_fit(table: Table, model, tol: float = 1e-10, max_iter: int = 10_000) -> FitResult:
    """Fit the model's expected cell means to the table by cycling over
    rows, columns, and subtable terms; convergence is measured on the
    sufficient-statistic coordinates."""
    R, C = table.R, table.C
    _models.require_valid(model, R, C)
    x = table.vec().astype(np.float64)
    families = _scaling_families(_scaling_groups(model, R, C), R * C)
    targets = _group_sums(families, x)
    res = _ipf_core(R * C, families, targets, tol, max_iter, float(x.sum()), x_flat=x)
    return FitResult(res.expected.reshape(R, C), res.iterations,
                     res.max_discrepancy, res.converged)


def _chi2_cell(x, m) -> float:
    """Pearson term (x - m)^2 / m; a cell of zero mean contributes 0 when
    empty and inf under a positive count."""
    if m == 0.0:
        return math.inf if x > 0 else 0.0
    d = x - m
    return d * d / m


def _g2_cell(x, m) -> float:
    """Likelihood-ratio term 2 x log(x/m); an empty cell contributes 0, a
    positive count over a zero mean inf."""
    if x <= 0:
        return 0.0
    if m == 0.0:
        return math.inf
    return 2.0 * x * math.log(x / m)


def _total(terms) -> float:
    """Sum of the cell terms, one float addition at a time in cell order
    (the built-in ``sum`` compensates from Python 3.12 on, which would
    change the floats)."""
    out = 0.0
    for term in terms:
        out += term
    return out


def _table_total(cell, table: Table, expected: np.ndarray) -> float:
    m = np.asarray(expected, dtype=np.float64)
    if table.counts.shape != m.shape:
        raise ValueError("table and expected shapes differ")
    return _total(map(cell, table.counts.ravel().tolist(), m.ravel().tolist()))


def chi_square(table: Table, expected: np.ndarray) -> float:
    """Pearson chi-square; a cell of zero expectation contributes 0 when
    empty, and a positive count over it gives inf."""
    return _table_total(_chi2_cell, table, expected)


def g_square(table: Table, expected: np.ndarray) -> float:
    """Likelihood-ratio statistic 2 sum x log(x/m); zero counts contribute 0."""
    return _table_total(_g2_cell, table, expected)


def llr_nested(table: Table, inner, outer, tol: float = 1e-10,
               max_iter: int = 10_000) -> float:
    """2 sum x log(m2/m1) for nested models (inner within outer)."""
    R, C = table.R, table.C
    if not _models.is_nested(inner, outer, R, C):
        raise FitError("models are not nested: every inner constraint must lie in the outer row space")
    fit1 = ipf_fit(table, inner, tol=tol, max_iter=max_iter)
    fit2 = ipf_fit(table, outer, tol=tol, max_iter=max_iter)
    return _llr_value(table, fit1, fit2)


def _llr_value(table: Table, fit1: FitResult, fit2: FitResult) -> float:
    """2 sum x log(m2/m1) from the inner and outer fits of ``table``."""
    out = 0.0
    for xv, m1, m2 in zip(table.counts.ravel(), fit1.expected.ravel(), fit2.expected.ravel()):
        if xv > 0:
            if m2 <= 0.0 or m1 <= 0.0:
                raise FitError("positive count over a zero fitted mean; fit is on the boundary")
            out += float(xv) * math.log(m2 / m1)
    val = 2.0 * out
    if val < -1e-9:
        raise FitError(f"nested LLR came out negative ({val}); fits did not converge")
    return val


# ---------------------------------------------------------------------------
# statistic trackers for the sampler
#
# Contract with mcmc.walk: start(x) resets every per-chain field and returns
# the statistic at x; value_after(x, flats, coefs) is called only for an
# accepted move, after the walk has applied it (x is the state after the
# move, x - coefs at flats the state before), and returns and keeps the new
# value.  flats and coefs are integer sequences, possibly slices of the
# basis's arrays, valid only during the call; a cell appears at most once
# per move.  The walk calls start again every few thousand accepts to shed
# the float drift of the increments.  Chains run one after another, so one
# tracker serves them all; what outlives a chain (the null fit, the LLR
# value cache) depends only on the fiber.  Trackers are also plain callables
# on (R, C) integer arrays, so the fiber oracle can reuse them.  ``fit`` is
# the null model's FitResult and ``observed`` the statistic at the table.


class _FixedExpectedTracker:
    """Base for statistics against a fixed null fit (constant on the fiber):
    a subclass binds the statistic's cell function as ``_cell``.

    ``start`` keeps every cell's term, so an accepted move costs one term
    per changed cell: the kept term is exactly the cell's term before the
    move, since a move changes each cell at most once."""

    def __init__(self, table: Table, model, tol: float = 1e-10) -> None:
        self.R, self.C = table.R, table.C
        self.fit = ipf_fit(table, model, tol=tol)
        if not self.fit.converged:
            raise FitError("null fit did not converge; cannot track a statistic against it")
        self.expected = self.fit.expected
        self._m = self.expected.ravel().tolist()
        self.observed = self._full(table.counts.ravel().tolist())

    def _full(self, x_flat) -> float:
        return _total(map(self._cell, x_flat, self._m))

    def __call__(self, arr) -> float:
        return self._full(np.asarray(arr).ravel().tolist())

    def start(self, x_flat) -> float:
        self._terms = list(map(self._cell, x_flat, self._m))
        self._value = _total(self._terms)
        return self._value

    def value_after(self, x_flat, flats, coefs) -> float:
        v = self._value
        m, terms = self._m, self._terms
        cell = self._cell
        for f in flats:
            new = cell(x_flat[f], m[f])
            v += new - terms[f]
            terms[f] = new
        self._value = v
        return v


class ChiSquareTracker(_FixedExpectedTracker):
    """Pearson chi-square against the fixed null fit.  Cells with zero
    fitted mean keep zero counts on the whole fiber (their constraint group
    sums to 0), so they contribute 0 and never blow up."""

    _cell = staticmethod(_chi2_cell)


class GSquareTracker(_FixedExpectedTracker):
    """2 sum x log(x/m) against the fixed null fit."""

    _cell = staticmethod(_g2_cell)


class LLRTracker:
    """Nested log-likelihood ratio 2 sum x log(m2/m1), one number V(b) per
    vector b of the outer model's term sums (the diagonal block sums on
    block models).

    m1 (inner fit) is constant on the fiber.  m2 (outer fit) depends on the
    table only through b, because rows, columns, and the inner terms are
    fixed; so does the statistic.  The log-ratio L = log(m2/m1) is
    sanitized to 0 wherever a fitted mean vanishes, and every table with
    sums b is 0 there too (a zero fitted group sum forces zero counts).  On
    the other, kept cells L lies in the row space of the outer
    configuration A (log m2 is a sum of IPF scaling factors, log m1 one of
    inner terms, which the outer rows span), so sum x L is the same for
    every real table x with A_keep x = t(b) on the kept cells and 0
    elsewhere.  V(b) = 2 x^ . L takes it at one such table fixed by b
    alone: x^ is m2 on the kept cells, moved onto t(b) by the least-norm
    correction pinv(A_keep) (t(b) - A_keep m2).  It lies near the tables
    with sums b, so the rounding of L off the row space does not add up.
    The pseudo-inverse is kept per pattern of kept cells.

    V is refitted at ``CHAIN_TOL`` from the uniform table and cached for
    the ``CACHE_SIZE`` most recently used vectors; an evicted vector refits
    to the same value.  The observed table's vector is pinned to
    ``observed``, the statistic at the table from fits at ``tol``, exactly
    as ``llr_nested`` gives it, so a chain counts its ties at the observed
    block sums against that value.  ``start`` computes b and looks V(b) up;
    ``value_after`` moves b by the changed cells' terms and looks V up only
    when b changed, so a value never drifts.  ``cache_counts`` gives the
    cache misses (refits), hits and size over every chain.
    """

    # tolerance of the outer refits at chain states
    CHAIN_TOL = 1e-8
    # block-sum vectors whose values are kept, one float each: three times
    # the 340 vectors a 1M-step Victoria chain visits
    CACHE_SIZE = 1024
    # patterns of kept cells whose pseudo-inverses are kept, cells x groups
    # floats each (32 KB on Victoria, whose chains visit four or five)
    PATTERN_CACHE_SIZE = 32

    def __init__(self, table: Table, inner, outer, tol: float = 1e-10) -> None:
        R, C = table.R, table.C
        if not _models.is_nested(inner, outer, R, C):
            raise FitError("models are not nested")
        self.R, self.C = R, C

        self.fit = ipf_fit(table, inner, tol=tol)
        if not self.fit.converged:
            raise FitError("inner fit did not converge")
        self.observed = _llr_value(table, self.fit, ipf_fit(table, outer, tol=tol))
        m1 = self.fit.expected.ravel()
        self._m1_pos = m1 > 0
        self._log_m1 = np.zeros_like(m1)
        self._log_m1[self._m1_pos] = np.log(m1[self._m1_pos])

        # outer-model scaling geometry, reused for every refit
        groups = _scaling_groups(outer, R, C)
        self._families = _scaling_families(groups, R * C)
        self._config = np.zeros((len(groups), R * C))
        for q, g in enumerate(groups):
            self._config[q, g] = 1.0
        self._pinv = lru_cache(self.PATTERN_CACHE_SIZE)(self._least_norm)
        x = table.vec().tolist()
        self._fixed_targets = tuple(float(sum(x[p] for p in g)) for g in groups[:R + C])
        self._total = float(sum(x))
        self._term_groups = [g.tolist() for g in groups[R + C:]]
        cell_terms = [[] for _ in range(R * C)]
        for q, g in enumerate(self._term_groups):
            for p in g:
                cell_terms[p].append(q)
        self._cell_terms = [tuple(t) for t in cell_terms]
        self._observed_b = self._block_sums(x)
        self._llr = lru_cache(self.CACHE_SIZE)(self._refit)

    def _refit(self, b: tuple[int, ...]) -> float:
        if b == self._observed_b:
            return self.observed
        targets = np.array(self._fixed_targets + b)
        res = _ipf_core(self.R * self.C, self._families, targets,
                        self.CHAIN_TOL, 10_000, self._total)
        if not res.converged:
            raise FitError("outer refit did not converge on a fiber state")
        m2 = res.expected
        keep = (m2 > 0.0) & self._m1_pos
        log_ratio = np.log(m2[keep]) - self._log_m1[keep]
        # x^ by elementwise products and pairwise sums, whose floats do not
        # depend on where numpy placed the arrays
        kept = np.where(keep, m2, 0.0)
        residual = targets - _group_sums(self._families, kept)
        x_hat = kept[keep] + (self._pinv(keep.tobytes()) * residual).sum(axis=1)
        return 2.0 * float((x_hat * log_ratio).sum())

    def _least_norm(self, keep: bytes) -> np.ndarray:
        """pinv of the outer configuration on the kept cells."""
        return np.linalg.pinv(self._config[:, np.frombuffer(keep, dtype=bool)])

    def cache_counts(self) -> dict:
        info = self._llr.cache_info()
        return {"refits": info.misses, "hits": info.hits, "size": info.currsize}

    def _block_sums(self, x_flat) -> tuple[int, ...]:
        return tuple(sum(x_flat[p] for p in g) for g in self._term_groups)

    def __call__(self, arr) -> float:
        return self._llr(self._block_sums(np.asarray(arr).ravel().tolist()))

    def start(self, x_flat) -> float:
        self._b = b = self._block_sums(x_flat)
        self._value = self._llr(b)
        return self._value

    def value_after(self, x_flat, flats, coefs) -> float:
        b = list(self._b)
        cell_terms = self._cell_terms
        for f, c in zip(flats, coefs):
            for q in cell_terms[f]:
                b[q] += c
        b = tuple(b)
        if b != self._b:
            self._b = b
            self._value = self._llr(b)
        return self._value


def make_tracker(stat: str, table: Table, model, alt=None, tol: float = 1e-10):
    """Statistic factory for the CLI: chi2 | g2 | llr."""
    if stat == "chi2":
        return ChiSquareTracker(table, model, tol=tol)
    if stat == "g2":
        return GSquareTracker(table, model, tol=tol)
    if stat == "llr":
        if alt is None:
            raise FitError("llr needs an alternative (outer) model")
        return LLRTracker(table, model, alt, tol=tol)
    raise ValueError(f"unknown statistic {stat!r}")
