"""Maximum-likelihood fitting by iterative proportional scaling, and the
test statistics evaluated on fiber samples.

The fitted cell means under any model here depend on a table only through
its sufficient statistic, so the null fit is a single constant table on the
whole fiber.  For the nested likelihood-ratio statistic the alternative fit
varies, but only through the diagonal block sums; those get cached per
block-sum vector, which is what makes million-step sampling runs affordable.

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


def _group_sums(families, v: np.ndarray) -> np.ndarray:
    """Sum of ``v`` over every group, in configuration-row order."""
    return np.concatenate([
        np.bincount(labels, weights=v if cells is None else v[cells],
                    minlength=stop - start)
        for start, stop, cells, labels in families])


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
        disc = float(np.abs(_group_sums(families, m) - targets).max())
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


def _total(cell, xs, ms) -> float:
    """Sum of ``cell(x, m)`` over the cells, in cell order."""
    out = 0.0
    for xv, mv in zip(xs, ms):
        out += cell(xv, mv)
    return out


def _table_total(cell, table: Table, expected: np.ndarray) -> float:
    m = np.asarray(expected, dtype=np.float64)
    if table.counts.shape != m.shape:
        raise ValueError("table and expected shapes differ")
    return _total(cell, table.counts.ravel().tolist(), m.ravel().tolist())


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
# the statistic at the initial state; value_after(x, flats, coefs) is called
# only for a proposal that is about to be accepted (x is the state before
# the move); accept(x_new, value) is called right after the state is
# updated.  Chains run one after another, so one tracker serves them all;
# what outlives a chain (the null fit, the LLR refit cache) depends only on
# the fiber.  Trackers are also plain callables on (R, C) integer arrays, so
# the fiber oracle can reuse them.  ``fit`` is the null model's FitResult.


class _FixedExpectedTracker:
    """Base for statistics against a fixed null fit (constant on the fiber):
    a subclass binds the statistic's cell function as ``_cell``."""

    RESET_EVERY = 4096  # full recompute cadence, kills float drift

    def __init__(self, table: Table, model, tol: float = 1e-10) -> None:
        self.R, self.C = table.R, table.C
        self.model = model
        self.fit = ipf_fit(table, model, tol=tol)
        if not self.fit.converged:
            raise FitError("null fit did not converge; cannot track a statistic against it")
        self.expected = self.fit.expected
        self._m = self.expected.ravel().tolist()

    def _full(self, x_flat) -> float:
        return _total(self._cell, x_flat, self._m)

    def __call__(self, arr) -> float:
        return self._full(np.asarray(arr).ravel().tolist())

    def start(self, x_flat) -> float:
        self._value = self._full(x_flat)
        self._n_accept = 0
        return self._value

    def value_after(self, x_flat, flats, coefs) -> float:
        v = self._value
        m = self._m
        cell = self._cell
        for f, c in zip(flats, coefs):
            xv = x_flat[f]
            v += cell(xv + c, m[f]) - cell(xv, m[f])
        return v

    def accept(self, x_flat, value: float) -> None:
        self._n_accept += 1
        if self._n_accept % self.RESET_EVERY == 0:
            self._value = self._full(x_flat)
        else:
            self._value = value


class ChiSquareTracker(_FixedExpectedTracker):
    """Pearson chi-square against the fixed null fit.  Cells with zero
    fitted mean keep zero counts on the whole fiber (their constraint group
    sums to 0), so they contribute 0 and never blow up."""

    _cell = staticmethod(_chi2_cell)


class GSquareTracker(_FixedExpectedTracker):
    """2 sum x log(x/m) against the fixed null fit."""

    _cell = staticmethod(_g2_cell)


class LLRTracker:
    """Nested log-likelihood ratio 2 sum x log(m2/m1).

    m1 (inner fit) is constant on the fiber.  m2 (outer fit) depends on the
    table only through the diagonal block sums, because rows, columns, and
    the inner terms are fixed; refits are cached per block-sum vector.  The
    per-cell log-ratio is sanitized to 0 wherever a fitted mean vanishes,
    which is exact: a zero fitted group sum forces zero counts there on
    every table sharing that statistic.  ``observed`` is the statistic at
    the table, from fits at ``tol``, exactly as ``llr_nested`` gives it;
    ``refits`` and ``hits`` count the cache misses and hits over every
    chain.
    """

    RESET_EVERY = 2048

    def __init__(self, table: Table, inner, outer, tol: float = 1e-10,
                 chain_tol: float = 1e-8) -> None:
        R, C = table.R, table.C
        if not _models.is_nested(inner, outer, R, C):
            raise FitError("models are not nested")
        self.R, self.C = R, C
        self.inner, self.outer = inner, outer
        self.chain_tol = chain_tol

        self.fit = ipf_fit(table, inner, tol=tol)
        if not self.fit.converged:
            raise FitError("inner fit did not converge")
        self.observed = _llr_value(table, self.fit, ipf_fit(table, outer, tol=tol))
        m1 = self.fit.expected.ravel()
        self._m1_pos = m1 > 0
        self._log_m1 = np.zeros_like(m1)
        self._log_m1[self._m1_pos] = np.log(m1[self._m1_pos])

        # outer-model scaling geometry, reused for every cached refit
        groups = _scaling_groups(outer, R, C)
        self._families = _scaling_families(groups, R * C)
        x = table.vec().astype(np.float64)
        self._fixed_targets = tuple(_group_sums(self._families, x)[:R + C].tolist())
        term_groups = groups[R + C:]
        self._term_groups = term_groups
        self._cell_term_idx = [[] for _ in range(R * C)]
        for q, g in enumerate(term_groups):
            for p in g:
                self._cell_term_idx[p].append(q)
        self._cache: dict[tuple[float, ...], list[float]] = {}
        self.refits = self.hits = 0

    def _log_ratio(self, b: tuple[float, ...]) -> list[float]:
        cached = self._cache.get(b)
        if cached is not None:
            self.hits += 1
            return cached
        self.refits += 1
        targets = np.array(self._fixed_targets + b)
        total = sum(self._fixed_targets[:self.R])
        res = _ipf_core(self.R * self.C, self._families, targets,
                        self.chain_tol, 10_000, total)
        if not res.converged:
            raise FitError("outer refit did not converge on a fiber state")
        m2 = res.expected
        keep = (m2 > 0.0) & self._m1_pos
        L = np.zeros_like(m2)
        L[keep] = np.log(m2[keep]) - self._log_m1[keep]
        L = L.tolist()
        self._cache[b] = L
        return L

    def cache_counts(self) -> dict:
        return {"refits": self.refits, "hits": self.hits, "size": len(self._cache)}

    def _eval(self, x_flat, L) -> float:
        return 2.0 * sum(xv * lv for xv, lv in zip(x_flat, L) if xv)

    def _block_sums(self, x_flat) -> tuple[float, ...]:
        return tuple(float(sum(x_flat[p] for p in g)) for g in self._term_groups)

    def __call__(self, arr) -> float:
        x = [int(v) for v in np.asarray(arr).ravel()]
        return self._eval(x, self._log_ratio(self._block_sums(x)))

    def start(self, x_flat) -> float:
        self._b = b = self._block_sums(x_flat)
        self._L = self._log_ratio(b)
        self._pending = (b, self._L)
        self._value = self._eval(x_flat, self._L)
        self._n_accept = 0
        return self._value

    def value_after(self, x_flat, flats, coefs) -> float:
        db = {}
        for f, c in zip(flats, coefs):
            for q in self._cell_term_idx[f]:
                db[q] = db.get(q, 0) + c
        if not any(db.values()):
            L = self._L
            self._pending = (self._b, L)
            return self._value + 2.0 * sum(c * L[f] for f, c in zip(flats, coefs))
        b_new = tuple(
            bv + db.get(q, 0) for q, bv in enumerate(self._b)
        )
        L_new = self._log_ratio(b_new)
        self._pending = (b_new, L_new)
        delta = dict(zip(flats, coefs))
        val = 2.0 * sum(
            (xv + delta.get(p, 0)) * lv
            for p, (xv, lv) in enumerate(zip(x_flat, L_new))
            if xv or p in delta
        )
        return val

    def accept(self, x_flat, value: float) -> None:
        self._b, self._L = self._pending
        self._n_accept += 1
        if self._n_accept % self.RESET_EVERY == 0:
            self._value = self._eval(x_flat, self._L)
        else:
            self._value = value


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
