"""Maximum-likelihood fitting, test statistics, and the sampler-side
statistic trackers."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from markovfiber.fit import (
    ChiSquareTracker,
    FitError,
    GSquareTracker,
    LLRTracker,
    _newton,
    _Support,
    chi_square,
    g_square,
    ipf_fit,
    llr_nested,
    make_tracker,
)
from markovfiber.mcmc import RESYNC_EVERY, ChainConfig, run_chains, walk
from markovfiber.models import (COMMON_BLOCKS, CHANGE_POINT, GENERAL_BLOCKS, INDEPENDENCE, ModelSpec,
                                build_configuration)
from markovfiber.moves import basis_for_model, random_move
from markovfiber.tables import (
    Rectangle,
    Table,
    _gram_pivots,
    degrees_of_freedom,
    sufficient_statistic,
)
from markovfiber.datasets import gilby_model, gilby_table, victoria_models, victoria_table
from reference_ipf import constraint_groups, reference_core, reference_fit
from reference_models import cell_stratum
from reference_moves import flats_coefs
from test_moves import RANDOM_GEOMETRIES

GILBY_CHI2 = 153.66942307412367
GILBY_G2 = 178.2393011182423
VICTORIA_LLR = 3.0739019349974956


def test_independence_fit_is_the_margin_product():
    table = Table.from_rows([[1, 2], [3, 4]])
    fit = ipf_fit(table, ModelSpec(family=INDEPENDENCE))
    assert fit.converged
    r = table.counts.sum(axis=1).astype(float)
    c = table.counts.sum(axis=0).astype(float)
    closed = np.outer(r, c) / table.total
    assert np.allclose(fit.expected, closed, atol=1e-10)


def test_statistics_match_scipy_on_independence():
    table = Table.from_rows([[12, 7, 3], [5, 9, 14], [8, 2, 6]])
    fit = ipf_fit(table, ModelSpec(family=INDEPENDENCE))
    ref_chi2 = chi2_contingency(table.counts, correction=False)
    assert chi_square(table, fit.expected) == pytest.approx(ref_chi2.statistic)
    ref_g2 = chi2_contingency(table.counts, correction=False,
                              lambda_="log-likelihood")
    assert g_square(table, fit.expected) == pytest.approx(ref_g2.statistic)


@pytest.mark.parametrize("table,model", [
    (gilby_table(), gilby_model()),
    (victoria_table(), victoria_models()[0]),
    (victoria_table(), victoria_models()[1]),
])
def test_fit_reproduces_the_sufficient_statistic(table, model):
    fit = ipf_fit(table, model)
    assert fit.converged and fit.max_discrepancy <= 1e-10
    cfg = build_configuration(model, table.R, table.C)
    t_obs = sufficient_statistic(table, cfg).astype(np.float64)
    t_fit = cfg.matrix.astype(np.float64) @ fit.expected.ravel()
    assert np.allclose(t_fit, t_obs, atol=1e-8)


def seeded_table(seed, R, C):
    rng = np.random.default_rng(seed)
    return Table(rng.poisson(6.0, (R, C)) + 1)


FAMILY_CASES = {
    "gilby": lambda: (gilby_table(), gilby_model()),
    "victoria-common": lambda: (victoria_table(), victoria_models()[0]),
    "victoria-own": lambda: (victoria_table(), victoria_models()[1]),
    # bands 1-2 and 3-4, rows and columns 5-6 left over
    "general-6x6-leftover": lambda: (
        seeded_table(61, 6, 6),
        ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5),
                  groups=((1,), (2,)))),
    "independence-zero-margin": lambda: (
        Table.from_rows([[0, 0, 0, 0], [3, 1, 4, 1], [5, 0, 2, 6]]),
        ModelSpec(family=INDEPENDENCE)),
    "common-24x24": lambda: (
        seeded_table(24, 24, 24),
        ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 7, 13, 19, 25),
                  col_bounds=(1, 7, 13, 19, 25))),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("case", FAMILY_CASES)
def test_family_scaling_matches_group_by_group(case, tol):
    # Newton's method and cyclic scaling reach the same MLE by different
    # routes; the fit's reported discrepancy is max |A m - t| itself
    table, model = FAMILY_CASES[case]()
    fit = ipf_fit(table, model, tol=tol)
    ref = reference_fit(table, model, tol=tol)
    assert fit.converged and ref.converged
    assert np.abs(fit.expected - ref.expected).max() <= 1e-8
    A = build_configuration(model, table.R, table.C).matrix.astype(np.float64)
    score = np.abs(A @ fit.expected.ravel() - A @ table.vec()).max()
    assert score <= tol
    assert fit.max_discrepancy == pytest.approx(score, rel=1e-6, abs=1e-12)


def test_positive_group_pinned_to_zero_is_an_error():
    # inconsistent targets: the zero row sums pin every cell of the 2x2,
    # so the first column, whose target is positive, has nothing to fit
    model = ModelSpec(family=INDEPENDENCE)
    A = build_configuration(model, 2, 2).matrix
    targets = np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(FitError, match="pinned to zero"):
        _Support(A, targets == 0)
    with pytest.raises(FitError, match="pinned to zero"):
        reference_core(4, constraint_groups(model, 2, 2), targets.tolist(), 1e-10, 100, 1.0)


def test_group_sums_are_the_sufficient_statistic():
    # the fit's product of A over the live cells sums every group
    table = gilby_table()
    cfg = build_configuration(gilby_model(), table.R, table.C)
    t = sufficient_statistic(table, cfg)
    sup = _Support(cfg.matrix, t == 0)
    x = table.vec().astype(np.float64)
    assert np.array_equal(sup.A @ x[sup.live], t.astype(np.float64))


@pytest.mark.parametrize("case", ["gilby", "victoria-common", "victoria-own"])
def test_fit_does_not_stall(case):
    # a step whose objective falls only by rounding is accepted, so the fit
    # reaches 1e-10 in a handful of Newton steps (a strict ascent test
    # halves such steps and took 10 on Victoria's common blocks)
    table, model = FAMILY_CASES[case]()
    fit = ipf_fit(table, model, tol=1e-10)
    assert fit.converged and fit.iterations <= 8


def test_fit_converges_to_a_boundary_mle():
    # column 1 and the rectangle both sum to 2, so cell (3, 1) is 0 on the
    # whole fiber and its fitted mean tends to 0: the MLE is on the boundary
    table = Table.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),))
    fit = ipf_fit(table, model)
    assert fit.converged and fit.max_discrepancy <= 1e-10
    assert 0.0 < fit.expected[2, 0] <= 1e-9
    tracker = make_tracker("chi2", table, model)
    assert tracker.observed == pytest.approx(chi_square(table, fit.expected))
    # tol 0 is out of reach: the mean underflows until the Hessian is
    # singular, and the fit stops unconverged instead of raising
    exact = ipf_fit(table, model, tol=0.0)
    assert not exact.converged and np.isfinite(exact.expected).all()


def test_fit_of_large_counts_converges_at_their_rounding():
    # no float lies within 1e-10 of a sum near 1e7 (one ulp is 1.9e-9), so
    # the fit converges once it is within a few ulps of the largest sum
    table = Table.from_rows([[10**7, 0, 3], [0, 1, 0], [5, 0, 10**5]])
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),))
    fit = ipf_fit(table, model)
    assert fit.converged and fit.iterations <= 40
    A = build_configuration(model, table.R, table.C).matrix.astype(np.float64)
    t = A @ table.vec()
    assert fit.max_discrepancy == np.abs(A @ fit.expected.ravel() - t).max()
    assert fit.max_discrepancy <= 4 * np.finfo(np.float64).eps * t.max()
    assert make_tracker("chi2", table, model).fit.converged
    # small sums keep the absolute test
    small = ipf_fit(Table.from_rows([[9, 0, 3], [0, 1, 0], [5, 0, 7]]), model)
    assert small.converged and small.max_discrepancy <= 1e-10


@pytest.mark.parametrize("k", range(len(RANDOM_GEOMETRIES)),
                         ids=[f"{m.family}-{R}x{C}-{k}"
                              for k, (m, R, C, _) in enumerate(RANDOM_GEOMETRIES)])
def test_fit_matches_the_sums_of_random_tables_with_zeros(k):
    # three seeded tables per geometry: counts below 10 to 10^4, and 10-60%
    # of the cells set to 0, so many fits end on the boundary
    model, R, C, _ = RANDOM_GEOMETRIES[k]
    A = build_configuration(model, R, C).matrix.astype(np.int64)
    rng = np.random.default_rng([2311, k])
    for _ in range(3):
        counts = rng.integers(0, 10 ** int(rng.integers(1, 5)), (R, C))
        counts[rng.random((R, C)) < rng.uniform(0.1, 0.6)] = 0
        t = A @ counts.ravel()
        fit = ipf_fit(Table(counts), model)
        assert fit.converged
        assert np.abs(A @ fit.expected.ravel() - t).max() <= max(
            1e-10, 4 * np.finfo(np.float64).eps * t.max())


def test_gilby_fit_frozen_values():
    table = gilby_table()
    fit = ipf_fit(table, gilby_model())
    assert chi_square(table, fit.expected) == pytest.approx(GILBY_CHI2, abs=1e-8)
    assert g_square(table, fit.expected) == pytest.approx(GILBY_G2, abs=1e-8)


def test_no_interaction_within_strata():
    # within one stratum the fitted log odds ratios all vanish
    table = gilby_table()
    model = gilby_model()
    m = ipf_fit(table, model).expected
    R, C = table.R, table.C
    checked = 0
    for i1 in range(1, R):
        for i2 in range(i1 + 1, R + 1):
            for j1 in range(1, C):
                for j2 in range(j1 + 1, C + 1):
                    strata = {cell_stratum(model, R, C, i, j)
                              for i in (i1, i2) for j in (j1, j2)}
                    if len(strata) != 1:
                        continue
                    lor = (math.log(m[i1 - 1, j1 - 1]) + math.log(m[i2 - 1, j2 - 1])
                           - math.log(m[i1 - 1, j2 - 1]) - math.log(m[i2 - 1, j1 - 1]))
                    assert abs(lor) < 1e-6
                    checked += 1
    assert checked > 20


def test_zero_margin_pins_cells():
    table = Table.from_rows([[0, 0], [1, 2]])
    fit = ipf_fit(table, ModelSpec(family=INDEPENDENCE))
    assert fit.converged
    assert np.allclose(fit.expected[0], 0.0)
    assert chi_square(table, fit.expected) == pytest.approx(0.0)
    assert g_square(table, fit.expected) == pytest.approx(0.0)


def test_zero_expected_under_positive_count_is_infinite():
    table = Table.from_rows([[1, 0], [0, 1]])
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert chi_square(table, expected) == math.inf
    assert g_square(table, expected) == math.inf


def test_statistic_shape_mismatch():
    table = Table.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        chi_square(table, np.ones((2, 3)))
    with pytest.raises(ValueError):
        g_square(table, np.ones(4))


def test_victoria_llr_frozen_value():
    common, own = victoria_models()
    assert llr_nested(victoria_table(), common, own) == pytest.approx(
        VICTORIA_LLR, abs=1e-6)


def test_llr_of_a_model_with_itself_is_zero():
    common, _ = victoria_models()
    assert llr_nested(victoria_table(), common, common) == pytest.approx(0.0, abs=1e-8)


def test_llr_rejects_non_nested_models():
    a = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),))
    b = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 1, 1, 2),))
    with pytest.raises(FitError):
        llr_nested(Table.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]]), a, b)


def valid_targets(x, basis, rng, n):
    """Sample n (flats, coefs) pairs applicable at x."""
    out = []
    while len(out) < n:
        flats, coefs = flats_coefs(random_move(basis, rng), basis.C)
        if all(x[f] + c >= 0 for f, c in zip(flats, coefs)):
            out.append((flats, coefs))
    return out


def after_move(tracker, flats, coefs):
    """The tracker's value after one move, fed alone to its batched method."""
    return float(tracker.values_after(np.array(flats), np.array(coefs),
                                      np.array([len(flats)]))[0])


def test_chi_square_tracker_increments_match_recompute():
    table = gilby_table()
    model = gilby_model()
    tracker = ChiSquareTracker(table, model)
    fit_expected = tracker.expected
    basis = basis_for_model(model, table.R, table.C)
    rng = random.Random(9)

    x = [int(v) for v in table.vec()]
    value = tracker.start(x)
    assert value == pytest.approx(chi_square(table, fit_expected))
    for _ in range(60):
        flats, coefs = valid_targets(x, basis, rng, 1)[0]
        for f, c in zip(flats, coefs):
            x[f] += c
        new_val = after_move(tracker, flats, coefs)
        moved = Table(np.asarray(x, dtype=np.int64).reshape(table.R, table.C))
        assert new_val == pytest.approx(chi_square(moved, fit_expected), abs=1e-9)
    # a fresh start at the last state agrees with the increments
    assert tracker.start(x) == pytest.approx(new_val, abs=1e-9)


def test_g_square_tracker_increments_match_recompute():
    table = gilby_table()
    model = gilby_model()
    tracker = GSquareTracker(table, model)
    basis = basis_for_model(model, table.R, table.C)
    rng = random.Random(10)
    x = [int(v) for v in table.vec()]
    tracker.start(x)
    for _ in range(40):
        flats, coefs = valid_targets(x, basis, rng, 1)[0]
        for f, c in zip(flats, coefs):
            x[f] += c
        new_val = after_move(tracker, flats, coefs)
        moved = Table(np.asarray(x, dtype=np.int64).reshape(table.R, table.C))
        assert new_val == pytest.approx(g_square(moved, tracker.expected), abs=1e-9)


# independence with an empty row and column: the fitted means there are 0
STRUCTURAL_ZERO = [[3, 1, 0, 2], [0, 0, 0, 0], [1, 2, 0, 4], [2, 0, 0, 1]]


@pytest.mark.parametrize("stat", ["chi2", "g2"])
@pytest.mark.parametrize("case", ["gilby", "structural-zero"])
def test_kept_terms_do_not_outlive_a_restart(case, stat):
    if case == "gilby":
        table, model = gilby_table(), gilby_model()
    else:
        table, model = Table.from_rows(STRUCTURAL_ZERO), ModelSpec(family=INDEPENDENCE)
    tracker = make_tracker(stat, table, model)
    full = chi_square if stat == "chi2" else g_square
    zero = [f for f, m in enumerate(tracker.expected.ravel()) if m == 0.0]
    assert bool(zero) == (case == "structural-zero")
    basis = basis_for_model(model, table.R, table.C)
    rng = random.Random(12)
    x = [int(v) for v in table.vec()]
    tracker.start(x)
    for tracked in (True, False):  # walk on with the tracker, then without it
        for _ in range(30):
            flats, coefs = valid_targets(x, basis, rng, 1)[0]
            for f, c in zip(flats, coefs):
                x[f] += c
            if tracked:
                after_move(tracker, flats, coefs)
    assert x != [int(v) for v in table.vec()]
    tracker.start(x)
    for _ in range(60):
        flats, coefs = valid_targets(x, basis, rng, 1)[0]
        for f, c in zip(flats, coefs):
            x[f] += c
        new_val = after_move(tracker, flats, coefs)
        moved = Table(np.asarray(x, dtype=np.int64).reshape(table.R, table.C))
        assert math.isfinite(new_val)
        assert new_val == pytest.approx(full(moved, tracker.expected), abs=1e-9)
        assert tracker._x.tolist() == x and not any(x[f] for f in zero)


def llr_oracle(table, inner, outer):
    """Two fresh fits and the ratio formula, skipping the nesting recheck."""
    m1 = ipf_fit(table, inner).expected.ravel()
    m2 = ipf_fit(table, outer).expected.ravel()
    return 2.0 * sum(float(xv) * math.log(b / a)
                     for xv, a, b in zip(table.counts.ravel(), m1, m2) if xv)


def test_llr_tracker_matches_full_refits():
    table = victoria_table()
    common, own = victoria_models()
    tracker = LLRTracker(table, common, own)
    basis = basis_for_model(common, 12, 12)
    rng = random.Random(4)
    x = [int(v) for v in table.vec()]
    value = tracker.start(x)
    assert value == pytest.approx(VICTORIA_LLR, abs=1e-5)
    for _ in range(25):
        flats, coefs = valid_targets(x, basis, rng, 1)[0]
        for f, c in zip(flats, coefs):
            x[f] += c
        new_val = after_move(tracker, flats, coefs)
        moved = Table(np.asarray(x, dtype=np.int64).reshape(12, 12))
        assert new_val == pytest.approx(llr_oracle(moved, common, own), abs=1e-4)


def test_llr_tracker_on_structural_zeros_matches_full_refits():
    # the empty row and column of STRUCTURAL_ZERO give m1 = 0 there: the
    # refits pin those cells and start from m1 on the others
    table = Table.from_rows(STRUCTURAL_ZERO)
    inner = ModelSpec(family=INDEPENDENCE)
    outer = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 3, 1, 2),))
    tracker = LLRTracker(table, inner, outer)
    basis = basis_for_model(inner, 4, 4)
    rng = random.Random(6)
    x = [int(v) for v in table.vec()]
    tracker.start(x)
    seen = set()
    for _ in range(60):
        flats, coefs = valid_targets(x, basis, rng, 1)[0]
        for f, c in zip(flats, coefs):
            x[f] += c
        new_val = after_move(tracker, flats, coefs)
        moved = Table(np.asarray(x, dtype=np.int64).reshape(4, 4))
        assert new_val == pytest.approx(llr_nested(moved, inner, outer), abs=1e-6)
        seen.add(tracker._b)
    assert len(seen) > 3


SHARED_TRACKER_CASES = {
    "gilby-chi2": lambda: (gilby_table(), gilby_model(), None, "chi2", 4000),
    "victoria-llr": lambda: (victoria_table(), *victoria_models(), "llr", 1500),
}


@pytest.mark.parametrize("case", SHARED_TRACKER_CASES)
def test_one_tracker_serves_every_chain(case):
    # start() resets the per-chain state, so chains that share one tracker
    # (and, for llr, its refit cache) match chains with fresh trackers
    table, model, alt, stat, steps = SHARED_TRACKER_CASES[case]()
    cfg = build_configuration(model, table.R, table.C)
    chain = ChainConfig(steps=steps, burn_in=steps // 10, seed=5,
                        proposal=basis_for_model(model, table.R, table.C))
    shared = run_chains(table, cfg, chain, make_tracker(stat, table, model, alt=alt),
                        n_chains=3)
    for k, res in enumerate(shared):
        fresh = walk(table, cfg, replace(chain, seed=chain.seed + k),
                     make_tracker(stat, table, model, alt=alt))
        assert np.array_equal(res.samples, fresh.samples)
        assert (res.accept_count, res.stay_count, res.reject_count) == (
            fresh.accept_count, fresh.stay_count, fresh.reject_count)
        assert (res.observed, res.pvalue) == (fresh.observed, fresh.pvalue)


def test_llr_refit_cache_is_bounded(monkeypatch):
    # an evicted block-sum vector refits to the same value, so a cache of
    # two gives the same chains as the default one, with more refits
    table = victoria_table()
    common, own = victoria_models()
    cfg = build_configuration(common, 12, 12)
    chain = ChainConfig(steps=3000, burn_in=300, seed=5,
                        proposal=basis_for_model(common, 12, 12))
    full = make_tracker("llr", table, common, alt=own)
    want = run_chains(table, cfg, chain, full, n_chains=2)

    sizes = []
    refit = LLRTracker._refit

    def counted(self, b):
        sizes.append(self.cache_counts()["size"])
        return refit(self, b)

    monkeypatch.setattr(LLRTracker, "CACHE_SIZE", 2)
    monkeypatch.setattr(LLRTracker, "_refit", counted)
    small = make_tracker("llr", table, common, alt=own)
    got = run_chains(table, cfg, chain, small, n_chains=2)
    for a, b in zip(want, got):
        assert np.array_equal(a.samples, b.samples)
        assert (a.accept_count, a.stay_count, a.observed) == (
            b.accept_count, b.stay_count, b.observed)
    counts = small.cache_counts()
    assert full.cache_counts()["size"] > 2
    assert counts["refits"] > full.cache_counts()["refits"] == full.cache_counts()["size"]
    assert max(sizes) <= 2 and counts["size"] == 2
    assert counts["refits"] == len(sizes)


class LLRSumOracle:
    """The LLR as the tracker computed it before it was a function of the
    block sums: 2 sum x L(b) over the state's cells, with L(b) the
    sanitized log(m2/m1) of an outer refit at the tracker's ``tol``.  The
    refit is the tracker's: Newton's method from the inner fit m1, with the
    cells where m1 = 0 pinned to 0."""

    def __init__(self, table, inner, outer, tol):
        R, C = table.R, table.C
        self.tol = tol
        self.m1 = ipf_fit(table, inner).expected.ravel()
        self.A = np.vstack([build_configuration(outer, R, C).matrix, self.m1 == 0.0])
        self.groups = [g.tolist() for g in constraint_groups(outer, R, C)]
        self.terms = R + C  # the groups before the terms are rows and columns
        self.log_ratios = {}

    def block_sums(self, x):
        return tuple(sum(x[p] for p in g) for g in self.groups[self.terms:])

    def __call__(self, x):
        targets = np.array([float(sum(x[p] for p in g)) for g in self.groups] + [0.0])
        b = self.block_sums(x)
        if b not in self.log_ratios:
            sup = _Support(self.A, targets == 0)
            m2 = _newton(sup, targets, float(sum(x)), self.tol,
                         self.m1[sup.live])[0].expected
            keep = (m2 > 0.0) & (self.m1 > 0.0)
            L = np.zeros_like(m2)
            L[keep] = np.log(m2[keep] / self.m1[keep])
            self.log_ratios[b] = L.tolist()
        return 2.0 * sum(xv * lv for xv, lv in zip(x, self.log_ratios[b]) if xv)


class PurityCheck:
    """Wraps an LLR tracker and checks each value it returns, replaying each
    batch's moves on its own copy of the state: the oracle's value within
    1e-12 (relative above 1), ``observed`` at the observed block sums, one
    value per block-sum vector over every chain checked, the previous value
    itself when a move leaves the sums alone, and at a resync the value the
    accepts reached."""

    def __init__(self, tracker, oracle, observed_b, values):
        self.tracker, self.oracle = tracker, oracle
        self.observed_b, self.values = observed_b, values
        self.seen = set()
        self.b = self.value = None

    def check(self, x, value):
        b = self.oracle.block_sums(x)
        if b == self.observed_b:
            assert value == self.tracker.observed
        else:
            want = self.oracle(x)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        assert self.values.setdefault(b, value) == value
        self.seen.add(b)
        self.b = b
        self.value = value

    def start(self, x_flat):
        value = self.tracker.start(x_flat)
        if self.value is not None:  # a resync
            assert value == self.value
        self.x = list(x_flat)
        self.check(self.x, value)
        return value

    def values_after(self, cells, coefs, ends):
        values = self.tracker.values_after(cells, coefs, ends)
        lo = 0
        for hi, value in zip(ends.tolist(), values.tolist()):
            for f, c in zip(cells[lo:hi].tolist(), coefs[lo:hi].tolist()):
                self.x[f] += c
            b, before = self.b, self.value
            self.check(self.x, value)
            if self.b == b:
                assert value == before
            lo = hi
        return values


LLR_PURITY_CASES = {
    # the seeds visit vectors with a zero block sum
    "victoria": lambda: (victoria_table(), *victoria_models(), 600_000, (11, 12), None),
    # Gilby's nested rectangles put a cell in two term groups
    "gilby-change-point": lambda: (
        gilby_table(), ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 5, 1, 2),)),
        gilby_model(), 50_000, (11, 12), None),
    # more vectors than the cache holds, so values are evicted and refitted
    # (one chain runs on a cache cut to 256 vectors, which a short walk
    # overflows)
    "gilby-independence": lambda: (
        gilby_table(), ModelSpec(family=INDEPENDENCE), gilby_model(), 5_500, (11,), 256),
}


@pytest.mark.parametrize("case", LLR_PURITY_CASES)
def test_llr_is_a_pure_function_of_the_block_sums(case, monkeypatch):
    table, inner, outer, steps, seeds, cache_size = LLR_PURITY_CASES[case]()
    if cache_size:
        monkeypatch.setattr(LLRTracker, "CACHE_SIZE", cache_size)
    R, C = table.R, table.C
    oracle = LLRSumOracle(table, inner, outer, tol=1e-10)
    observed_b = oracle.block_sums(table.vec().tolist())
    cfg = build_configuration(inner, R, C)
    basis = basis_for_model(inner, R, C)
    values = {}
    for seed in seeds:
        # a fresh tracker per chain, so a shared vector is computed twice
        tracker = LLRTracker(table, inner, outer, tol=oracle.tol)
        chain = ChainConfig(steps=steps, burn_in=steps // 10, seed=seed, proposal=basis)
        check = PurityCheck(tracker, oracle, observed_b, values)
        res = walk(table, cfg, chain, check)
        assert res.observed == tracker.observed
        assert res.accept_count > RESYNC_EVERY
        counts = tracker.cache_counts()
        if cache_size:
            assert counts["refits"] > len(check.seen) > cache_size == counts["size"]
    assert len(values) > 50
    if case == "victoria":
        assert any(0 in b for b in values)


LLR_TIE_CASES = {
    "victoria": lambda: (victoria_table(), *victoria_models()),
    "gilby-independence": lambda: (gilby_table(), ModelSpec(family=INDEPENDENCE),
                                   gilby_model()),
}


@pytest.mark.parametrize("case", LLR_TIE_CASES)
def test_observed_llr_is_the_refit_of_the_observed_block_sums(case):
    # ties hold by construction: a fresh refit of the observed vector gives
    # ``observed`` bit for bit, and ``llr_nested`` is the same value
    table, inner, outer = LLR_TIE_CASES[case]()
    tracker = LLRTracker(table, inner, outer)
    assert llr_nested(table, inner, outer) == tracker.observed
    tracker._llr.cache_clear()
    assert tracker.start(table.vec().tolist()) == tracker.observed
    assert tracker.cache_counts() == {"refits": 1, "hits": 0, "size": 1}


def test_make_tracker_dispatch():
    table = gilby_table()
    model = gilby_model()
    assert isinstance(make_tracker("chi2", table, model), ChiSquareTracker)
    assert isinstance(make_tracker("g2", table, model), GSquareTracker)
    common, own = victoria_models()
    assert isinstance(make_tracker("llr", victoria_table(), common, alt=own), LLRTracker)
    with pytest.raises(FitError):
        make_tracker("llr", victoria_table(), common)
    with pytest.raises(ValueError):
        make_tracker("wilks", table, model)


def test_set_up_eliminates_one_gram_matrix_once():
    # the null fit, the degrees of freedom and the tracker's own fit all
    # need the independent rows of one configuration (the benchmark's
    # 24x24 grid with four 6x6 common diagonal blocks)
    bounds = (1, 7, 13, 19, 25)
    model = ModelSpec(family=COMMON_BLOCKS, row_bounds=bounds, col_bounds=bounds)
    table = Table(np.random.default_rng(25).integers(1, 30, size=(24, 24)))
    _gram_pivots.cache_clear()
    fit = ipf_fit(table, model)
    assert degrees_of_freedom(build_configuration(model, 24, 24)) == 24 * 24 - 48
    tracker = make_tracker("chi2", table, model)
    assert _gram_pivots.cache_info().misses == 1
    assert np.array_equal(tracker.expected, fit.expected)
