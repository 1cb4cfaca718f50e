"""IPF fitting, test statistics, and the sampler-side statistic trackers."""

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
    _group_sums,
    _ipf_core,
    _scaling_families,
    _scaling_groups,
    chi_square,
    g_square,
    ipf_fit,
    llr_nested,
    make_tracker,
)
from markovfiber.mcmc import ChainConfig, run_chains, walk
from markovfiber.models import COMMON_BLOCKS, CHANGE_POINT, GENERAL_BLOCKS, INDEPENDENCE, ModelSpec
from markovfiber.moves import basis_for_model, random_move
from markovfiber.tables import Rectangle, Table, build_configuration, sufficient_statistic
from markovfiber.datasets import gilby_model, gilby_table, victoria_models, victoria_table
from reference_ipf import reference_core, reference_fit

GILBY_CHI2 = 153.66942307412367
GILBY_G2 = 178.2393011182423
VICTORIA_LLR = 3.0739019349974956


def test_independence_fit_is_the_margin_product():
    table = Table.from_rows([[1, 2], [3, 4]])
    fit = ipf_fit(table, ModelSpec(family=INDEPENDENCE))
    assert fit.converged
    r = table.row_sums().astype(float)
    c = table.col_sums().astype(float)
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
    # disjoint groups commute, so scaling a family at once is the same
    # cycle as scaling its groups one by one, up to summation order
    table, model = FAMILY_CASES[case]()
    fit = ipf_fit(table, model, tol=tol)
    ref = reference_fit(table, model, tol=tol)
    assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged)
    assert fit.converged
    assert np.abs(fit.expected - ref.expected).max() <= 1e-12


def test_families_are_maximal_disjoint_runs():
    gilby = _scaling_families(_scaling_groups(gilby_model(), 8, 4), 32)
    # rows, columns, then one family per nested rectangle
    assert [(a, b) for a, b, _, _ in gilby] == [(0, 8), (8, 12)] + [
        (12 + q, 13 + q) for q in range(len(gilby_model().rectangles))]
    assert gilby[0][2] is None and gilby[1][2] is None
    own = _scaling_families(_scaling_groups(victoria_models()[1], 12, 12), 144)
    assert [(a, b) for a, b, _, _ in own] == [(0, 12), (12, 24), (24, 28)]
    assert len(own[2][2]) == 36


def test_positive_group_pinned_to_zero_is_an_error():
    # inconsistent targets: the zero row sums pin every cell of the 2x2,
    # so the first column, whose target is positive, has nothing to scale
    model = ModelSpec(family=INDEPENDENCE)
    families = _scaling_families(_scaling_groups(model, 2, 2), 4)
    targets = np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(FitError, match="pinned to zero"):
        _ipf_core(4, families, targets, 1e-10, 100, 1.0)
    with pytest.raises(FitError, match="pinned to zero"):
        reference_core(4, _scaling_groups(model, 2, 2), targets.tolist(), 1e-10, 100, 1.0)


def test_group_sums_are_the_sufficient_statistic():
    table = gilby_table()
    cfg = build_configuration(gilby_model(), table.R, table.C)
    families = _scaling_families(_scaling_groups(gilby_model(), table.R, table.C),
                                 table.R * table.C)
    assert np.array_equal(_group_sums(families, table.vec().astype(np.float64)),
                          sufficient_statistic(table, cfg).astype(np.float64))


def test_gilby_fit_frozen_values():
    table = gilby_table()
    fit = ipf_fit(table, gilby_model())
    assert chi_square(table, fit.expected) == pytest.approx(GILBY_CHI2, abs=1e-8)
    assert g_square(table, fit.expected) == pytest.approx(GILBY_G2, abs=1e-8)


def test_no_interaction_within_strata():
    # within one stratum the fitted log odds ratios all vanish
    from markovfiber.models import cell_stratum

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
        flats, coefs = random_move(basis, rng).flats_coefs(basis.C)
        if all(x[f] + c >= 0 for f, c in zip(flats, coefs)):
            out.append((flats, coefs))
    return out


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
        new_val = tracker.value_after(x, flats, coefs)
        for f, c in zip(flats, coefs):
            x[f] += c
        moved = Table(np.asarray(x, dtype=np.int64).reshape(table.R, table.C))
        assert new_val == pytest.approx(chi_square(moved, fit_expected), abs=1e-9)
        tracker.accept(x, new_val)
    # the tracker doubles as a plain callable
    assert tracker(np.asarray(x).reshape(table.R, table.C)) == pytest.approx(
        new_val, abs=1e-9)


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
        new_val = tracker.value_after(x, flats, coefs)
        for f, c in zip(flats, coefs):
            x[f] += c
        moved = Table(np.asarray(x, dtype=np.int64).reshape(table.R, table.C))
        assert new_val == pytest.approx(g_square(moved, tracker.expected), abs=1e-9)
        tracker.accept(x, new_val)


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
        new_val = tracker.value_after(x, flats, coefs)
        for f, c in zip(flats, coefs):
            x[f] += c
        moved = Table(np.asarray(x, dtype=np.int64).reshape(12, 12))
        assert new_val == pytest.approx(llr_oracle(moved, common, own), abs=1e-4)
        tracker.accept(x, new_val)


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
