"""Acceptance battery: one test per shipping criterion, tolerances inline.

1. Gilby fit: chi-square 154 +/- 1 on 19 degrees of freedom, under a second.
2. Gilby exact test: 100k-step chain, 10k burn-in, p-value at most 0.001,
   under thirty seconds.
3. Victoria nested fit: log-likelihood ratio 3.07 +/- 0.02, the own-parameter
   model spends 3 more degrees of freedom, under a second.
4. Victoria exact test: four 1M-step chains, 100k burn-in each, pooled
   p-value 0.43 +/- 0.03, under five minutes.
5. Change-point sweeps: every model with up to two nested rectangles on
   grids up to 4x4, all fibers of total at most 5 connected, every basic
   move indispensable, zero failures.
6. Own-parameter block sweeps: two- and three-block geometries up to 6x6
   connect at totals up to 5; with three blocks the minor moves alone must
   leave a disconnected witness.
7. Common-effect block sweeps: three-block geometries up to 6x6 connect at
   totals up to 5; Types I-III without Type IV must leave a witness.
8. Quadratic-basis certificates: every change-point model on grids up to
   4x4, one representative per relabeling class, passes the full S-pair
   reduction check with square-free leads, under two minutes.
9. Sampler correctness: twelve enumerable fibers (sizes 2 to 33), one
   million steps each; per-member occupancy within 3 sigma and the chain
   p-value within 3 standard errors of the exact fiber p-value.
"""

import math
import time

import numpy as np
import pytest

from markovfiber import (
    ChainConfig,
    ModelSpec,
    Rectangle,
    Table,
    basis_for_model,
    build_configuration,
    chi_square,
    degrees_of_freedom,
    enumerate_fiber,
    exact_pvalue,
    ipf_fit,
    llr_nested,
    make_tracker,
    pooled_pvalue,
    run_chains,
    sufficient_statistic,
    walk,
)
from markovfiber.datasets import gilby_model, gilby_table, victoria_models, victoria_table
from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    INDEPENDENCE,
    OWN_BLOCKS,
)
from markovfiber.toric import canonicalize, verify_grobner
from markovfiber.verify import (
    change_point_models,
    change_point_suite,
    common_blocks_suite,
    own_blocks_suite,
)


def test_criterion_1_gilby_fit():
    table = gilby_table()
    model = gilby_model()
    t0 = time.perf_counter()
    fit = ipf_fit(table, model)
    chi2 = chi_square(table, fit.expected)
    elapsed = time.perf_counter() - t0
    df = degrees_of_freedom(build_configuration(model, table.R, table.C))
    assert fit.converged
    assert chi2 == pytest.approx(154.0, abs=1.0)
    assert df == 19
    assert elapsed < 1.0
    print(f"criterion 1 PASS: chi2={chi2:.4f} (154 +/- 1), df={df}, "
          f"{elapsed:.3f}s < 1s")


def test_criterion_2_gilby_exact_test():
    table = gilby_table()
    model = gilby_model()
    cfg = build_configuration(model, table.R, table.C)
    basis = basis_for_model(model, table.R, table.C)
    tracker = make_tracker("chi2", table, model)
    chain = ChainConfig(steps=100_000, burn_in=10_000, thin=1, seed=0,
                        proposal=basis)
    t0 = time.perf_counter()
    results = run_chains(table, cfg, chain, tracker, n_chains=1)
    elapsed = time.perf_counter() - t0
    p = results[0].pvalue
    assert p <= 0.001
    assert elapsed < 30.0
    print(f"criterion 2 PASS: p={p:.3e} <= 0.001, {elapsed:.1f}s < 30s")


def test_criterion_3_victoria_llr():
    table = victoria_table()
    common, own = victoria_models()
    t0 = time.perf_counter()
    llr = llr_nested(table, common, own)
    elapsed = time.perf_counter() - t0
    df_common = degrees_of_freedom(build_configuration(common, 12, 12))
    df_own = degrees_of_freedom(build_configuration(own, 12, 12))
    assert llr == pytest.approx(3.07, abs=0.02)
    assert df_common - df_own == 3
    assert elapsed < 1.0
    print(f"criterion 3 PASS: llr={llr:.4f} (3.07 +/- 0.02), "
          f"df {df_common}-{df_own}=3, {elapsed:.3f}s < 1s")


def test_criterion_4_victoria_exact_test():
    table = victoria_table()
    common, own = victoria_models()
    cfg = build_configuration(common, 12, 12)
    basis = basis_for_model(common, 12, 12)
    tracker = make_tracker("llr", table, common, alt=own)
    chain = ChainConfig(steps=1_000_000, burn_in=100_000, thin=1, seed=0,
                        proposal=basis)
    t0 = time.perf_counter()
    results = run_chains(table, cfg, chain, tracker, n_chains=4)
    elapsed = time.perf_counter() - t0
    p, se = pooled_pvalue(results)
    assert len(results) == 4
    assert len({r.seed for r in results}) == 4
    assert p == pytest.approx(0.43, abs=0.03)
    assert elapsed < 300.0
    print(f"criterion 4 PASS: pooled p={p:.4f} (0.43 +/- 0.03, se={se:.4f}), "
          f"4 seeds, {elapsed:.1f}s < 300s")


def test_criterion_5_change_point_sweeps():
    rep = change_point_suite(max_dim=4, max_total=5)
    assert rep.ok
    assert rep.models_raw == 1589 and rep.models_checked == 106
    assert not rep.connectivity_failures
    assert not rep.indispensability_failures
    print(f"criterion 5 PASS: {rep.models_raw} models "
          f"({rep.models_checked} classes), "
          f"{rep.n_fibers_checked} fibers, zero failures")


def test_criterion_6_own_blocks_sweeps():
    rep = own_blocks_suite(max_total=5)
    assert rep.ok
    assert not rep.connectivity_failures
    assert len(rep.witnesses) >= 1
    assert all("types=I " in w for w in rep.witnesses)
    print(f"criterion 6 PASS: {rep.models_checked} geometries connected, "
          f"{len(rep.witnesses)} minor-only witnesses: {rep.witnesses}")


def test_criterion_7_common_blocks_sweeps():
    rep = common_blocks_suite(max_total=5)
    assert rep.ok
    assert not rep.connectivity_failures
    assert len(rep.witnesses) >= 1
    assert all("types=I,II,III" in w for w in rep.witnesses)
    print(f"criterion 7 PASS: {rep.models_checked} geometries connected, "
          f"{len(rep.witnesses)} truncated-basis witnesses: {rep.witnesses}")


def test_criterion_8_grobner_certificates():
    t0 = time.perf_counter()
    seen = set()
    raw = 0
    pairs = 0
    doubly_strict = (Rectangle(1, 2, 1, 2), Rectangle(1, 3, 1, 3))
    doubly_strict_seen = False
    for R in range(2, 5):
        for C in range(2, 5):
            for model in change_point_models(R, C, max_rects=2):
                raw += 1
                canon, _, _ = canonicalize(model, R, C)
                key = (R, C, canon.rectangles)
                if key in seen:
                    continue
                seen.add(key)
                rep = verify_grobner(canon, R, C, max_dim=4)
                assert rep.certified, (R, C, canon)
                assert rep.initial_square_free, (R, C, canon)
                pairs += rep.pairs_checked
                if (R, C) == (4, 4) and canon.rectangles == doubly_strict:
                    doubly_strict_seen = True
    elapsed = time.perf_counter() - t0
    assert raw == 1589 and len(seen) == 208
    assert doubly_strict_seen
    assert elapsed < 120.0
    print(f"criterion 8 PASS: {len(seen)} classes ({raw} raw models), "
          f"{pairs} S-pairs reduced, square-free leads, {elapsed:.1f}s < 120s")


SAMPLER_CASES = [
    ("indep-3x3-a", ModelSpec(family=INDEPENDENCE),
     [[1, 0, 1], [0, 1, 0], [1, 0, 1]]),
    ("indep-3x3-b", ModelSpec(family=INDEPENDENCE),
     [[2, 0, 0], [0, 2, 0], [0, 0, 1]]),
    ("indep-2x4", ModelSpec(family=INDEPENDENCE),
     [[2, 1, 0, 0], [0, 0, 1, 1]]),
    ("indep-4x4", ModelSpec(family=INDEPENDENCE),
     [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ("cp-3x3", ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),)),
     [[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
    ("cp-4x3", ModelSpec(family=CHANGE_POINT,
                         rectangles=(Rectangle(1, 2, 1, 1), Rectangle(1, 3, 1, 2))),
     [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 0]]),
    ("cp-4x4", ModelSpec(family=CHANGE_POINT,
                         rectangles=(Rectangle(1, 2, 1, 2), Rectangle(1, 3, 1, 3))),
     [[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]),
    ("own-3x3", ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4),
                          col_bounds=(1, 2, 3, 4)),
     [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    ("own-4x4", ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5),
                          col_bounds=(1, 3, 5)),
     [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]),
    ("common-4x4", ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 3, 5),
                             col_bounds=(1, 3, 5)),
     [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0]]),
    ("common-3x3", ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 2, 3, 4),
                             col_bounds=(1, 2, 3, 4)),
     [[0, 0, 0], [2, 0, 0], [0, 1, 1]]),
    ("general-4x4", ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 3, 5),
                              col_bounds=(1, 3, 5), groups=((1, 2),)),
     [[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]),
]


def test_criterion_9_sampler_correctness():
    assert len(SAMPLER_CASES) >= 10
    sizes = []
    worst_z_all = 0.0
    worst_gap_all = 0.0
    for name, model, rows in SAMPLER_CASES:
        table = Table(np.asarray(rows, dtype=np.int64))
        cfg = build_configuration(model, table.R, table.C)
        t = sufficient_statistic(table, cfg)
        fib = enumerate_fiber(t, cfg, cap=200)
        assert not fib.overflowed, name
        size = len(fib)
        assert 2 <= size <= 50, name
        sizes.append(size)

        # target occupancy: normalized multinomial weights of the members
        log_w = np.array([-sum(math.lgamma(x + 1) for x in m) for m in fib.members])
        w = np.exp(log_w - log_w.max())
        probs = w / w.sum()
        index = {m: k for k, m in enumerate(fib.members)}

        def idx_stat(arr, _index=index):
            return float(_index[tuple(int(v) for v in arr.ravel())])

        expected = ipf_fit(table, model).expected

        def chi2_stat(arr, _e=expected):
            return chi_square(Table(np.asarray(arr, dtype=np.int64)), _e)

        basis = basis_for_model(model, table.R, table.C)
        res = walk(table, cfg,
                   ChainConfig(steps=1_000_000, burn_in=10_000, thin=25,
                               seed=0, proposal=basis),
                   idx_stat)

        stream = res.samples.astype(np.int64)
        n = len(stream)
        counts = np.bincount(stream, minlength=size)
        sigma = np.sqrt(n * probs * (1.0 - probs))
        z = np.abs(counts - n * probs) / np.where(sigma > 0, sigma, 1.0)
        worst_z = float(z.max())
        assert worst_z <= 3.0, f"{name}: occupancy z={worst_z:.2f}"
        worst_z_all = max(worst_z_all, worst_z)

        # the same stream, read as the chi-square statistic, must reproduce
        # the exact fiber p-value within Monte Carlo error
        chi2_members = np.array(
            [chi2_stat(np.asarray(m).reshape(table.R, table.C))
             for m in fib.members])
        obs = chi2_stat(table.counts)
        ind = (chi2_members[stream] >= obs - 1e-12).astype(np.float64)
        p_hat = (ind.sum() + 1.0) / (n + 1.0)
        n_batches = 20
        batch = n // n_batches
        means = ind[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)
        se = float(means.std(ddof=1) / math.sqrt(n_batches))
        p_exact = exact_pvalue(table, cfg, chi2_stat)
        if se == 0.0:
            assert p_hat == pytest.approx(p_exact, abs=1e-9), name
        else:
            gap = abs(p_hat - p_exact) / se
            assert gap <= 3.0, f"{name}: p_hat={p_hat:.4f} vs {p_exact:.4f} " \
                               f"({gap:.2f} se)"
            worst_gap_all = max(worst_gap_all, gap)
    print(f"criterion 9 PASS: {len(SAMPLER_CASES)} fibers "
          f"(sizes {min(sizes)}..{max(sizes)}), worst occupancy "
          f"z={worst_z_all:.2f} <= 3, worst p gap={worst_gap_all:.2f}se <= 3")
