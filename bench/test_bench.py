"""Fast tests of the benchmark's output checks: each accepts a right output
and rejects a deliberately wrong one.  Run with

    python3 -m pytest bench/test_bench.py -q
"""

import math

import numpy as np

import checks
import inputs


def encode(samples) -> str:
    import base64

    return base64.b64encode(np.asarray(samples, dtype="<f8").tobytes()).decode()


def chain(samples, observed, burn_in=0, accepts=None):
    samples = np.asarray(samples, dtype=np.float64)
    steps = samples.size + burn_in
    accepts = steps // 2 if accepts is None else accepts
    return {"seed": 0, "steps": steps, "accepts": accepts, "stays": steps - accepts,
            "rejects": 0, "observed": observed,
            "pvalue": checks.addone_pvalue(samples, observed), "samples": encode(samples)}


def test_fit_that_misses_a_margin_is_rejected():
    table = np.asarray(inputs.GILBY)
    masks = checks.term_masks(inputs.GILBY_MODEL, *table.shape)
    assert checks.check_margins(table, table.astype(float), masks, "fit") == []
    wrong = table.astype(float)
    wrong[0, 0] += 0.5
    wrong[0, 1] -= 0.5  # row sums kept, column and rectangle sums broken
    assert checks.check_margins(table, wrong, masks, "fit")


def test_pooled_p_shifted_by_a_tenth_is_rejected():
    rng = np.random.default_rng(0)
    streams = [(rng.random(45_000) < 0.43).astype(float) for _ in range(12)]
    means = np.concatenate([checks.batch_means(s) for s in streams])
    n = sum(s.size for s in streams)
    p = float(np.mean([s.mean() for s in streams]))
    assert checks.check_estimate("p", p, 0.43, 0.03, means, n, m=1) == []
    assert checks.check_estimate("p", p + 0.1, 0.43, 0.03, means, n, m=1)
    assert checks.check_estimate("p", p - 0.1, 0.43, 0.03, means, n, m=1)


def test_chain_whose_counts_do_not_add_up_is_rejected():
    good = chain([1.0, 2.0, 3.0], observed=2.0)
    assert checks.check_chain("c", good, 0) == []
    assert checks.check_chain("c", dict(good, rejects=1), 0)
    assert checks.check_chain("c", dict(good, pvalue=good["pvalue"] + 0.1), 0)
    assert checks.check_chain("c", dict(good, pvalue=0.0), 0)


def test_move_outside_the_kernel_is_rejected():
    R = C = 24
    masks = checks.term_masks(inputs.GRID_MODEL, R, C)
    basic = [[1, 1, 1], [1, 2, -1], [2, 1, -1], [2, 2, 1]]
    draws = [[t, basic] for t in checks.MOVE_TYPES]
    assert checks.check_moves(draws, R, C, masks, "draws") == []
    # rows and columns balance, but the diagonal-block sum changes by 2
    leaky = [[1, 1, 1], [1, 7, -1], [7, 1, -1], [7, 7, 1]]
    assert any("kernel" in p for p in
               checks.check_moves(draws + [["I", leaky]], R, C, masks, "draws"))
    off_grid = [[1, 1, 1], [1, 25, -1], [2, 1, -1], [2, 25, 1]]
    assert checks.check_moves(draws + [["I", off_grid]], R, C, masks, "draws")
    assert any("never drawn" in p for p in
               checks.check_moves(draws[:-1], R, C, masks, "draws"))


def test_exhaustive_fiber_counts():
    assert len(checks.all_tables(3, 3, 4)) == math.comb(4 + 9 - 1, 4)
    table = np.array([[1, 0], [0, 1]])
    fiber = checks.brute_fiber(table, [])
    assert sorted(map(tuple, fiber.tolist())) == [(0, 1, 1, 0), (1, 0, 0, 1)]


def small_fiber_record(name):
    spec, rows = {n: (s, r) for n, s, r in inputs.SMALL_FIBERS}[name]
    table = np.asarray(rows)
    members = checks.brute_fiber(table, checks.term_masks(spec, *table.shape))
    p_exact = checks.brute_pvalue(table, members)
    # an exact sampler: independent draws from the fiber's target law
    logw = np.array([-sum(math.lgamma(v + 1) for v in m) for m in members])
    w = np.exp(logw - logw.max())
    rng = np.random.default_rng(1)
    draws = rng.choice(len(members), size=20_000, p=w / w.sum())
    values = np.array([inputs.independence_chi2(m.reshape(table.shape)) for m in members])
    record = {"name": name, "size": len(members), "overflowed": False,
              "members": members.tolist(), "exact_p": p_exact,
              "chain": chain(values[draws], inputs.independence_chi2(table))}
    return record, table, members, p_exact


def test_wrong_fiber_size_and_shifted_exact_p_are_rejected():
    record, table, members, p_exact = small_fiber_record("indep-3x3-a")
    assert 0.2 < p_exact < 0.8
    assert checks.check_fiber("f", record, table, members, p_exact, 0, 12) == []
    assert checks.check_fiber("f", dict(record, size=record["size"] + 1),
                              table, members, p_exact, 0, 12)
    assert checks.check_fiber("f", dict(record, members=record["members"][1:]),
                              table, members, p_exact, 0, 12)
    assert checks.check_fiber("f", dict(record, exact_p=p_exact + 0.1),
                              table, members, p_exact, 0, 12)
    shifted = dict(record["chain"], pvalue=record["chain"]["pvalue"] + 0.1)
    assert checks.check_fiber("f", dict(record, chain=shifted),
                              table, members, p_exact, 0, 12)


def test_witness_with_unequal_statistics_is_rejected():
    spec = {"family": "own-blocks", "row_bounds": [1, 2, 3, 4], "col_bounds": [1, 2, 3, 4]}
    masks = checks.term_masks(spec, 3, 3)
    a = [0, 1, 0, 0, 0, 1, 1, 0, 0]
    b = [0, 0, 1, 1, 0, 0, 0, 1, 0]
    t = checks.statistic(np.reshape(a, (3, 3)), masks).tolist()
    good = {"label": "w", "R": 3, "C": 3, "model": spec, "types": ["I"], "total": 3,
            "n_tables": math.comb(3 + 8, 3), "n_disconnected": 1, "label_t": t,
            "label_size": 2, "t": t, "size": 2, "members": [a, b]}
    assert checks.check_witness(good) == []
    assert checks.check_witness(dict(good, n_tables=good["n_tables"] - 1))
    assert checks.check_witness(dict(good, size=3))
    c = [1, 0, 0, 0, 0, 1, 0, 1, 0]  # same margins, different diagonal sums
    assert checks.check_witness(dict(good, members=[a, c]))
