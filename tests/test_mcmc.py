"""Metropolis fiber walk: chain mechanics, estimators, stationarity."""

import importlib.util
import math
import tracemalloc
from array import array
from dataclasses import replace
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from markovfiber.fiber import enumerate_fiber, exact_pvalue
from markovfiber.fit import PV_TOL, TrackerError, _CallableTracker, as_tracker, make_tracker
from markovfiber.mcmc import (
    PIECE,
    RESYNC_EVERY,
    ChainConfig,
    ChainError,
    ChainResult,
    estimate_pvalue,
    pooled_pvalue,
    run_chains,
    walk,
)
from markovfiber.models import CHANGE_POINT, COMMON_BLOCKS, INDEPENDENCE, ModelSpec, build_configuration
from markovfiber.moves import LazyMoveBasis, MoveBasis, _Store, basis_for_model
from markovfiber.tables import Rectangle, Table, sufficient_statistic
from markovfiber.datasets import gilby_model, gilby_table, victoria_models, victoria_table
from test_acceptance import SAMPLER_CASES
import reference_walk


def indep_setup(rows):
    model = ModelSpec(family=INDEPENDENCE)
    table = Table.from_rows(rows)
    cfg = build_configuration(model, table.R, table.C)
    basis = basis_for_model(model, table.R, table.C)
    return table, cfg, basis


def test_chain_config_validation():
    basis = basis_for_model(ModelSpec(family=INDEPENDENCE), 2, 2)
    with pytest.raises(ValueError):
        ChainConfig(steps=0, proposal=basis)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, burn_in=10, proposal=basis)
    with pytest.raises(ValueError):
        ChainConfig(steps=10, thin=0, proposal=basis)
    with pytest.raises(ValueError):
        ChainConfig(steps=10)  # no proposal


def test_chain_config_rejects_a_negative_audit_cadence():
    basis = basis_for_model(ModelSpec(family=INDEPENDENCE), 2, 2)
    with pytest.raises(ValueError, match="check_every must be >= 0"):
        ChainConfig(steps=10, check_every=-3, proposal=basis)
    assert ChainConfig(steps=10, check_every=0, proposal=basis).check_every == 0


def test_walk_rejects_mismatched_basis():
    table, cfg, _ = indep_setup([[1, 0], [0, 1]])
    wrong = basis_for_model(ModelSpec(family=INDEPENDENCE), 3, 3)
    with pytest.raises(ValueError):
        walk(table, cfg, ChainConfig(steps=10, proposal=wrong), lambda a: 0.0)


def test_walk_refuses_samples_it_cannot_hold():
    # 2**62 samples of 8 bytes are past numpy's largest array, so the
    # failed allocation allocates nothing
    table, cfg, basis = indep_setup([[1, 0], [0, 1]])
    with pytest.raises(ChainError, match=f"{2 ** 62} kept samples; raise thin or lower steps"):
        walk(table, cfg, ChainConfig(steps=2 ** 62, proposal=basis), lambda a: 0.0)


def test_walk_rejects_non_finite_statistic():
    table, cfg, basis = indep_setup([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        walk(table, cfg, ChainConfig(steps=10, proposal=basis),
             lambda a: float("nan"))


def test_step_accounting_and_sample_length():
    table, cfg, basis = indep_setup([[2, 1], [1, 2]])
    chain = ChainConfig(steps=1000, burn_in=100, thin=7, seed=5, proposal=basis)
    res = walk(table, cfg, chain, lambda a: float(a[0, 0]))
    assert res.accept_count + res.stay_count + res.reject_count == 1000
    assert len(res.samples) == math.ceil((1000 - 100) / 7)
    assert res.steps == 1000 and res.seed == 5
    assert 0.0 <= res.acceptance_rate <= 1.0


class ConstantTracker:
    def start(self, x_flat) -> float:
        return 0.0

    def values_after(self, cells, coefs, ends) -> np.ndarray:
        return np.zeros(len(ends))


def test_walk_memory_is_the_samples_and_one_buffer():
    # unaudited, the steps still run in windows of at most PIECE steps, so
    # a thinned chain holds its samples and one window's moves and values
    # (about 140 kB here, with a batch tracker); a buffer of the chain's
    # length would add 1.6 MB
    table, cfg, basis = indep_setup([[2, 1], [1, 2]])
    tracker = ConstantTracker()
    chain = ChainConfig(steps=200_000, thin=100, check_every=0, seed=3, proposal=basis)
    walk(table, cfg, replace(chain, steps=10), tracker)
    tracemalloc.start()
    try:
        res = walk(table, cfg, chain, tracker)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.samples) == 2_000 and res.accept_count > 0
    assert peak <= res.samples.nbytes + 256 * 1024


def test_large_counts_leave_the_walk_memory_bounded():
    # the walk lists the log-factorials of at most LF_TABLE counts (about
    # 2 MB), whatever the table's counts, where a list up to the largest
    # reachable count took about 32 MB here; a larger count's is lgamma's,
    # the same float, as the reference loop's chain shows
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),))
    table = Table.from_rows([[10 ** 6, 0, 3], [0, 1, 0], [5, 0, 100_000]])
    cfg = build_configuration(model, 3, 3)
    chain = ChainConfig(steps=2_000, seed=0, proposal=basis_for_model(model, 3, 3))
    tracker = make_tracker("chi2", table, model)
    walk(table, cfg, replace(chain, steps=10), tracker)
    tracemalloc.start()
    try:
        res = walk(table, cfg, chain, tracker)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.accept_count > 0 and peak < 8 * 2 ** 20
    assert_same_chain(res, reference_walk.walk(table, cfg, chain, tracker))


def test_walk_is_deterministic_per_seed():
    table, cfg, basis = indep_setup([[2, 1], [1, 2]])
    stat = lambda a: float(a[0, 0])
    a = walk(table, cfg, ChainConfig(steps=2000, seed=42, proposal=basis), stat)
    b = walk(table, cfg, ChainConfig(steps=2000, seed=42, proposal=basis), stat)
    c = walk(table, cfg, ChainConfig(steps=2000, seed=43, proposal=basis), stat)
    assert np.array_equal(a.samples, b.samples)
    assert a.accept_count == b.accept_count
    assert not np.array_equal(a.samples, c.samples)


def test_estimate_pvalue_add_one_formula():
    assert estimate_pvalue([1.0, 2.0, 3.0], 2.0) == pytest.approx(3 / 4)
    assert estimate_pvalue([1.0, 2.0, 3.0], 9.9) == pytest.approx(1 / 4)
    assert estimate_pvalue([1.0], 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        estimate_pvalue([], 1.0)


def test_run_chains_seeds_and_independence():
    table, cfg, basis = indep_setup([[2, 1], [1, 2]])
    chain = ChainConfig(steps=500, seed=7, proposal=basis)
    results = run_chains(table, cfg, chain, lambda a: float(a[0, 0]), n_chains=3)
    assert [r.seed for r in results] == [7, 8, 9]
    solo = walk(table, cfg, ChainConfig(steps=500, seed=8, proposal=basis),
                lambda a: float(a[0, 0]))
    assert np.array_equal(results[1].samples, solo.samples)
    with pytest.raises(ValueError):
        run_chains(table, cfg, chain, lambda a: 0.0, n_chains=0)


def fake_result(samples, observed=0.0):
    arr = np.asarray(samples, dtype=np.float64)
    return ChainResult(samples=arr, accept_count=0, stay_count=0,
                       reject_count=len(arr), observed=observed,
                       pvalue=estimate_pvalue(arr, observed), seed=0,
                       steps=len(arr))


def test_pooled_pvalue_between_chains():
    rs = [fake_result([1, 1, 0, 1], observed=0.5),
          fake_result([1, 0, 0, 1], observed=0.5)]
    p, se = pooled_pvalue(rs)
    ps = [r.pvalue for r in rs]
    assert p == pytest.approx(sum(ps) / 2)
    assert se == pytest.approx(np.std(ps, ddof=1) / math.sqrt(2))


def test_pooled_pvalue_single_chain_batches():
    samples = np.tile(np.array([3.0, 1.0]), 40)  # 80 samples, half >= 2
    r = fake_result(samples, observed=2.0)
    p, se = pooled_pvalue([r])
    assert p == r.pvalue
    ind = (samples >= 2.0).astype(float)
    means = np.array([b.mean() for b in np.array_split(ind, 20)])
    assert se == pytest.approx(np.std(means, ddof=1) / math.sqrt(20))
    with pytest.raises(ValueError):
        pooled_pvalue([])


@pytest.mark.parametrize("n", [1, 2, 3, 19, 20, 21, 80, 1_001, 123_457])
def test_pooled_pvalue_batch_means_are_those_of_the_float_indicator(n):
    # exact counts of the boolean indicator over np.array_split's batches
    # give the floats of the float64 indicator's batch means
    samples = np.random.default_rng(n).integers(0, 4, n).astype(float)
    r = fake_result(samples, observed=2.0)
    _, se = pooled_pvalue([r])
    ind = (samples >= 2.0 - PV_TOL).astype(np.float64)
    n_batches = min(20, n)
    if n_batches < 2:
        assert math.isnan(se)
        return
    means = np.array([b.mean() for b in np.array_split(ind, n_batches)])
    assert se == float(np.std(means, ddof=1) / math.sqrt(n_batches))


def test_two_state_fiber_occupancy_is_even():
    table, cfg, basis = indep_setup([[1, 0], [0, 1]])
    t = sufficient_statistic(table, cfg)
    fib = enumerate_fiber(t, cfg)
    assert len(fib) == 2  # both weights are 1
    res = walk(table, cfg,
               ChainConfig(steps=100_000, burn_in=5_000, thin=10, seed=2,
                           proposal=basis),
               lambda a: float(a[0, 0]))
    share = float((res.samples >= 0.5).mean())
    n = len(res.samples)
    assert abs(share - 0.5) < 3 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("rows", [[[5, 0], [0, 0]], [[3, 0, 0], [0, 0, 0]]])
def test_a_proposal_may_raise_a_cell_above_the_total(rows):
    # a move's first cell can rise above the table's total before a later
    # cell goes negative; the fiber is the table alone, so every step stays
    table, cfg, basis = indep_setup(rows)
    chain = ChainConfig(steps=500, burn_in=50, seed=0, proposal=basis)
    tracker = make_tracker("chi2", table, ModelSpec(family=INDEPENDENCE))
    res = walk(table, cfg, chain, tracker)
    assert res.stay_count == 500 and res.pvalue == 1.0
    assert_same_chain(res, reference_walk.walk(table, cfg, chain, tracker))


def test_sampler_pvalue_matches_exact_on_small_fiber():
    table, cfg, basis = indep_setup([[2, 0], [0, 1]])

    def stat(arr):
        return float(arr[0, 0])

    p_exact = exact_pvalue(table, cfg, stat)
    assert p_exact == pytest.approx(1 / 3)
    res = walk(table, cfg,
               ChainConfig(steps=200_000, burn_in=10_000, thin=10, seed=3,
                           proposal=basis), stat)
    _, se = pooled_pvalue([res])
    assert abs(res.pvalue - p_exact) <= 3 * max(se, 1e-4)


def test_lazy_sampler_pvalue_matches_exact_on_small_fiber():
    # three diagonal blocks, so the lazy basis draws all five move types
    model = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 2, 3, 5), col_bounds=(1, 2, 3, 5))
    table = Table.from_rows([[2, 1, 1, 0], [1, 2, 0, 1], [1, 0, 2, 1], [0, 1, 1, 2]])
    cfg = build_configuration(model, 4, 4)
    lazy = LazyMoveBasis(model, 4, 4)

    def stat(arr):
        return float(arr[0, 2] + arr[2, 0])

    p_exact = exact_pvalue(table, cfg, stat)
    res = walk(table, cfg,
               ChainConfig(steps=200_000, burn_in=10_000, thin=10, seed=3,
                           proposal=lazy), stat)
    _, se = pooled_pvalue([res])
    assert abs(res.pvalue - p_exact) <= 3 * max(se, 1e-4)


def test_gilby_chain_leaves_the_observed_statistic_behind():
    # the observed table is far out in the tail, so the chain should
    # essentially never revisit values that extreme
    table = gilby_table()
    model = gilby_model()
    cfg = build_configuration(model, 8, 4)
    basis = basis_for_model(model, 8, 4)
    tracker = make_tracker("chi2", table, model)
    res = walk(table, cfg,
               ChainConfig(steps=20_000, burn_in=2_000, proposal=basis), tracker)
    assert res.pvalue < 0.01
    assert res.observed == pytest.approx(153.66942307412367, abs=1e-8)


def indep_chi2(arr):
    x = np.asarray(arr, dtype=np.float64)
    m = np.outer(x.sum(axis=1), x.sum(axis=0)) / x.sum()
    nz = m > 0
    return float((((x - m) ** 2)[nz] / m[nz]).sum())


class RecomputingTracker:
    """Tracker protocol around a plain callable that evaluates it at every
    state, with no cache: the reference the cached adapter must match.  It
    replays each move on its own int64 copy of the state."""

    def __init__(self, fn, R, C):
        self.fn, self.shape = fn, (R, C)

    def start(self, x_flat):
        self.x = np.array(x_flat, dtype=np.int64)
        return float(self.fn(self.x.reshape(self.shape).copy()))

    def values_after(self, cells, coefs, ends):
        out, lo = [], 0
        for hi in ends.tolist():
            self.x[cells[lo:hi]] += coefs[lo:hi]
            out.append(float(self.fn(self.x.reshape(self.shape).copy())))
            lo = hi
        return np.array(out)


class StartOnly:
    """A tracker with ``start`` and no ``values_after``."""

    def __init__(self, fn, R, C):
        self.fn, self.shape = fn, (R, C)

    def start(self, x_flat):
        return float(self.fn(np.asarray(x_flat, dtype=np.int64).reshape(self.shape)))


class PerMoveThatRaises(StartOnly):
    """A tracker of the older per-move protocol whose ``value_after`` must
    never be called."""

    def value_after(self, x_flat, flats, coefs):
        raise AssertionError("value_after was called")


def test_as_tracker_returns_a_batch_tracker_and_refuses_a_non_statistic():
    tracker = make_tracker("chi2", gilby_table(), gilby_model())
    assert as_tracker(tracker, 8, 4) is tracker
    with pytest.raises(TrackerError):
        as_tracker(object(), 2, 2)


@pytest.mark.parametrize("kind", [StartOnly, PerMoveThatRaises])
def test_a_tracker_without_values_after_is_valued_by_its_start(kind):
    # it walks bit for bit as the same function given as a plain callable
    table, model = gilby_table(), gilby_model()
    cfg = build_configuration(model, 8, 4)
    chain = ChainConfig(steps=5_000, burn_in=500, thin=3, seed=9,
                        proposal=basis_for_model(model, 8, 4))
    res = walk(table, cfg, chain, kind(indep_chi2, 8, 4))
    assert_same_chain(res, walk(table, cfg, chain, indep_chi2))
    assert res.accept_count > 0 and len(set(res.samples.tolist())) > 1


def assert_same_chain(a, b):
    assert a.samples.tobytes() == b.samples.tobytes()
    assert (a.accept_count, a.stay_count, a.reject_count) == \
        (b.accept_count, b.stay_count, b.reject_count)
    assert (a.observed, a.pvalue) == (b.observed, b.pvalue)


@pytest.mark.parametrize("name,model,rows", SAMPLER_CASES, ids=[c[0] for c in SAMPLER_CASES])
def test_callable_is_evaluated_once_per_fiber_state(name, model, rows):
    table = Table(np.asarray(rows, dtype=np.int64))
    cfg = build_configuration(model, table.R, table.C)
    size = len(enumerate_fiber(sufficient_statistic(table, cfg), cfg, cap=200))
    chain = ChainConfig(steps=30_000, burn_in=3_000, seed=4,
                        proposal=basis_for_model(model, table.R, table.C))
    seen = []

    def counting(arr):
        seen.append(tuple(int(v) for v in arr.ravel()))
        return indep_chi2(arr)

    res = walk(table, cfg, chain, counting)
    assert len(seen) == len(set(seen)) <= size
    assert_same_chain(res, walk(table, cfg, chain,
                                RecomputingTracker(indep_chi2, table.R, table.C)))


def test_callable_cache_stays_bounded_on_a_large_fiber():
    table = gilby_table()
    model = gilby_model()
    cfg = build_configuration(model, 8, 4)
    chain = ChainConfig(steps=30_000, burn_in=3_000, seed=1,
                        proposal=basis_for_model(model, 8, 4))
    calls = []

    def counting(arr):
        calls.append(1)
        return indep_chi2(arr)

    tracker = _CallableTracker(counting, 8, 4)
    res = walk(table, cfg, chain, tracker)
    info = tracker._value.cache_info()
    assert info.currsize <= _CallableTracker.CACHE_SIZE
    assert info.misses == len(calls) > _CallableTracker.CACHE_SIZE  # states were evicted
    assert_same_chain(res, walk(table, cfg, chain, RecomputingTracker(indep_chi2, 8, 4)))


class CountingTracker:
    """Tracker around another that logs each call: the state a start sees,
    and the move count of a batch with the state after it, which the
    tracker follows by applying the batch to its own copy."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def start(self, x_flat):
        self.x = np.array(x_flat, dtype=np.int64)
        self.calls.append(("start", tuple(x_flat)))
        return self.inner.start(x_flat)

    def values_after(self, cells, coefs, ends):
        np.add.at(self.x, cells, coefs)
        self.calls.append(("values_after", len(ends), tuple(self.x.tolist())))
        return self.inner.values_after(cells, coefs, ends)


RESYNC_CASES = {
    "gilby-chi2": lambda: (gilby_table(), gilby_model(), None, "chi2", 20_000),
    "gilby-g2": lambda: (gilby_table(), gilby_model(), None, "g2", 20_000),
    "victoria-llr": lambda: (victoria_table(), *victoria_models(), "llr", 250_000),
}


@pytest.mark.parametrize("case", RESYNC_CASES)
def test_walk_resyncs_the_tracker_every_4096_accepts(case):
    # the walk, not the tracker, owns the drift reset: start() once per
    # chain and once more after every RESYNC_EVERY-th accept, on the state
    # the batched moves reached; no batch spans a resync or more than PIECE
    # steps' accepts
    assert RESYNC_EVERY == 4096
    table, model, alt, stat, steps = RESYNC_CASES[case]()
    cfg = build_configuration(model, table.R, table.C)
    chain = ChainConfig(steps=steps, burn_in=steps // 10, seed=2,
                        proposal=basis_for_model(model, table.R, table.C))
    inner = make_tracker(stat, table, model, alt=alt)
    tracker = CountingTracker(inner)
    results = run_chains(table, cfg, chain, tracker, n_chains=2)
    calls = iter(tracker.calls)
    for res in results:
        assert res.accept_count > RESYNC_EVERY
        kind, state = next(calls)
        assert kind == "start" and state == tuple(table.vec().tolist())
        done = 0
        while done < res.accept_count:
            kind, n, state = next(calls)
            assert kind == "values_after" and 1 <= n <= PIECE
            assert (done + n - 1) // RESYNC_EVERY == done // RESYNC_EVERY
            done += n
            if done % RESYNC_EVERY == 0:
                assert next(calls) == ("start", state)
        assert done == res.accept_count
        # the last sample against a full recompute at the chain's last state
        assert abs(res.samples[-1] - inner.start(list(state))) <= 1e-9
    assert next(calls, None) is None


def test_bench_constant_tracker_walks_like_the_chi2_tracker():
    # the benchmark's traced rounds time the bare walk with this tracker;
    # it must keep fitting the tracker protocol and visit the same states
    path = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    table = gilby_table()
    model = gilby_model()
    cfg = build_configuration(model, 8, 4)
    chain = ChainConfig(steps=5_000, seed=7, proposal=basis_for_model(model, 8, 4))
    const = walk(table, cfg, chain, worker.ConstantTracker())
    chi2 = walk(table, cfg, chain, make_tracker("chi2", table, model))
    assert not const.samples.any() and len(const.samples) == 5_000
    assert (const.accept_count, const.stay_count, const.reject_count) == (
        chi2.accept_count, chi2.stay_count, chi2.reject_count)


def grid_setup():
    """A 24x24 table with four 6x6 common diagonal blocks: above the
    enumeration threshold, so its basis is lazy."""
    model = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 7, 13, 19, 25),
                      col_bounds=(1, 7, 13, 19, 25))
    rng = np.random.default_rng(24)
    band = np.arange(24) // 6
    p = np.where(band[:, None] == band[None, :], math.exp(0.5), 1.0)
    counts = rng.multinomial(10_000, (p / p.sum()).ravel()).reshape(24, 24)
    return Table(np.maximum(counts, 1)), model


# case -> (table, model, alt, statistic, steps); statistic None is the plain
# callable indep_chi2
ORACLE_CASES = {
    "gilby-chi2": lambda: (gilby_table(), gilby_model(), None, "chi2", 10_007),
    "gilby-g2": lambda: (gilby_table(), gilby_model(), None, "g2", 10_007),
    "victoria-llr": lambda: (victoria_table(), *victoria_models(), "llr", 2_000),
    "grid-chi2": lambda: (*grid_setup(), None, "chi2", 10_007),
    "indep-3x3-a": lambda: (Table.from_rows(SAMPLER_CASES[0][2]), SAMPLER_CASES[0][1],
                            None, None, 10_007),
}


@lru_cache(maxsize=None)
def oracle_case(case):
    table, model, alt, stat, steps = ORACLE_CASES[case]()
    cfg = build_configuration(model, table.R, table.C)
    basis = basis_for_model(model, table.R, table.C)
    statistic = indep_chi2 if stat is None else make_tracker(stat, table, model, alt=alt)
    return table, cfg, basis, statistic, steps


@pytest.mark.parametrize("burn_in,thin,check_every",
                         list(product((0, 1, 999), (1, 3, 7), (0, 1, 7, 1000))))
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_walk_matches_the_reference_loop(case, burn_in, thin, check_every):
    # the block loop, the per-piece sample copy and the negated coefficient
    # copy change no draw, decision or float of the step-by-step loop
    table, cfg, basis, statistic, steps = oracle_case(case)
    assert basis.kind == ("lazy" if case == "grid-chi2" else "enumerated")
    chain = ChainConfig(steps=steps, burn_in=burn_in, thin=thin, seed=5,
                        check_every=check_every, proposal=basis)
    assert_same_chain(walk(table, cfg, chain, statistic),
                      reference_walk.walk(table, cfg, chain, statistic))


@pytest.mark.parametrize("check_every", (0, 1, 7, 1000))
def test_audit_raises_at_the_reference_step(check_every):
    # a broken "move" shifts a count along row 1, so its first accept
    # changes two column sums and leaves the fiber
    table, cfg, _ = indep_setup([[2, 2], [2, 2]])
    broken = MoveBasis(2, 2, _Store(array("i", [0, 2]), array("h", [0, 1]), array("b", [1, -1]),
                                    array("B", [0]), array("b", [-1, 1])))
    chain = ChainConfig(steps=10_007, seed=3, check_every=check_every, proposal=broken)
    stat = lambda a: float(a[0, 0])
    if not check_every:  # unaudited: both loops walk on off the fiber alike
        assert_same_chain(walk(table, cfg, chain, stat),
                          reference_walk.walk(table, cfg, chain, stat))
        return
    with pytest.raises(AssertionError, match="fiber invariant broken at step") as want:
        reference_walk.walk(table, cfg, chain, stat)
    with pytest.raises(AssertionError) as got:
        walk(table, cfg, chain, stat)
    assert str(got.value) == str(want.value)
