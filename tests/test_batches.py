"""Batched trackers: the moves of a window valued in one ``values_after`` call
give, byte for byte, the values the same moves give fed one at a time (and,
for chi2 and g2, the values of scalar cell formulas applied one changed
cell at a time), and the walk's windows (across a lazy refill, up to a
resync) keep the chain of the step-by-step reference loop."""

import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from markovfiber.fit import _g2_cell, as_tracker as _as_tracker, make_tracker
from markovfiber.mcmc import PIECE, RESYNC_EVERY, ChainConfig, walk
from markovfiber.models import CHANGE_POINT, INDEPENDENCE, ModelSpec, build_configuration
from markovfiber.moves import _LAZY_BATCH, basis_for_model
from markovfiber.tables import Rectangle, Table
from markovfiber.datasets import gilby_model, gilby_table
from test_mcmc import StartOnly, assert_same_chain, grid_setup, indep_chi2
import reference_walk

# independence with an empty row and column: the fitted means there are 0
STRUCTURAL_ZERO = [[3, 1, 0, 2], [0, 0, 0, 0], [1, 2, 0, 4], [2, 0, 0, 1]]


def gilby():
    return gilby_table(), gilby_model(), ModelSpec(family=INDEPENDENCE)


def structural_zero():
    return (Table.from_rows(STRUCTURAL_ZERO), ModelSpec(family=INDEPENDENCE), None)


def grid():
    return (*grid_setup(), None)


# case -> (table, model, inner model of the llr or None); the Gilby
# table's counts of 0 and 1 reach 0 under its moves, and the grid's basis
# is lazy.  Statistic "per-move" is a tracker with only ``start``, the shape
# of a tracker of the older per-move protocol, which ``as_tracker`` values
# by its ``start``
BASES = {"gilby": gilby, "structural-zero": structural_zero, "grid": grid}
CASES = [(case, stat) for case in BASES
         for stat in ("chi2", "g2", "llr", "callable", "per-move")
         if (case, stat) != ("grid", "llr")]


def tracker_for(stat, table, model, inner):
    if stat == "llr":
        # the table's model is the outer one, independence inside it
        return make_tracker("llr", table, inner, alt=model)
    if stat == "callable":
        return _as_tracker(indep_chi2, table.R, table.C)
    if stat == "per-move":
        return _as_tracker(StartOnly(indep_chi2, table.R, table.C), table.R, table.C)
    return make_tracker(stat, table, model)


def chi2_cell(x, m):
    """The scalar Pearson term (x - m)^2 / m."""
    if m == 0.0:
        return math.inf if x > 0 else 0.0
    d = x - m
    return d * d / m


class PerCellReference:
    """A fixed-fit statistic one changed cell at a time, with a scalar cell
    formula: each cell's term is kept, and a move adds new - old for each
    cell it changes, in order."""

    def __init__(self, cell, expected):
        self.cell, self.m = cell, expected.ravel().tolist()

    def start(self, x_flat):
        self.x = list(x_flat)
        self.terms = list(map(self.cell, self.x, self.m))
        self.value = 0.0
        for term in self.terms:
            self.value += term
        return self.value

    def values_after(self, cells, coefs, ends):
        out = []
        for f, c, last in zip(cells.tolist(), coefs.tolist(),
                              np.isin(np.arange(len(cells)), ends - 1)):
            self.x[f] += c
            new = self.cell(self.x[f], self.m[f])
            self.value += new - self.terms[f]
            self.terms[f] = new
            if last:
                out.append(self.value)
        return np.array(out)


def moves_from(table, basis, rng, n):
    """n moves of the basis's sampler, each with a random sign and applied
    when it keeps every count nonnegative: (cells, coefs) int arrays."""
    x = table.vec().astype(np.int64)
    draw, (off, flat, coef, _, _) = basis.sampler(rng)
    out = []
    while len(out) < n:
        k = draw()
        cells = np.array(flat[off[k]:off[k + 1]])
        coefs = np.array(coef[off[k]:off[k + 1]]) * (1 if rng.random() < 0.5 else -1)
        if (x[cells] + coefs >= 0).all():
            x[cells] += coefs
            out.append((cells, coefs))
    return out


def batch(moves):
    cells = np.concatenate([c for c, _ in moves])
    coefs = np.concatenate([c for _, c in moves]).astype(np.int8)
    ends = np.cumsum([len(c) for c, _ in moves])
    return cells, coefs, ends


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case,stat", CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_a_batch_equals_its_moves_one_at_a_time(case, stat, seed):
    table, model, inner = BASES[case]()
    if stat == "llr" and inner is None:  # independence inside a rectangle
        inner, model = model, ModelSpec(family=CHANGE_POINT,
                                        rectangles=(Rectangle(1, 3, 1, 2),))
    basis = basis_for_model(model if stat != "llr" else inner, table.R, table.C)
    assert basis.kind == ("lazy" if case == "grid" else "enumerated")
    rng = random.Random(seed)
    moves = moves_from(table, basis, rng, 2_500)
    batched = tracker_for(stat, table, model, inner)
    single = tracker_for(stat, table, model, inner)
    x0 = table.vec().tolist()
    assert batched.start(x0) == single.start(x0)

    got, want = [], []
    lo = 0
    while lo < len(moves):
        hi = min(len(moves), lo + rng.choice([1, 2, 7, 100, 613]))
        values = batched.values_after(*batch(moves[lo:hi]))
        assert values.dtype == np.float64 and len(values) == hi - lo
        got.append(values)
        want += [single.values_after(*batch([m]))[0] for m in moves[lo:hi]]
        lo = hi
    assert np.concatenate(got).tobytes() == np.array(want).tobytes()
    if stat in ("chi2", "g2"):
        # and the scalar formulas, one changed cell at a time, give them too
        reference = PerCellReference(chi2_cell if stat == "chi2" else _g2_cell,
                                     batched.expected)
        assert reference.start(x0) == batched.observed
        assert reference.values_after(*batch(moves)).tobytes() == np.array(want).tobytes()
    if stat == "llr":
        assert batched.cache_counts() == single.cache_counts()
        # V is looked up for the observed table, at the start, and once per
        # move that changed the block sums
        R, C = table.R, table.C
        terms = build_configuration(model, R, C).matrix[R + C:].astype(np.int64)
        changed = sum(bool((terms[:, cells] @ coefs).any()) for cells, coefs in moves)
        counts = batched.cache_counts()
        assert counts["refits"] + counts["hits"] == 2 + changed < 2 + len(moves)
    # both end at the same state, which a fresh start values alike
    x = np.array(x0)
    emptied = np.zeros(x.size, dtype=bool)
    for cells, coefs in moves:
        x[cells] += coefs
        emptied[cells] |= x[cells] == 0
    assert batched.start(x.tolist()) == single.start(x.tolist())
    if case == "gilby":  # positive counts reach 0, whose g2 term is 0
        assert (emptied & (np.array(x0) > 0)).any()


class Recorder:
    """Tracker around another that logs the move count of each batch."""

    def __init__(self, inner):
        self.inner, self.sizes = inner, []

    def start(self, x_flat):
        self.sizes.append(0)
        return self.inner.start(x_flat)

    def values_after(self, cells, coefs, ends):
        self.sizes.append(len(ends))
        return self.inner.values_after(cells, coefs, ends)


@pytest.mark.parametrize("stat", ["chi2", "g2", "callable"])
def test_lazy_windows_span_refills_and_end_at_the_resync(stat, monkeypatch):
    # a lazy sampler refills its store in place about every thousand draws,
    # so a window of PIECE steps holds moves drawn from several stores; the
    # walk copies their entries, and its chain is the reference loop's
    table, model = grid_setup()
    cfg = build_configuration(model, table.R, table.C)
    basis = basis_for_model(model, table.R, table.C)
    assert basis.kind == "lazy"
    refills = []
    batch_of = type(basis)._batch

    def counted(self, rng):
        refills.append(1)
        return batch_of(self, rng)

    monkeypatch.setattr(type(basis), "_batch", counted)
    statistic = indep_chi2 if stat == "callable" else make_tracker(stat, table, model)
    recorder = Recorder(_as_tracker(statistic, table.R, table.C))
    chain = ChainConfig(steps=6_007, burn_in=100, thin=3, seed=8, proposal=basis)
    res = walk(table, cfg, chain, recorder)
    assert res.accept_count > RESYNC_EVERY
    # a store holds at most _LAZY_BATCH draws, so the first window, of PIECE
    # steps, holds the moves of several stores
    assert PIECE >= 2 * _LAZY_BATCH and len(refills) >= chain.steps // _LAZY_BATCH
    # a start (0 moves) begins the chain, and the one resync follows the
    # window that ends at the RESYNC_EVERY-th accept
    starts = [k for k, n in enumerate(recorder.sizes) if n == 0]
    assert len(starts) == 2 and starts[0] == 0
    assert sum(recorder.sizes[:starts[1]]) == RESYNC_EVERY
    assert sum(recorder.sizes) == res.accept_count and max(recorder.sizes) <= PIECE
    assert_same_chain(res, reference_walk.walk(table, cfg, chain, statistic))


@pytest.mark.parametrize("check_every", [0, 1000])
@pytest.mark.parametrize("adapter", ["callable", "per-move"])
def test_a_non_finite_value_raises_at_its_step(adapter, check_every):
    # the value turns infinite the first time the corner cell empties, in
    # the middle of a window; the error names the step the reference loop
    # names
    table = Table.from_rows([[3, 1], [1, 3]])
    model = ModelSpec(family=INDEPENDENCE)
    cfg = build_configuration(model, 2, 2)
    chain = ChainConfig(steps=20_000, seed=6, check_every=check_every,
                        proposal=basis_for_model(model, 2, 2))

    def corner(arr):
        return math.inf if arr[0, 0] == 0 else float(arr[0, 0])

    statistic = corner if adapter == "callable" else StartOnly(corner, 2, 2)
    with pytest.raises(ValueError, match="became non-finite at step") as want:
        reference_walk.walk(table, cfg, chain, statistic)
    step = int(str(want.value).split("step ")[1].split(":")[0])
    assert 0 < step % PIECE
    with pytest.raises(ValueError) as got:
        walk(table, cfg, chain, statistic)
    assert str(got.value) == str(want.value)
    # the same walk cut short of that step runs through
    walk(table, cfg, replace(chain, steps=step), statistic)


# a Gilby chain of 5,000 steps, seed 21, as the per-step trackers gave it
# (each changed cell's term in Python, g2 by math.log): the observed value
# and the first 24 hex digits of the sha256 of the samples' bytes
PINNED = {
    "chi2": ("0x1.3356be9f0536ap+7", "a51e719c5d13700b89b9d20b"),
    "g2": ("0x1.647a85ad1c719p+7", "a9d2917f3393aba611768a4b"),
}


@pytest.mark.parametrize("stat", PINNED)
def test_gilby_chain_values_are_pinned_to_the_bit(stat):
    table, model = gilby_table(), gilby_model()
    cfg = build_configuration(model, 8, 4)
    chain = ChainConfig(steps=5_000, seed=21, proposal=basis_for_model(model, 8, 4))
    res = walk(table, cfg, chain, make_tracker(stat, table, model))
    digest = hashlib.sha256(res.samples.tobytes()).hexdigest()[:24]
    assert (res.observed.hex(), digest) == PINNED[stat]
