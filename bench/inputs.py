"""Workload inputs, generated from the run seed.

Everything the program under test receives comes from here: the tables,
the model geometries and the chain settings.  The two embedded datasets are
copied from the source paper's examples (and from ``markovfiber.datasets``)
so that the benchmark's checks do not read the program's own copy.  The
``lazy-grid`` table is drawn from a seeded log-linear model, and every chain
seed is derived from the run seed and the round index, so the same seed
always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

GILBY = [
    [86, 49, 10, 1],
    [102, 116, 24, 3],
    [25, 19, 2, 0],
    [137, 98, 33, 4],
    [209, 222, 73, 16],
    [65, 154, 71, 27],
    [9, 33, 1, 1],
    [3, 60, 51, 21],
]
# change-point model: S1 = rows 1-3 x column 1 inside S2 = rows 1-5 x columns 1-2
GILBY_MODEL = {"family": "change-point", "rectangles": [[1, 3, 1, 1], [1, 5, 1, 2]]}

# birth month by death month, both axes March..February, four seasons
VICTORIA = [
    [0, 0, 2, 1, 0, 0, 0, 0, 0, 1, 1, 0],
    [2, 0, 0, 0, 1, 0, 1, 3, 1, 1, 3, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2, 1],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0],
    [2, 1, 0, 0, 0, 0, 1, 1, 1, 2, 2, 0],
    [0, 3, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 2, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1],
    [1, 1, 2, 0, 0, 2, 0, 1, 1, 0, 0, 1],
    [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 2, 0, 0, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 0, 0, 0, 0, 1, 0, 2, 1, 0],
]
SEASONS = [1, 4, 7, 10, 13]
VICTORIA_NULL = {"family": "common-blocks", "row_bounds": SEASONS, "col_bounds": SEASONS}
VICTORIA_ALT = {"family": "own-blocks", "row_bounds": SEASONS, "col_bounds": SEASONS}

# lazy-grid: 24 x 24, four 6 x 6 diagonal blocks sharing one effect
GRID_BOUNDS = [1, 7, 13, 19, 25]
GRID_MODEL = {"family": "common-blocks", "row_bounds": GRID_BOUNDS, "col_bounds": GRID_BOUNDS}
GRID_TOTAL = 10_000
GRID_EFFECT = 0.5  # log odds of the shared diagonal-block effect

# verify-sweeps: the twelve exactly enumerable fibers of acceptance criterion 9
SMALL_FIBERS = [
    ("indep-3x3-a", {"family": "independence"}, [[1, 0, 1], [0, 1, 0], [1, 0, 1]]),
    ("indep-3x3-b", {"family": "independence"}, [[2, 0, 0], [0, 2, 0], [0, 0, 1]]),
    ("indep-2x4", {"family": "independence"}, [[2, 1, 0, 0], [0, 0, 1, 1]]),
    ("indep-4x4", {"family": "independence"},
     [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ("cp-3x3", {"family": "change-point", "rectangles": [[1, 2, 1, 1]]},
     [[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
    ("cp-4x3", {"family": "change-point", "rectangles": [[1, 2, 1, 1], [1, 3, 1, 2]]},
     [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 0]]),
    ("cp-4x4", {"family": "change-point", "rectangles": [[1, 2, 1, 2], [1, 3, 1, 3]]},
     [[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]),
    ("own-3x3", {"family": "own-blocks", "row_bounds": [1, 2, 3, 4], "col_bounds": [1, 2, 3, 4]},
     [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    ("own-4x4", {"family": "own-blocks", "row_bounds": [1, 3, 5], "col_bounds": [1, 3, 5]},
     [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]),
    ("common-4x4", {"family": "common-blocks", "row_bounds": [1, 3, 5], "col_bounds": [1, 3, 5]},
     [[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0]]),
    ("common-3x3", {"family": "common-blocks", "row_bounds": [1, 2, 3, 4],
                    "col_bounds": [1, 2, 3, 4]},
     [[0, 0, 0], [2, 0, 0], [0, 1, 1]]),
    ("general-4x4", {"family": "general-blocks", "row_bounds": [1, 3, 5],
                     "col_bounds": [1, 3, 5], "groups": [[1, 2]]},
     [[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]),
]

# Reduced grand totals for the sweeps of criteria 5-7 (the acceptance suite
# uses 5): the least total at which each negative control still finds its
# witness, 3 for the own-blocks suite and 4 for the common-blocks suite, and
# 3 for the change-point suite, which has no negative control.
SWEEP_TOTALS = {"change-point": 3, "own-blocks": 3, "common-blocks": 4}
GROBNER_MAX_DIM = 4


def derive_seed(seed: int, round_index: int, stream: int = 0) -> int:
    """Chain seed for one round; distinct rounds and streams never share one."""
    ss = np.random.SeedSequence([seed, round_index, stream])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def lazy_grid_table(seed: int) -> list[list[int]]:
    """Multinomial table from the common-blocks model itself.

    Row and column effects are log-normal (sd 0.3), the diagonal blocks share
    the effect ``GRID_EFFECT``, and the total is ``GRID_TOTAL``, about 17 per
    cell.  Cells that come out 0 are raised to 1, so the null fit is interior
    on every seed and its IPF converges.
    """
    rng = np.random.default_rng([seed, 24])
    n = GRID_BOUNDS[-1] - 1
    a = np.exp(rng.normal(0.0, 0.3, n))
    b = np.exp(rng.normal(0.0, 0.3, n))
    diag = np.zeros((n, n), dtype=bool)
    for lo, hi in zip(GRID_BOUNDS[:-1], GRID_BOUNDS[1:]):
        diag[lo - 1:hi - 1, lo - 1:hi - 1] = True
    p = np.outer(a, b) * np.where(diag, np.exp(GRID_EFFECT), 1.0)
    counts = rng.multinomial(GRID_TOTAL, (p / p.sum()).ravel()).reshape(n, n)
    return np.maximum(counts, 1).tolist()


def independence_chi2(arr) -> float:
    """Pearson chi-square against the independence fit r_i c_j / n.

    Every model here fixes the row and column sums, so this fit is constant
    on a fiber and the function is a valid test statistic for all of them.
    It is the plain callable statistic of the small-fiber walks, and the
    brute-force check evaluates the same function.
    """
    x = np.asarray(arr, dtype=np.float64)
    n = x.sum()
    m = np.outer(x.sum(axis=1), x.sum(axis=0)) / n
    nz = m > 0
    return float((((x - m) ** 2)[nz] / m[nz]).sum())
