"""Tables, cell geometry, configurations and exact rank."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from markovfiber.tables import (
    Configuration,
    Rectangle,
    Table,
    TableError,
    build_configuration,
    cell_of,
    config_rank,
    degrees_of_freedom,
    flat_index,
    rational_rank,
    read_table_csv,
    row_space_contains,
    sufficient_statistic,
    write_table_csv,
)
from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    INDEPENDENCE,
    OWN_BLOCKS,
    ModelSpec,
)
from markovfiber.datasets import gilby_model, gilby_table, victoria_models, victoria_table


def test_flat_index_round_trip():
    C = 5
    for i in range(1, 4):
        for j in range(1, C + 1):
            assert cell_of(flat_index(i, j, C), C) == (i, j)
    assert flat_index(1, 1, C) == 0
    assert flat_index(2, 1, C) == C


def test_table_validation():
    with pytest.raises(TableError):
        Table(np.array([1, 2, 3]))
    with pytest.raises(TableError):
        Table(np.array([[1, 2]]))  # one row
    with pytest.raises(TableError):
        Table(np.array([[1], [2]]))  # one column
    with pytest.raises(TableError):
        Table(np.array([[1, -1], [0, 2]]))


def test_table_is_immutable():
    t = Table.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        t.counts[0, 0] = 9
    assert t.total == 10
    assert t.row_sums().tolist() == [3, 7]
    assert t.col_sums().tolist() == [4, 6]


def test_table_equality_and_hash():
    a = Table.from_rows([[1, 2], [3, 4]])
    b = Table.from_rows([[1, 2], [3, 4]])
    c = Table.from_rows([[1, 2, 0], [3, 4, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_rectangle_basics():
    r = Rectangle(1, 2, 1, 3)
    assert r.n_cells == 6
    assert set(r.cells()) == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}
    assert r.contains(2, 3) and not r.contains(3, 1)
    assert Rectangle(1, 3, 1, 3).contains_rect(r)
    assert not r.contains_rect(Rectangle(1, 3, 1, 3))
    # degenerate strips are fine, a single cell is not
    assert Rectangle(1, 1, 1, 2).n_cells == 2
    with pytest.raises(TableError):
        Rectangle(1, 1, 1, 1)
    with pytest.raises(TableError):
        Rectangle(2, 1, 1, 2)


def test_configuration_row_layout():
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 3, 4)
    assert cfg.T == 7 and cfg.Q == 0
    assert cfg.labels == ("row:1", "row:2", "row:3", "col:1", "col:2", "col:3", "col:4")
    # each cell sits in exactly one row sum and one column sum
    assert (cfg.matrix[:3].sum(axis=0) == 1).all()
    assert (cfg.matrix[3:].sum(axis=0) == 1).all()


def test_configuration_rejects_bad_shapes():
    with pytest.raises(TableError):
        Configuration(R=2, C=2, matrix=np.zeros((3, 4), dtype=np.uint8),
                      labels=("a", "b"))
    # a column not covered by any row-sum row
    mat = np.zeros((4, 4), dtype=np.uint8)
    mat[0, :2] = 1
    mat[1, 2:] = 1
    mat[2, (0, 2)] = 1  # col sums miss flats 1 and 3
    mat[3, (0, 2)] = 1
    with pytest.raises(TableError):
        Configuration(R=2, C=2, matrix=mat, labels=("row:1", "row:2", "col:1", "col:2"))


def test_sufficient_statistic_matches_direct_sums():
    table = gilby_table()
    cfg = build_configuration(gilby_model(), table.R, table.C)
    t = sufficient_statistic(table, cfg)
    assert t[:8].tolist() == table.row_sums().tolist()
    assert t[8:12].tolist() == table.col_sums().tolist()
    # subtable sums recomputed straight from the counts
    s1 = int(table.counts[0:3, 0:1].sum())
    s2 = int(table.counts[0:5, 0:2].sum())
    assert t[12] == s1 == 213
    assert t[13] == s2 == 1063
    assert cfg.labels[12:] == ("sub:1", "sub:2")


def test_sufficient_statistic_dimension_check():
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 3, 3)
    with pytest.raises(TableError):
        sufficient_statistic(Table.from_rows([[1, 2], [3, 4]]), cfg)


def test_term_cells_reads_back_the_subtable():
    cfg = build_configuration(gilby_model(), 8, 4)
    assert cfg.term_cells(1) == frozenset({(1, 1), (2, 1), (3, 1)})
    assert cfg.term_cells(2) == frozenset(Rectangle(1, 5, 1, 2).cells())


def test_rational_rank_is_exact_on_big_integers():
    # det = 1, but the rows are float64-indistinguishable
    rows = [[10**18 + 1, 1], [10**18, 1]]
    assert rational_rank(rows) == 2
    assert np.linalg.matrix_rank(np.array(rows, dtype=np.float64)) == 1
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([]) == 0


RANK_CASES = [
    (ModelSpec(family=INDEPENDENCE), 8, 4, 11),
    (gilby_model(), 8, 4, 13),
    (victoria_models()[0], 12, 12, 24),
    (victoria_models()[1], 12, 12, 27),
    (ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5),
               groups=((1, 2),)), 4, 4, 8),
    # with two blocks the own-parameter model collapses onto the common one
    (ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5)),
     4, 4, 8),
    (ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5, 7), col_bounds=(1, 3, 5, 7)),
     6, 6, 14),
]


@pytest.mark.parametrize("model,R,C,expected", RANK_CASES)
def test_config_rank_against_sympy(model, R, C, expected):
    cfg = build_configuration(model, R, C)
    assert config_rank(cfg) == expected
    oracle = sympy.Matrix(cfg.matrix.tolist()).rank()
    assert oracle == expected


def fraction_rank(rows):
    """Gaussian elimination over Fraction: the reference for rational_rank."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] * inv
            if factor:
                row_r = work[r]
                for c in range(col, ncols):
                    row_r[c] -= factor * prow[c]
        rank += 1
        col += 1
    return rank


def _suite_configurations():
    from markovfiber.verify import COMMON_SUITE_GEOMETRIES, OWN_SUITE_GEOMETRIES

    for family, geometries in ((OWN_BLOCKS, OWN_SUITE_GEOMETRIES),
                               (COMMON_BLOCKS, COMMON_SUITE_GEOMETRIES)):
        for R, C, rb, cb in geometries:
            yield ModelSpec(family=family, row_bounds=rb, col_bounds=cb), R, C


GRID_24 = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 7, 13, 19, 25),
                    col_bounds=(1, 7, 13, 19, 25))


@pytest.mark.parametrize("model,R,C", [
    (gilby_model(), 8, 4), *[(m, 12, 12) for m in victoria_models()],
    (GRID_24, 24, 24), *_suite_configurations(),
])
def test_rational_rank_matches_fraction_elimination(model, R, C):
    rows = build_configuration(model, R, C).matrix.tolist()
    assert rational_rank(rows) == fraction_rank(rows)
    # stacking two configurations, as row_space_contains does
    common = build_configuration(victoria_models()[0], 12, 12).matrix.tolist()
    if (R, C) == (12, 12):
        assert rational_rank(common + rows) == fraction_rank(common + rows)


def test_rational_rank_matches_fraction_elimination_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m, n = rng.integers(1, 8, size=2)
        rows = rng.integers(-4, 5, size=(m, n))
        # low-rank products and zero columns exercise the pivot search
        if rng.random() < 0.5:
            k = int(rng.integers(1, min(m, n) + 1))
            rows = rng.integers(-3, 4, size=(m, k)) @ rng.integers(-3, 4, size=(k, n))
        if rng.random() < 0.3:
            rows[:, rng.integers(0, n)] = 0
        rows = rows.tolist()
        assert rational_rank(rows) == fraction_rank(rows)


def test_degrees_of_freedom():
    assert degrees_of_freedom(build_configuration(gilby_model(), 8, 4)) == 19
    common, own = victoria_models()
    assert degrees_of_freedom(build_configuration(common, 12, 12)) == 120
    assert degrees_of_freedom(build_configuration(own, 12, 12)) == 117


def test_rank_is_invariant_under_cell_relabeling():
    model = ModelSpec(family=CHANGE_POINT,
                      rectangles=(Rectangle(2, 3, 2, 3), Rectangle(2, 4, 1, 3)))
    cfg = build_configuration(model, 4, 4)
    rng = np.random.default_rng(7)
    perm = rng.permutation(16)
    assert rational_rank(cfg.matrix[:, perm].tolist()) == config_rank(cfg)


def test_row_space_containment():
    R, C = 8, 4
    indep = build_configuration(ModelSpec(family=INDEPENDENCE), R, C)
    cp = build_configuration(gilby_model(), R, C)
    assert row_space_contains(cp.matrix.tolist(), indep.matrix.tolist())
    assert not row_space_contains(indep.matrix.tolist(), cp.matrix.tolist())


def test_all_ones_vector_in_every_row_space():
    # total count is always a function of the sufficient statistic
    ones = [1] * 16
    for model in (ModelSpec(family=INDEPENDENCE),
                  ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5)),
                  ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5))):
        cfg = build_configuration(model, 4, 4)
        assert row_space_contains(cfg.matrix.tolist(), [ones])


def test_csv_round_trip(tmp_path):
    table = gilby_table()
    path = tmp_path / "t.csv"
    write_table_csv(table, path)
    assert read_table_csv(path) == table
    first = path.read_text().splitlines()[0]
    assert first == "86,49,10,1"


def test_csv_header_tolerance(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text(",a,b\nr1,1,2\nr2,3,4\n")
    assert read_table_csv(path, header=True) == Table.from_rows([[1, 2], [3, 4]])
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    with pytest.raises(TableError):
        read_table_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3,4,5\n")
    with pytest.raises(TableError):
        read_table_csv(ragged)
