"""Command-line behavior, exercised in process through main(argv)."""

import json
import math

import pytest

from markovfiber.cli import main
from markovfiber.datasets import dataset, dataset_models, victoria_models, victoria_table
from markovfiber.fit import llr_nested
from markovfiber.models import CHANGE_POINT, COMMON_BLOCKS, ModelSpec, load_model, save_model
from markovfiber.tables import Rectangle, read_table_csv

GILBY_CHI2 = 153.66942307412367
VICTORIA_LLR = 3.0739019349974956


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def cp_model_path(tmp_path):
    path = tmp_path / "cp.json"
    save_model(ModelSpec(family=CHANGE_POINT,
                         rectangles=(Rectangle(1, 2, 1, 2),)), path)
    return str(path)


def test_fit_gilby(capsys):
    code, rep = run_json(capsys, "fit", "--dataset", "gilby")
    assert code == 0
    assert rep["command"] == "fit" and rep["grid"] == [8, 4]
    assert rep["converged"] is True
    assert rep["chi2"] == pytest.approx(GILBY_CHI2, abs=1e-9)
    assert rep["df"] == 19
    assert 0.0 <= rep["asymptotic_pvalue_chi2"] < 1e-20
    assert len(rep["expected"]) == 8 and len(rep["expected"][0]) == 4
    # expected counts reproduce the margins
    assert sum(rep["expected"][0]) == pytest.approx(146.0, abs=1e-6)


def test_fit_accepts_the_model_alias(capsys):
    code, rep = run_json(capsys, "fit", "--dataset", "gilby",
                         "--model", "changepoint-gilby")
    assert code == 0
    assert rep["chi2"] == pytest.approx(GILBY_CHI2, abs=1e-9)


def test_test_command_report_shape(capsys):
    code, rep = run_json(capsys, "test", "--dataset", "gilby",
                         "--steps", "2000", "--thin", "5", "--seed", "1")
    assert code == 0
    assert rep["command"] == "test" and rep["stat"] == "chi2"
    assert rep["observed"] == pytest.approx(GILBY_CHI2, abs=1e-9)
    assert rep["df"] == 19
    m = rep["mcmc"]
    assert m["burn_in"] == 200  # default steps // 10
    assert m["seeds"] == [1] and len(m["per_chain_pvalues"]) == 1
    assert 0 < m["pvalue"] <= 1
    assert 0 <= m["acceptance_rates"][0] <= 1
    assert 0 <= m["stay_fractions"][0] <= 1
    assert m["llr_cache"] is None
    timings = rep["timings"]
    assert set(timings) == {"fit_s", "basis_s", "n_moves", "walk_s"}
    assert timings["n_moves"] == 81  # Gilby's unsigned basic moves
    assert all(timings[k] >= 0 for k in ("fit_s", "basis_s", "walk_s"))


def test_identical_invocations_agree(capsys):
    argv = ("test", "--dataset", "gilby", "--steps", "1500", "--seed", "4")
    _, rep1 = run_json(capsys, *argv)
    _, rep2 = run_json(capsys, *argv)
    rep1.pop("timings"), rep2.pop("timings")
    assert rep1 == rep2


def test_chi2_test_fits_the_null_model_once(capsys, monkeypatch):
    import markovfiber.cli
    import markovfiber.fit

    calls = []
    real = markovfiber.fit.ipf_fit

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(markovfiber.fit, "ipf_fit", counted)
    monkeypatch.setattr(markovfiber.cli, "ipf_fit", counted)
    code, rep = run_json(capsys, "test", "--dataset", "gilby", "--stat", "chi2",
                         "--steps", "200", "--seed", "0")
    assert code == 0 and rep["fit"]["converged"]
    assert len(calls) == 1


def test_llr_test_fits_each_model_once(capsys, monkeypatch):
    import markovfiber.cli
    import markovfiber.fit
    import markovfiber.models

    fits, nests = [], []
    real_fit, real_nested = markovfiber.fit.ipf_fit, markovfiber.models.is_nested

    def counted_fit(*args, **kwargs):
        fits.append(args[1])
        return real_fit(*args, **kwargs)

    def counted_nested(*args, **kwargs):
        nests.append(args[:2])
        return real_nested(*args, **kwargs)

    monkeypatch.setattr(markovfiber.fit, "ipf_fit", counted_fit)
    monkeypatch.setattr(markovfiber.cli, "ipf_fit", counted_fit)
    monkeypatch.setattr(markovfiber.models, "is_nested", counted_nested)
    code, rep = run_json(capsys, "test", "--dataset", "victoria",
                         "--model", "common-blocks", "--alt", "own-blocks",
                         "--stat", "llr", "--steps", "300", "--seed", "0")
    assert code == 0 and rep["fit"]["converged"]
    common, own = victoria_models()
    assert fits == [common, own] and len(nests) == 1
    monkeypatch.undo()
    assert rep["observed"] == llr_nested(victoria_table(), common, own)
    cache = rep["mcmc"]["llr_cache"]
    assert set(cache) == {"refits", "hits", "size"}
    # every refit is a new block-sum vector; the start state is one of them
    assert cache["size"] == cache["refits"] >= 1


def test_llr_stat_end_to_end(capsys):
    code, rep = run_json(capsys, "test", "--dataset", "victoria",
                         "--model", "common-blocks", "--alt", "own-blocks",
                         "--stat", "llr", "--steps", "400",
                         "--burn-in", "100", "--seed", "0")
    assert code == 0
    assert rep["observed"] == pytest.approx(VICTORIA_LLR, abs=1e-9)
    assert rep["df"] == 3
    assert 0.3 < rep["asymptotic_pvalue"] < 0.5


def test_llr_needs_alt(capsys):
    code, rep = run_json(capsys, "test", "--dataset", "victoria",
                         "--stat", "llr", "--steps", "100")
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert "--alt" in rep["error"]["message"]


def test_unknown_model_lists_builtins(capsys):
    code, rep = run_json(capsys, "fit", "--dataset", "gilby",
                         "--model", "bogus")
    assert code == 1
    assert "change-point" in rep["error"]["message"]


def test_degenerate_table_is_an_error(capsys, tmp_path):
    path = tmp_path / "one_row.csv"
    path.write_text("1,2,3\n")
    code, rep = run_json(capsys, "fit", "--table", str(path),
                         "--model", "anything")
    assert code == 1
    assert rep["error"]["type"] == "TableError"


def test_missing_inputs_are_errors(capsys):
    code, rep = run_json(capsys, "fiber", "--model", "whatever")
    assert code == 1
    assert "--dataset or --table" in rep["error"]["message"]


@pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--chains", "0"),
                                        ("--thin", "0"), ("--burn-in", "100000")])
def test_bad_chain_flags_are_errors(capsys, flag, value):
    code, rep = run_json(capsys, "test", "--dataset", "gilby", flag, value)
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert flag in rep["error"]["message"]


@pytest.mark.parametrize("text", ['{"family": "change-point", ', '[1, 2]'])
def test_malformed_model_json_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, rep = run_json(capsys, "fit", "--dataset", "gilby", "--model", str(path))
    assert code == 1
    assert rep["error"]["type"] == "ModelError"


def test_sample_requires_stats_out(capsys):
    code, rep = run_json(capsys, "sample", "--dataset", "gilby",
                         "--steps", "100")
    assert code == 1
    assert rep["error"]["type"] == "CliError"


def test_sample_stream_length(capsys, tmp_path):
    out = tmp_path / "stream.csv"
    code, rep = run_json(capsys, "sample", "--dataset", "gilby",
                         "--steps", "1000", "--burn-in", "200",
                         "--thin", "10", "--stats-out", str(out))
    assert code == 0 and rep["command"] == "sample"
    assert rep["stats_out"] == [str(out)]
    values = [float(line) for line in out.read_text().splitlines()]
    assert len(values) == math.ceil((1000 - 200) / 10)
    assert all(v >= 0 for v in values)


def test_moves_dump_to_stdout(capsys):
    code, out = run(capsys, "moves", "dump", "--dataset", "gilby")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 81  # one line per unsigned move
    assert lines[0].split()[0] == "2" and lines[0].split()[1] == "I"


def test_moves_dump_to_file(capsys, tmp_path):
    out = tmp_path / "moves.txt"
    code, rep = run_json(capsys, "moves", "dump", "--dataset", "gilby",
                         "--out", str(out))
    assert code == 0
    assert rep["n_moves"] == 81
    assert rep["by_type"] == {"I": 81}
    assert len(out.read_text().strip().splitlines()) == 81


def test_fiber_command(capsys, tmp_path, cp_model_path):
    table = tmp_path / "t.csv"
    table.write_text("1,0,1\n1,1,0\n0,1,1\n")
    code, rep = run_json(capsys, "fiber", "--table", str(table),
                         "--model", cp_model_path,
                         "--check-connect", "--exact-p")
    assert code == 0
    assert rep["size"] == 8 and rep["overflowed"] is False  # product-space count
    assert rep["connected"] is True
    assert 0 < rep["exact_pvalue"] <= 1
    assert len(rep["t"]) == 3 + 3 + 1  # rows, cols, one subtable sum


def test_fiber_cap_overflow(capsys, tmp_path, cp_model_path):
    table = tmp_path / "t.csv"
    table.write_text("1,0,1\n1,1,0\n0,1,1\n")
    code, rep = run_json(capsys, "fiber", "--table", str(table),
                         "--model", cp_model_path, "--cap", "3",
                         "--check-connect")
    assert code == 1
    assert rep["error"]["type"] == "FiberOverflow"
    code, rep = run_json(capsys, "fiber", "--table", str(table),
                         "--model", cp_model_path, "--cap", "3")
    assert code == 0 and rep["overflowed"] is True


def test_check_connect_above_the_enumeration_threshold(capsys, tmp_path):
    # 420 cells: the basis is lazy, so there is no move set to check
    path = tmp_path / "common.json"
    save_model(ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 11, 22),
                         col_bounds=(1, 11, 21)), path)
    table = tmp_path / "t.csv"
    rows = [[0] * 20 for _ in range(21)]
    rows[0][0] = rows[1][1] = 1  # fiber: this table and its swap of columns 1, 2
    table.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    code, rep = run_json(capsys, "fiber", "--table", str(table),
                         "--model", str(path), "--check-connect")
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert "enumerated basis" in rep["error"]["message"]


def test_verify_single_model(capsys, cp_model_path):
    code, rep = run_json(capsys, "verify", "--rows", "3", "--cols", "3",
                         "--model", cp_model_path, "--max-total", "3")
    assert code == 0
    assert rep["all_connected"] is True
    assert [r["total"] for r in rep["connectivity"]] == [2, 3]
    assert rep["indispensability"]["all_indispensable"] is True
    timings = rep["timings"]
    assert set(timings) == {"sweep_s", "indispensability_s"}
    assert set(timings["sweep_s"]) == {"2", "3"}
    assert all(v >= 0 for v in timings["sweep_s"].values())
    assert timings["indispensability_s"] >= 0


def test_verify_suite(capsys):
    code, rep = run_json(capsys, "verify", "--suite", "own-blocks",
                         "--max-total", "2")
    assert code == 0
    assert len(rep["suites"]) == 1
    assert rep["suites"][0]["suite"] == "own-blocks"
    assert rep["suites"][0]["ok"] is True
    assert set(rep["timings"]) == {"sweep_s"}
    assert set(rep["timings"]["sweep_s"]) == {"own-blocks"}
    assert rep["timings"]["sweep_s"]["own-blocks"] >= 0


def test_grobner_check_command(capsys, tmp_path):
    path = tmp_path / "ds.json"
    save_model(ModelSpec(family=CHANGE_POINT,
                         rectangles=(Rectangle(1, 2, 1, 2),
                                     Rectangle(1, 3, 1, 3))), path)
    code, rep = run_json(capsys, "grobner-check", "--rows", "4", "--cols", "4",
                         "--model", str(path))
    assert code == 0
    assert rep["certified"] is True and rep["n_generators"] == 15
    assert rep["pairs_checked"] == sum(rep["pairs_by_criterion"].values()) == 105
    assert set(rep["timings"]) == {"grobner_s"} and rep["timings"]["grobner_s"] >= 0
    code, rep = run_json(capsys, "grobner-check", "--rows", "6", "--cols", "6",
                         "--model", str(path))
    assert code == 1
    assert rep["error"]["type"] == "ToricError"


def test_datasets_roundtrip(capsys, tmp_path):
    code, rep = run_json(capsys, "datasets", "--out-dir", str(tmp_path))
    assert code == 0
    assert rep["totals"] == {"gilby": 1725, "victoria": 82}
    assert len(rep["files"]) == 5  # two tables, three model specs
    for name in ("gilby", "victoria"):
        assert read_table_csv(tmp_path / f"{name}.csv") == dataset(name)
    loaded = load_model(tmp_path / "victoria-own-blocks.json")
    assert loaded == dataset_models("victoria")["own-blocks"]
