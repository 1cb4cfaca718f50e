"""Command-line behavior, exercised in process through main(argv)."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import markovfiber
from markovfiber.cli import _chi2_sf, main
from markovfiber.datasets import dataset, dataset_models, victoria_models, victoria_table
from markovfiber.fit import llr_nested
from markovfiber.models import (CHANGE_POINT, COMMON_BLOCKS, OWN_BLOCKS, ModelSpec, load_model,
                                save_model)
from markovfiber.tables import Rectangle, read_table_csv, write_table_csv

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


def test_chi2_tail_matches_scipy():
    from scipy.stats import chi2

    deepest = 1.0
    for df in range(1, 501):
        for x in (1e-3, 0.5 * df, df, df + 3 * math.sqrt(2 * df), 4 * df + 100, 8 * df + 300):
            ref = float(chi2.sf(x, df))
            if ref < 1e-300:  # scipy's tail has left the normal range
                assert _chi2_sf(x, df) < 1e-300, (x, df)
                continue
            assert _chi2_sf(x, df) == pytest.approx(ref, rel=1e-12, abs=0.0), (x, df)
            deepest = min(deepest, ref)
    assert deepest < 1e-200
    assert _chi2_sf(0.0, 3) == 1.0 and _chi2_sf(math.inf, 3) == 0.0


def test_common_cli_path_does_not_import_scipy():
    src = str(Path(markovfiber.__file__).resolve().parents[1])
    script = "\n".join([
        "import sys",
        "from markovfiber.cli import main",
        "assert main(['fit', '--dataset', 'gilby']) == 0",
        "assert main(['test', '--dataset', 'gilby', '--steps', '2000']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("rows", ["5,0\n0,0\n", "3,0,0\n0,0,0\n"])
def test_a_one_table_fiber_is_tested(capsys, tmp_path, rows):
    # the walk's proposals raise a cell above the table's total; every step
    # stays on the only table of the fiber
    table, model = tmp_path / "t.csv", tmp_path / "ind.json"
    table.write_text(rows)
    model.write_text('{"family": "independence"}')
    code, rep = run_json(capsys, "test", "--table", str(table), "--model", str(model),
                         "--steps", "500")
    assert code == 0
    assert rep["mcmc"]["pvalue"] == 1.0 and rep["mcmc"]["stay_fractions"] == [1.0]


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
    assert set(timings) == {"fit_s", "basis_s", "n_moves", "basis_mb", "walk_s"}
    assert timings["n_moves"] == 81  # Gilby's unsigned basic moves
    # int32 offsets, int16 cells, int8 coefficients and their negation
    # (kept once the walk's sampler makes it), a type byte per move
    assert timings["basis_mb"] == (82 * 4 + 324 * 4 + 81) / 2**20
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
    assert fits == [common] and len(nests) == 1
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


def test_llr_streams_reproduce_the_reported_pvalues(capsys, tmp_path):
    # the chains revisit the observed block sums, whose samples must count
    # against the reported observed value, not one a few ulps away from it
    out = tmp_path / "llr.csv"
    code, rep = run_json(capsys, "test", "--dataset", "victoria",
                         "--model", "common-blocks", "--alt", "own-blocks",
                         "--stat", "llr", "--steps", "20000", "--chains", "2",
                         "--seed", "3", "--stats-out", str(out))
    assert code == 0 and len(rep["stats_out"]) == 2
    observed = rep["observed"]
    for path, p in zip(rep["stats_out"], rep["mcmc"]["per_chain_pvalues"]):
        values = [float(line) for line in Path(path).read_text().splitlines()]
        assert observed in values
        n_ge = sum(v >= observed - 1e-12 for v in values)
        assert (n_ge + 1) / (len(values) + 1) == p


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


INDEPENDENCE_JSON = b'{"family": "independence"}\n'
# one field past the csv module's 131,072-character limit
CSV_FIELD_PAST_LIMIT = b"1,2\n3," + b"4" * 131_073 + b"\n"
# arrays nested past the recursion limit
MODEL_NESTED_DEEP = b'{"family":"independence","groups":' + b"[" * 100_000
# an integer past Python's 4,300-digit limit of int-from-string
MODEL_LONG_INTEGER = (b'{"family": "change-point", "rectangles": [[1, 2, 1, '
                      + b"1" * 5000 + b"]]}\n")


@pytest.mark.parametrize("command", ["fit", "test"])
@pytest.mark.parametrize("table,model,error", [
    (b"100000000000000000000,1\n1,1\n", INDEPENDENCE_JSON, "TableError"),
    (b"1,9223372036854775807\n1,1\n", INDEPENDENCE_JSON, "TableError"),
    (b"1,2\n3,\xff4\n", INDEPENDENCE_JSON, "TableError"),
    (b"1,2\n3,4\n", b'{"family": "indep\xffendence"}\n', "ModelError"),
    (b"1,2\n3,4\n", b'{"family": "change-point", "rectangles": [[1, true, 1, 2]]}\n',
     "ModelError"),
    (CSV_FIELD_PAST_LIMIT, INDEPENDENCE_JSON, "TableError"),
    (b"1,2\n3,4\n", MODEL_NESTED_DEEP, "ModelError"),
    (b"1,2\n3,4\n", MODEL_LONG_INTEGER, "ModelError"),
], ids=["beyond-int64", "sums-wrap-int64", "table-not-utf8", "model-not-utf8", "json-true",
        "csv-field-limit", "json-nested-deep", "json-long-integer"])
def test_bad_input_files_are_errors(capsys, tmp_path, command, table, model, error):
    (tmp_path / "t.csv").write_bytes(table)
    (tmp_path / "m.json").write_bytes(model)
    steps = ("--steps", "100") if command == "test" else ()
    code, rep = run_json(capsys, command, "--table", str(tmp_path / "t.csv"),
                         "--model", str(tmp_path / "m.json"), *steps)
    assert code == 1
    assert rep["error"]["type"] == error


# bytes that are not UTF-8 next to ASCII: a continuation byte, a lead byte
# and a byte UTF-8 never uses
NOT_UTF8 = b"\x80\xc3\xff"
# bytes that no count of a table CSV may hold wherever they land: ASCII
# control bytes that are not whitespace, letters and punctuation that no
# integer takes, and bytes that are not UTF-8
CSV_BREAKERS = bytes([*range(0x00, 0x09), *range(0x0e, 0x1c)]) + b"x@#." + NOT_UTF8
# bytes that no JSON text may hold wherever they land: control bytes other
# than JSON whitespace (bare, or raw inside a string), and bytes that are not
# UTF-8
JSON_BREAKERS = bytes([*range(0x00, 0x09), 0x0b, 0x0c, *range(0x0e, 0x20)]) + NOT_UTF8


def _corrupted(data: bytes, rng: random.Random, breakers: bytes, cuts, structure=b""):
    """Eight each of byte replacements and insertions from ``breakers``,
    truncations at one of ``cuts`` and, if ``structure`` is given, replacements
    of one of its bytes by a letter: each leaves a file that cannot be read."""
    def pick(seq):
        return seq[rng.randrange(len(seq))]

    out = []
    for k in range(8):
        at = rng.randrange(len(data))
        out.append((f"replace-{k}", data[:at] + bytes([pick(breakers)]) + data[at + 1:]))
        at = rng.randrange(len(data) + 1)
        out.append((f"insert-{k}", data[:at] + bytes([pick(breakers)]) + data[at:]))
        out.append((f"truncate-{k}", data[:pick(cuts)]))
        if structure:
            at = pick([i for i, b in enumerate(data) if b in structure])
            out.append((f"structure-{k}", data[:at] + b"x" + data[at + 1:]))
    return out


def corrupted_inputs(tmp_path):
    """(name, table bytes, model bytes, error type) of seeded corruptions of
    the Gilby CSV and its change-point model JSON, one file corrupted at a
    time, and of the three files that once escaped as tracebacks."""
    write_table_csv(dataset("gilby"), tmp_path / "gilby.csv")
    save_model(dataset_models("gilby")["change-point"], tmp_path / "gilby.json")
    table, model = (tmp_path / "gilby.csv").read_bytes(), (tmp_path / "gilby.json").read_bytes()
    # a cut inside a row, before its last comma, leaves a short last row
    row_cuts = [at for start, end in zip([0, *(i + 1 for i, b in enumerate(table) if b == 10)],
                                         [i for i, b in enumerate(table) if b == 10])
                for at in range(start + 1, table.rindex(b",", start, end) + 1)]
    # a cut before the closing brace leaves the object open
    open_cuts = range(model.rindex(b"}"))
    cases = [(f"csv-{name}", bad, model, "TableError")
             for name, bad in _corrupted(table, random.Random(2027), CSV_BREAKERS, row_cuts)]
    cases += [(f"json-{name}", table, bad, "ModelError")
              for name, bad in _corrupted(model, random.Random(2028), JSON_BREAKERS, open_cuts,
                                          structure=b'{}[],:"')]
    cases += [("csv-field-limit", CSV_FIELD_PAST_LIMIT, model, "TableError"),
              ("json-nested-deep", table, MODEL_NESTED_DEEP, "ModelError"),
              ("json-long-integer", table, MODEL_LONG_INTEGER, "ModelError")]
    return cases


@pytest.mark.parametrize("argv", [
    ("test", "--steps", "100"), ("fit",), ("fiber",), ("moves", "dump"),
    ("verify", "--max-total", "2"), ("grobner-check",),
], ids=lambda argv: argv[0] if argv[0] != "moves" else "moves-dump")
def test_corrupted_input_files_are_errors(capsys, tmp_path, argv):
    table, model = tmp_path / "t.csv", tmp_path / "m.json"
    failed = []
    for name, table_bytes, model_bytes, error in corrupted_inputs(tmp_path):
        table.write_bytes(table_bytes)
        model.write_bytes(model_bytes)
        try:
            code, rep = run_json(capsys, *argv, "--table", str(table), "--model", str(model))
        except Exception as exc:  # a traceback, or a report that is not JSON
            failed.append((name, repr(exc)[:200]))
            continue
        if code != 1 or set(rep) != {"error"} or rep["error"]["type"] != error:
            failed.append((name, code, str(rep)[:200]))
    assert failed == []


def test_missing_inputs_are_errors(capsys):
    code, rep = run_json(capsys, "fiber", "--model", "whatever")
    assert code == 1
    assert "--dataset or --table" in rep["error"]["message"]


@pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--chains", "0"),
                                        ("--thin", "0"), ("--burn-in", "100000"),
                                        ("--check-every", "-7")])
def test_bad_chain_flags_are_errors(capsys, flag, value):
    code, rep = run_json(capsys, "test", "--dataset", "gilby", flag, value)
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert flag in rep["error"]["message"]


@pytest.mark.parametrize("text", [
    '{"family": "change-point", ', '[1, 2]',
    '{"family": "change-point", "rectangles": [[1, 2, 3]]}',
    '{"family": "change-point", "rectangles": [[1, 2, 1, "x"]]}',
    '{"family": "own-blocks", "row_bounds": ["a"]}',
    '{"family": "own-blocks", "row_bounds": 5}',
    '{"family": "own-blocks", "row_bounds": [1, 5.5, 9], "col_bounds": [1, 3, 5]}',
])
def test_malformed_model_json_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, rep = run_json(capsys, "fit", "--dataset", "gilby", "--model", str(path))
    assert code == 1
    assert rep["error"]["type"] == "ModelError"
    # a field of the wrong shape is named
    assert all(f in rep["error"]["message"] for f in ("rectangles", "row_bounds") if f in text)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("argv", [
    ("fit", "--dataset", "gilby"),
    ("test", "--dataset", "gilby", "--steps", "100"),
    ("test", "--dataset", "victoria", "--model", "common-blocks", "--alt", "own-blocks",
     "--stat", "llr", "--steps", "100"),
], ids=["fit", "test-chi2", "test-llr"])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_an_error(capsys, argv, tol):
    code, rep = run_json(capsys, *argv, "--tol", tol)
    assert code == 1
    assert rep["error"]["type"] == "FitError"
    assert "tol" in rep["error"]["message"]


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


@pytest.mark.parametrize("header", [False, True], ids=["plain", "header"])
@pytest.mark.parametrize("argv,R,C", [
    (("moves", "dump"), 3, 4),
    (("verify", "--max-total", "3"), 3, 3),
    (("grobner-check",), 3, 4),
], ids=["moves-dump", "verify", "grobner-check"])
def test_grid_commands_read_the_grid_of_a_table(capsys, tmp_path, cp_model_path,
                                               argv, R, C, header):
    rows = [[str(i + j) for j in range(C)] for i in range(R)]
    if header:
        rows = [["", *(f"c{j}" for j in range(C))],
                *([f"r{i}", *row] for i, row in enumerate(rows))]
    table = tmp_path / "t.csv"
    table.write_text("".join(",".join(row) + "\n" for row in rows))
    reports = []
    for grid in (("--rows", str(R), "--cols", str(C)),
                 ("--table", str(table), *(("--header",) if header else ()))):
        code, out = run(capsys, *argv, *grid, "--model", cp_model_path)
        assert code == 0
        if argv[0] != "moves":  # the dump's stdout is the basis as text
            out = json.loads(out)
            out.pop("timings")
        reports.append(out)
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_fiber_refuses_a_cap_below_one(capsys, monkeypatch, cap):
    # a cap below 1 used to print a report of an empty, overflowed fiber
    import markovfiber.fiber as fiber

    enumerated = []
    monkeypatch.setattr(fiber, "enumerate_fiber", lambda *a, **k: enumerated.append(a))
    code, rep = run_json(capsys, "fiber", "--dataset", "gilby", "--cap", cap)
    assert code == 1
    assert rep["error"] == {"type": "CliError", "message": f"--cap must be >= 1, got {cap}"}
    assert not enumerated


@pytest.mark.parametrize("command,chains", [("test", "1"), ("sample", "1"), ("sample", "2")])
def test_an_unwritable_stream_fails_before_the_walk(capsys, tmp_path, monkeypatch,
                                                    command, chains):
    # with one chain the stream's directory is missing; with two the first
    # stream can be written and the second path is a directory
    import markovfiber.cli as cli

    walked = []
    monkeypatch.setattr(cli, "run_chains", lambda *a, **k: walked.append(a))
    if chains == "1":
        out, error = tmp_path / "missing" / "stream.csv", "FileNotFoundError"
    else:
        out, error = tmp_path / "stream.csv", "IsADirectoryError"
        (tmp_path / "stream.csv.1").mkdir()
    code, rep = run_json(capsys, command, "--dataset", "gilby", "--steps", "1000000",
                         "--chains", chains, "--stats-out", str(out))
    assert code == 1
    assert rep["error"]["type"] == error
    assert not walked


def test_fiber_enumerates_once_for_both_questions(capsys, tmp_path, cp_model_path,
                                                 monkeypatch):
    import markovfiber.fiber as fiber

    enumerated = []
    real = fiber.enumerate_fiber

    def counted(*args, **kwargs):
        enumerated.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(fiber, "enumerate_fiber", counted)
    table = tmp_path / "t.csv"
    table.write_text("1,0,1\n1,1,0\n0,1,1\n")
    code, rep = run_json(capsys, "fiber", "--table", str(table), "--model", cp_model_path,
                         "--check-connect", "--exact-p")
    assert code == 0 and rep["connected"] is True and 0 < rep["exact_pvalue"] <= 1
    assert len(enumerated) == 1


def test_verify_refuses_a_universe_above_the_byte_bound(capsys, tmp_path, monkeypatch):
    # the 10.7 million 20x20 tables of total 3 would take 4.1 GB: the
    # command refuses before the first sweep builds any universe
    import markovfiber.verify as verify

    def unguarded(*args):
        raise AssertionError("a table universe was built")

    monkeypatch.setattr(verify, "combinations_with_replacement", unguarded)
    path = tmp_path / "indep.json"
    save_model(ModelSpec(family="independence"), path)
    code, rep = run_json(capsys, "verify", "--rows", "20", "--cols", "20",
                         "--model", str(path), "--max-total", "3")
    assert code == 1
    assert rep["error"]["type"] == "FiberOverflow"
    assert "20x20 tables of total 3" in rep["error"]["message"]


def test_boundary_mle_table_is_tested(capsys, tmp_path):
    # column 1 and the rectangle both sum to 2, so cell (3, 1) is 0 on the
    # whole fiber: the null MLE lies on the boundary, and the chain's p
    # must agree with the exact one (the observed chi2 is the fiber's least,
    # so both are 1 and the chains' spread is 0)
    table = tmp_path / "t.csv"
    table.write_text("1,0,1\n1,1,0\n0,1,1\n")
    model = tmp_path / "cp.json"
    save_model(ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),)), model)
    args = ("--table", str(table), "--model", str(model))
    code, rep = run_json(capsys, "test", *args, "--steps", "20000", "--chains", "4",
                         "--seed", "0")
    assert code == 0 and rep["fit"]["converged"] is True
    assert rep["fit"]["max_discrepancy"] <= 1e-10
    code, exact = run_json(capsys, "fiber", *args, "--exact-p")
    assert code == 0
    mcmc = rep["mcmc"]
    assert abs(mcmc["pvalue"] - exact["exact_pvalue"]) <= 3 * mcmc["std_error"]


def test_table_of_large_counts_is_tested(capsys, tmp_path):
    # sums near 1e7 have no float within 1e-10 of them: the null fit must
    # still converge, at the rounding of the sums
    table = tmp_path / "t.csv"
    table.write_text("10000000,0,3\n0,1,0\n5,0,100000\n")
    model = tmp_path / "cp.json"
    save_model(ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),)), model)
    code, rep = run_json(capsys, "test", "--table", str(table), "--model", str(model),
                         "--steps", "2000", "--chains", "2", "--seed", "0")
    assert code == 0 and rep["fit"]["converged"] is True
    assert rep["fit"]["max_discrepancy"] <= 1e-8


@pytest.fixture
def saturated(tmp_path):
    """[[3,1],[1,3]] under two 1x1 own blocks: df 0, so the fiber is the
    table alone."""
    table = tmp_path / "t.csv"
    table.write_text("3,1\n1,3\n")
    model = tmp_path / "own.json"
    save_model(ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3),
                         col_bounds=(1, 2, 3)), model)
    return "--table", str(table), "--model", str(model)


def test_fit_on_a_saturated_model_reports_no_asymptotic_pvalue(capsys, saturated):
    code, rep = run_json(capsys, "fit", *saturated)
    assert code == 0
    assert rep["df"] == 0 and rep["converged"] is True
    assert rep["asymptotic_pvalue_chi2"] is None
    assert rep["asymptotic_pvalue_g2"] is None


@pytest.mark.parametrize("command", ["test", "sample"])
def test_sampling_a_saturated_model_is_an_error(capsys, tmp_path, saturated, command):
    code, rep = run_json(capsys, command, *saturated, "--steps", "100",
                         "--stats-out", str(tmp_path / "stream.csv"))
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert "fiber --exact-p" in rep["error"]["message"]
    code, rep = run_json(capsys, "fiber", *saturated, "--exact-p")
    assert code == 0 and rep["size"] == 1 and rep["exact_pvalue"] == 1.0


def test_llr_of_a_model_against_itself_has_no_asymptotic_pvalue(capsys):
    code, rep = run_json(capsys, "test", "--dataset", "victoria",
                         "--model", "common-blocks", "--alt", "common-blocks",
                         "--stat", "llr", "--steps", "200", "--seed", "0")
    assert code == 0
    assert rep["df"] == 0 and rep["observed"] == 0.0
    assert rep["asymptotic_pvalue"] is None


def test_check_connect_above_the_enumeration_threshold(capsys, tmp_path, monkeypatch):
    # 420 cells: the basis is lazy, so there is no move set to check, and
    # the command refuses before it enumerates the fiber
    import markovfiber.fiber as fiber

    enumerated = []
    monkeypatch.setattr(fiber, "enumerate_fiber", lambda *a, **k: enumerated.append(a))
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
    assert not enumerated


def test_lazy_basis_reports_no_store(capsys, tmp_path):
    # 420 cells: the walk draws a lazy basis, which stores no move set but
    # counts its moves, C(21, 2) * C(20, 2) minors
    path = tmp_path / "indep.json"
    save_model(ModelSpec(family="independence"), path)
    table = tmp_path / "t.csv"
    rows = [[1] * 20 for _ in range(21)]
    table.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    code, rep = run_json(capsys, "test", "--table", str(table), "--model", str(path),
                         "--steps", "200", "--seed", "1")
    assert code == 0
    assert rep["timings"]["n_moves"] == 210 * 190 and rep["timings"]["basis_mb"] is None


def test_verify_above_the_enumeration_threshold(capsys, tmp_path):
    # 420 cells: a sweep needs every move, and the basis would be lazy
    path = tmp_path / "common.json"
    save_model(ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 11, 22),
                         col_bounds=(1, 11, 21)), path)
    code, rep = run_json(capsys, "verify", "--rows", "21", "--cols", "20",
                         "--model", str(path), "--max-total", "2")
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert "enumeration threshold" in rep["error"]["message"]


def test_moves_dump_above_the_enumeration_threshold(capsys, tmp_path):
    # 420 cells: dumping lists every move, which the lazy basis never builds
    path = tmp_path / "common.json"
    save_model(ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 11, 22),
                         col_bounds=(1, 11, 21)), path)
    code, rep = run_json(capsys, "moves", "dump", "--rows", "21", "--cols", "20",
                         "--model", str(path), "--out", str(tmp_path / "moves.txt"))
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert "enumeration threshold" in rep["error"]["message"]
    assert not (tmp_path / "moves.txt").exists()


@pytest.mark.parametrize("ds,types", [("gilby", "IV"), ("victoria", "bogus")])
def test_verify_rejects_move_types_the_model_lacks(capsys, ds, types):
    code, rep = run_json(capsys, "verify", "--dataset", ds, "--types", types,
                         "--max-total", "2")
    assert code == 1
    assert rep["error"]["type"] == "ModelError"


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


@pytest.mark.parametrize("argv", [
    ("verify", "--dataset", "gilby", "--max-total", "-1"),
    ("verify", "--dataset", "gilby", "--max-total", "0"),
    ("verify", "--dataset", "gilby", "--max-total", "1"),
    ("verify", "--dataset", "gilby", "--max-dim", "0"),
    ("verify", "--suite", "own-blocks", "--max-total", "1"),
    ("verify", "--suite", "change-point", "--max-dim", "0"),
    ("verify", "--suite", "change-point", "--max-dim", "-3"),
    ("grobner-check", "--dataset", "gilby", "--max-dim", "1"),
    ("grobner-check", "--dataset", "gilby", "--max-dim", "0"),
    ("grobner-check", "--dataset", "gilby", "--max-dim", "-3"),
])
def test_sweep_bounds_below_two_are_refused(capsys, argv):
    # such a bound checks nothing: no sweep total, or no grid, has a move
    code, rep = run_json(capsys, *argv)
    assert code == 1
    assert rep["error"] == {"type": "CliError",
                            "message": f"{argv[-2]} must be >= 2, got {argv[-1]}"}


@pytest.mark.parametrize("argv", [
    ("verify", "--dataset", "gilby", "--max-total", "2", "--max-dim", "3"),
    ("verify", "--suite", "own-blocks", "--max-total", "2", "--max-dim", "3"),
    ("verify", "--suite", "common-blocks", "--max-total", "2", "--max-dim", "3"),
])
def test_verify_max_dim_is_refused_where_nothing_reads_it(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert rep["error"]["message"].startswith("--max-dim bounds the grids of --suite change-point")


# (argv, error message): a flag that the command would not read, which
# would otherwise be dropped with no word in the report
UNREAD_FLAGS = [
    (("verify", "--suite", "own-blocks", "--max-total", "3", "--types", "I"),
     "--types is read only by verify without --suite"),
    (("verify", "--suite", "all", "--max-total", "2", "--rows", "3", "--cols", "3"),
     "--rows is read only by verify without --suite"),
    (("verify", "--suite", "common-blocks", "--max-total", "2", "--cols", "3"),
     "--cols is read only by verify without --suite"),
    (("verify", "--suite", "own-blocks", "--max-total", "2", "--model", "own-blocks"),
     "--model is read only by verify without --suite"),
    (("verify", "--suite", "change-point", "--max-total", "2", "--dataset", "gilby"),
     "--dataset is read only by verify without --suite"),
    (("verify", "--suite", "own-blocks", "--max-total", "2", "--table", "t.csv"),
     "--table is read only by verify without --suite"),
    (("verify", "--suite", "own-blocks", "--max-total", "2", "--header"),
     "--header is read only by verify without --suite"),
    (("fiber", "--dataset", "victoria", "--model", "common-blocks", "--alt", "own-blocks",
      "--stat", "llr", "--cap", "10"), "--alt is read only with --exact-p"),
    (("fiber", "--dataset", "gilby", "--stat", "g2", "--cap", "10"),
     "--stat is read only with --exact-p"),
    (("fiber", "--dataset", "gilby", "--stat", "chi2", "--cap", "10"),
     "--stat is read only with --exact-p"),
    (("fiber", "--dataset", "victoria", "--model", "common-blocks", "--alt", "own-blocks",
      "--exact-p", "--cap", "10"), "--alt is read only by --stat llr, not by --stat chi2"),
    (("test", "--dataset", "victoria", "--model", "common-blocks", "--alt", "own-blocks",
      "--stat", "chi2", "--steps", "2000"), "--alt is read only by --stat llr, not by --stat chi2"),
    (("test", "--dataset", "victoria", "--alt", "own-blocks", "--stat", "g2", "--steps", "2000"),
     "--alt is read only by --stat llr, not by --stat g2"),
    (("sample", "--dataset", "victoria", "--alt", "own-blocks", "--steps", "2000",
      "--stats-out", "s.txt"), "--alt is read only by --stat llr, not by --stat chi2"),
]


@pytest.mark.parametrize("argv,message", UNREAD_FLAGS,
                         ids=[f"{argv[0]}-{message.split()[0][2:]}" for argv, message in UNREAD_FLAGS])
def test_flags_that_nothing_reads_are_refused(capsys, argv, message):
    # refused before any table is read or stream written
    code, rep = run_json(capsys, *argv)
    assert code == 1
    assert rep["error"]["type"] == "CliError"
    assert rep["error"]["message"].startswith(message)


def test_verify_suite_takes_the_smallest_bounds(capsys):
    code, rep = run_json(capsys, "verify", "--suite", "change-point", "--max-dim", "2",
                         "--max-total", "2")
    assert code == 0
    suite = rep["suites"][0]
    assert suite["ok"] is True and suite["models_raw"] == 4  # the 2x2 grid alone


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
