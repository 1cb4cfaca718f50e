"""The package's export lists, and the layers that importing it loads."""

import ast
import builtins
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovfiber

MODULES = sorted(m.name for m in pkgutil.iter_modules(markovfiber.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"markovfiber.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_resolve_once():
    exported = markovfiber.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(markovfiber, n)] == []


def loaded_after(*lines):
    """The modules a fresh interpreter holds after running ``lines``."""
    src = str(Path(markovfiber.__file__).resolve().parents[1])
    script = "\n".join(["import sys", *lines, "print(' '.join(sorted(sys.modules)))"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.strip().splitlines()[-1].split())


def test_import_loads_only_the_walk_layers():
    loaded = loaded_after("import markovfiber")
    assert {f"markovfiber.{m}" for m in ("tables", "models", "moves", "fit", "mcmc")} <= loaded
    deferred = {f"markovfiber.{m}" for m in ("fiber", "toric", "verify", "datasets", "cli")}
    assert loaded & (deferred | {"json", "csv"}) == set()


def test_the_test_command_loads_no_fiber_toric_or_verify(tmp_path):
    table, model = tmp_path / "t.csv", tmp_path / "m.json"
    table.write_text("3,1,2\n1,4,2\n2,2,5\n")
    model.write_text('{"family": "independence"}\n')
    loaded = loaded_after(
        "from markovfiber.cli import main",
        f"assert main(['test', '--table', {str(table)!r}, '--model', {str(model)!r}, "
        "'--steps', '2000']) == 0")
    assert loaded & {f"markovfiber.{m}" for m in ("fiber", "toric", "verify")} == set()


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from markovfiber import *", namespace)
    assert [n for n in markovfiber.__all__ if n not in namespace] == []
    assert namespace["enumerate_fiber"] is markovfiber.fiber.enumerate_fiber
    assert set(markovfiber.__all__) <= set(dir(markovfiber))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        markovfiber.nonesuch


def test_every_refusal_is_a_markovfiber_error():
    from markovfiber.cli import CliError
    from markovfiber.datasets import DatasetError, dataset, dataset_labels, dataset_models
    from markovfiber.fiber import FiberError, enumerate_fiber, is_connected
    from markovfiber.fit import FitError, TrackerError
    from markovfiber.mcmc import ChainError
    from markovfiber.toric import ToricError

    for error, base in [(CliError, ValueError), (markovfiber.TableError, ValueError),
                        (markovfiber.ModelError, ValueError), (FitError, ValueError),
                        (ChainError, ValueError), (FiberError, ValueError),
                        (TrackerError, TypeError), (DatasetError, KeyError),
                        (markovfiber.FiberOverflow, RuntimeError), (ToricError, RuntimeError)]:
        assert issubclass(error, markovfiber.MarkovFiberError) and issubclass(error, base)

    mf = markovfiber
    indep = mf.ModelSpec(family=mf.INDEPENDENCE)
    two_blocks = mf.ModelSpec(family=mf.OWN_BLOCKS, row_bounds=(1, 2, 3), col_bounds=(1, 2, 3))
    table, cfg = mf.Table.from_rows([[1, 1], [1, 1]]), mf.build_configuration(indep, 2, 2)
    basis = mf.basis_for_model(indep, 2, 2)
    chain = mf.ChainConfig(steps=100, proposal=basis)
    pair = enumerate_fiber((1, 1, 1, 1), cfg)  # two members
    refusals = [
        (ChainError, lambda: mf.ChainConfig(steps=0, proposal=basis)),
        (ChainError, lambda: mf.ChainConfig(steps=10, burn_in=10, proposal=basis)),
        (ChainError, lambda: mf.ChainConfig(steps=10, thin=0, proposal=basis)),
        (ChainError, lambda: mf.ChainConfig(steps=10, check_every=-1, proposal=basis)),
        (ChainError, lambda: mf.ChainConfig(steps=10)),
        (TrackerError, lambda: mf.walk(table, cfg, chain, object())),
        (mf.TableError, lambda: mf.walk(
            table, cfg, mf.ChainConfig(steps=10, proposal=mf.basis_for_model(indep, 3, 3)),
            lambda x: 0.0)),
        (ChainError, lambda: mf.walk(table, cfg, chain, lambda x: math.inf)),
        (ChainError, lambda: mf.walk(
            table, cfg, chain, lambda x: 0.0 if x[0, 0] == 1 else math.nan)),
        (ChainError, lambda: mf.estimate_pvalue([], 0.0)),
        (ChainError, lambda: mf.run_chains(table, cfg, chain, lambda x: 0.0, n_chains=0)),
        (ChainError, lambda: mf.pooled_pvalue([])),
        (FiberError, lambda: enumerate_fiber((1, 1, 1, 1), cfg, cap=0)),
        (mf.TableError, lambda: enumerate_fiber((1, 1, 1), cfg)),
        (FiberError, lambda: enumerate_fiber((1, 1, 1, 2), cfg)),
        (FiberError, lambda: is_connected(pair, mf.LazyMoveBasis(indep, 2, 2))),
        (mf.ModelError, lambda: mf.enumerate_basis(two_blocks, 2, 2, ("II",)).sampler(None)),
        (mf.ModelError, lambda: mf.LazyMoveBasis(two_blocks, 2, 2, ("II",))),
        (mf.ModelError, lambda: mf.enumerate_basis(indep, 21, 20)),
        (mf.TableError, lambda: mf.is_kernel_move(cfg, mf.Move(((3, 1, 1), (3, 2, -1)), "I"))),
        (mf.TableError, lambda: mf.chi_square(table, np.ones((2, 3)))),
        (FitError, lambda: mf.make_tracker("bogus", table, indep)),
        (DatasetError, lambda: dataset("nope")),
        (DatasetError, lambda: dataset_labels("nope")),
        (DatasetError, lambda: dataset_models("nope")),
    ]
    for error, refusal in refusals:
        with pytest.raises(error):
            refusal()


# builtin exceptions a module may raise: assertions guard internal
# invariants, and PEP 562 asks a module's __getattr__ for AttributeError
ALLOWED_BUILTIN_RAISES = {("__init__.py", "AttributeError")}


def _raised_builtins(path: Path):
    """(file name, builtin exception class) of each ``raise`` in the file
    whose exception is a builtin class other than ``AssertionError``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None)
            if (isinstance(getattr(builtins, name or "", None), type)
                    and issubclass(getattr(builtins, name), BaseException)
                    and name != "AssertionError"):
                yield path.name, name


def test_no_refusal_raises_a_builtin_exception():
    package = Path(markovfiber.__file__).parent
    raised = {hit for path in sorted(package.glob("*.py")) for hit in _raised_builtins(path)}
    assert raised == ALLOWED_BUILTIN_RAISES


def _private_imports(path: Path):
    """(file name, module, name) of each private name the file imports from
    another module of the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("markovfiber")):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield path.name, node.module, alias.name


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is made public where it lives, so no
    # module leans on a helper that its owner may change unannounced
    package = Path(markovfiber.__file__).parent
    assert [hit for path in sorted(package.glob("*.py")) for hit in _private_imports(path)] == []


def test_tables_imports_nothing_from_the_package():
    tree = ast.parse((Path(markovfiber.__file__).parent / "tables.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [n for n in imports if isinstance(n, ast.ImportFrom) and n.level]
    assert not [a.name for n in imports for a in n.names if a.name.startswith("markovfiber")]
