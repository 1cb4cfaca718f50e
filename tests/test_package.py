"""The package's export lists, and the layers that importing it loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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

    for error, base in [(CliError, ValueError), (markovfiber.TableError, ValueError),
                        (markovfiber.ModelError, ValueError),
                        (markovfiber.fit.FitError, ValueError),
                        (markovfiber.FiberOverflow, RuntimeError),
                        (markovfiber.toric.ToricError, RuntimeError)]:
        assert issubclass(error, markovfiber.MarkovFiberError) and issubclass(error, base)
