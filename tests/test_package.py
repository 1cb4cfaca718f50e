"""The package's export lists."""

import importlib
import pkgutil

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
