"""Public API tests: every exported name resolves, so a stale entry in an
__all__ list fails a test named after it rather than a star import."""

import importlib

import pytest

import polarlab

# the modules that declare an __all__ (cli and errors do not)
MODULES = ["channel", "codec", "construction", "io_formats", "search",
           "surrogate"]
MODULE_EXPORTS = [(module, name) for module in MODULES
                  for name in importlib.import_module(
                      f"polarlab.{module}").__all__]


@pytest.mark.parametrize("name", polarlab.__all__)
def test_package_export_resolves(name):
    assert hasattr(polarlab, name)


@pytest.mark.parametrize("module,name", MODULE_EXPORTS,
                         ids=[f"{m}.{n}" for m, n in MODULE_EXPORTS])
def test_module_export_resolves(module, name):
    assert hasattr(importlib.import_module(f"polarlab.{module}"), name)
