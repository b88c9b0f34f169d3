"""Run the doctests embedded in the library's docstrings.

The examples in module and function docstrings are part of the
documentation contract; they must execute and produce what they print.
"""

import doctest
import importlib

import pytest

MODULES_WITH_DOCTESTS = [
    "repro.core.bitutils",
    "repro.core.phi",
    "repro.core.difference",
    "repro.core.codec",
    "repro.core.quantizer",
    "repro.core.representative",
    "repro.vq.lossy",
    "repro.relational.domain",
    "repro.relational.schema",
    "repro.relational.encoding",
    "repro.perf.costmodel",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
    assert results.attempted > 0, f"{module_name} has no doctests to run"
