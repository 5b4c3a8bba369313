"""Fixtures shared by the test modules."""

import sys

import pytest


def _empty_caches():
    for name, module in list(sys.modules.items()):
        if name == "genuslab" or name.startswith("genuslab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def empty_caches():
    """A function that empties every cache of the package, as in a fresh process: each is a functools cache."""
    return _empty_caches
