"""Fixtures shared by the test modules."""

import sys

import pytest

from genuslab import localization


def _empty_caches():
    for name, module in list(sys.modules.items()):
        if name == "genuslab" or name.startswith("genuslab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    localization._N_FACTOR_CACHE.clear()


@pytest.fixture
def empty_caches():
    """A function that empties every functools cache of the package and the N-factor cache, as in a fresh process."""
    return _empty_caches
