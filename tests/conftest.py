"""Fixtures shared by the test modules."""

import math

import pytest

from openconvex import chain


@pytest.fixture(scope="session")
def default_sweep():
    """The default band-sweep grid: 60 s-values, N in {1, 2, 5, 50}."""
    s_max = math.sqrt(0.5)
    s_values = [0.5 + k * (s_max - 0.5) / 59.0 for k in range(60)]
    return chain.sweep(s_values, [1, 2, 5, 50])
