"""Per-element reference implementations of the search-space codecs.

The scalar loops the vectorised :class:`~repro.core.space.SearchSpace`
codecs replaced, kept as the ground truth for the property-based
equivalence tests.  Semantics match the vectorised codecs (including the log
clip fix in ``to_numeric_array``) up to ≤1-ulp differences between
``math.log``/``exp`` and ``np.log``/``exp``.
"""

import math
from typing import Any, List, Mapping, Sequence

import numpy as np

from repro.core.space import (
    CategoricalParameter,
    Configuration,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)

__all__ = [
    "from_unit_array_loop",
    "to_numeric_array_loop",
    "to_one_hot_array_loop",
    "to_unit_array_loop",
]


def to_unit_array_loop(
    space: SearchSpace, configs: Sequence[Mapping[str, Any]]
) -> np.ndarray:
    """Reference scalar implementation of :meth:`SearchSpace.to_unit_array`."""
    arr = np.empty((len(configs), len(space._params)), dtype=float)
    for i, config in enumerate(configs):
        for j, p in enumerate(space._params):
            arr[i, j] = p.to_unit(config[p.name])
    return arr


def from_unit_array_loop(space: SearchSpace, arr: np.ndarray) -> List[Configuration]:
    """Reference scalar implementation of :meth:`SearchSpace.from_unit_array`."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if arr.shape[1] != len(space._params):
        raise ValueError(
            f"expected {len(space._params)} columns, got {arr.shape[1]}"
        )
    configs = []
    for row in arr:
        configs.append(
            {p.name: p.from_unit(float(u)) for p, u in zip(space._params, row)}
        )
    return configs


def to_numeric_array_loop(
    space: SearchSpace, configs: Sequence[Mapping[str, Any]]
) -> np.ndarray:
    """Reference scalar implementation of :meth:`SearchSpace.to_numeric_array`."""
    arr = np.empty((len(configs), len(space._params)), dtype=float)
    for i, config in enumerate(configs):
        for j, p in enumerate(space._params):
            value = config[p.name]
            if isinstance(p, (RealParameter, IntegerParameter)):
                v = float(value)
                arr[i, j] = math.log(max(v, p.low)) if p.log else v
            else:
                arr[i, j] = float(p.index_of(value))
    return arr


def to_one_hot_array_loop(
    space: SearchSpace, configs: Sequence[Mapping[str, Any]]
) -> np.ndarray:
    """Reference scalar implementation of :meth:`SearchSpace.to_one_hot_array`."""
    arr = np.zeros((len(configs), space.one_hot_dimension()), dtype=float)
    for i, config in enumerate(configs):
        col = 0
        for p in space._params:
            value = config[p.name]
            if isinstance(p, CategoricalParameter):
                arr[i, col + p.index_of(value)] = 1.0
                col += len(p.categories)
            else:
                arr[i, col] = p.to_unit(value)
                col += 1
    return arr
