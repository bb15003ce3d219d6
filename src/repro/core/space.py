"""Mixed integer / real / categorical parameter search spaces.

The paper (Eq. 1) formulates autotuning as a black-box mixed-integer nonlinear
program over a vector ``x = (x_I, x_R, x_C)`` of integer, real and categorical
parameters.  This module provides the corresponding space description:

* :class:`IntegerParameter` — ordered integer parameter, uniform or
  log-uniform sampling (e.g. ``WriteBatchSize`` in [1, 2048], log-uniform).
* :class:`RealParameter` — continuous parameter, uniform or log-uniform.
* :class:`CategoricalParameter` — unordered categories
  (e.g. ``ThreadPoolType`` in {fifo, fifo_wait, prio_wait}; booleans are
  categoricals with categories ``(False, True)``).
* :class:`OrdinalParameter` — an explicit ordered list of allowed values
  (e.g. ``PESperNode`` in {1, 2, 4, 8, 16, 32}).
* :class:`SearchSpace` — an ordered collection of parameters with sampling,
  validation, and numeric encodings used by the surrogate models.

Configurations have two representations:

* plain ``dict`` objects mapping parameter names to values (alias
  :data:`Configuration`) — the ergonomic public form consumed by evaluators
  and CSV round-tripping;
* :class:`ColumnBatch` — a structure-of-arrays (columnar) batch, a *sheet*:
  the value column of each numeric parameter and the domain-index column
  of each categorical or ordinal parameter.  The hot paths of the optimizer
  (candidate generation, dedup keys, encodings) never touch a Python value
  of a discrete parameter; values are built only for the configurations
  that leave the sheet (:meth:`ColumnBatch.to_configurations`).

Every evaluated configuration is stored in one form, its *words*
(:func:`word_dtype`, :meth:`SearchSpace.to_words`): ``float64`` for a real
parameter, ``int64`` for an integer parameter and the ``int64`` domain index
for a categorical or ordinal parameter.  The search history keeps its
parameter columns in words, the campaign journal's ``rows.bin`` records are
the same words, and a history's rows leave it as a sheet with no lookup.

The sheet codecs (:meth:`SearchSpace.key_array`,
:meth:`SearchSpace.to_numeric_array`, :meth:`SearchSpace.to_one_hot_array`,
:meth:`SearchSpace.to_unit_array`) stack a batch's columns into one float
sheet and transform it one column family at a time (linear numeric, log
numeric, discrete); the one-hot encoding sets every category in one
scatter.  Each family repeats its parameters' ``to_unit_vec`` arithmetic
element for element, so the encodings equal the per-parameter codecs' bit
for bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "Configuration",
    "ColumnBatch",
    "Parameter",
    "IntegerParameter",
    "RealParameter",
    "CategoricalParameter",
    "OrdinalParameter",
    "SearchSpace",
    "word_dtype",
]

#: A configuration is a mapping from parameter name to value.
Configuration = Dict[str, Any]

#: The stored word of each parameter kind: a real parameter is kept as its
#: ``float64`` value, an integer parameter as its ``int64`` value, and a
#: categorical or ordinal parameter as the ``int64`` index into its domain.
#: Search histories and the campaign journal's ``rows.bin`` both read it.
_WORD_DTYPES = {"real": "<f8", "integer": "<i8", "categorical": "<i8", "ordinal": "<i8"}


def word_dtype(param: "Parameter") -> np.dtype:
    """The dtype of ``param``'s stored word (see :data:`_WORD_DTYPES`)."""
    try:
        return np.dtype(_WORD_DTYPES[param.kind])  # type: ignore[attr-defined]
    except (AttributeError, KeyError):
        raise ValueError(
            f"parameter {param.name!r} of type {type(param).__name__} has no stored word"
        ) from None


class Parameter(ABC):
    """Abstract base class for a single tunable parameter.

    Parameters are hashable by name and provide three views of their domain:

    * native values (what the evaluated workflow consumes),
    * the unit interval ``[0, 1]`` (what the samplers and the VAE consume),
    * a numeric surrogate encoding (what the regression models consume).

    Scalar codecs (:meth:`to_unit` / :meth:`from_unit`) have vectorised
    counterparts (:meth:`to_unit_vec` / :meth:`from_unit_vec`) operating on
    whole value columns at once; subclasses override them with NumPy
    implementations, the base class falls back to a per-element loop.
    """

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError(f"parameter name must be a non-empty string, got {name!r}")
        self.name = name

    # ------------------------------------------------------------------- api
    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw value(s) from the parameter's default (uninformative) prior."""

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Whether ``value`` is a legal value for this parameter."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map a native value to the unit interval [0, 1]."""

    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Map a unit-interval position back to a native value."""

    def to_word(self, value: Any) -> Any:
        """The stored word of ``value`` (see :func:`word_dtype`)."""
        raise ValueError(f"{type(self).__name__} has no stored word")

    def to_unit_vec(self, values: Sequence[Any]) -> np.ndarray:
        """Map a column of native values into the unit interval (vectorised)."""
        return np.asarray([self.to_unit(v) for v in values], dtype=float)

    def from_unit_vec(self, u: np.ndarray) -> np.ndarray:
        """Map a column of unit-interval positions back to native values."""
        return np.asarray([self.from_unit(float(v)) for v in np.asarray(u).ravel()])

    @property
    @abstractmethod
    def cardinality(self) -> float:
        """Number of distinct values (``inf`` for continuous parameters)."""

    # ------------------------------------------------------------- comparison
    def _comparable_dict(self) -> Dict[str, Any]:
        # Lazily-built lookup caches must not affect parameter equality.
        return {k: v for k, v in self.__dict__.items() if not k.endswith("_cache")}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Parameter):
            return NotImplemented
        return type(self) is type(other) and self._comparable_dict() == other._comparable_dict()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _log_low_high(low: float, high: float) -> Tuple[float, float]:
    if low <= 0:
        raise ValueError("log-uniform parameters require a strictly positive lower bound")
    return math.log(low), math.log(high)


class RealParameter(Parameter):
    """A continuous parameter on ``[low, high]``.

    Parameters
    ----------
    name:
        Parameter name.
    low, high:
        Inclusive bounds.
    log:
        If True, default sampling is log-uniform on the bounds.
    """

    kind = "real"

    def __init__(self, name: str, low: float, high: float, log: bool = False):
        super().__init__(name)
        if not (high > low):
            raise ValueError(f"{name}: require high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.log = bool(log)
        if self.log:
            _log_low_high(self.low, self.high)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        u = rng.random(size)
        if size is None:
            return self.from_unit(float(u))
        return self.from_unit_vec(np.atleast_1d(u))

    def contains(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= v <= self.high

    def to_word(self, value: Any) -> float:
        """The stored word of ``value``: its ``float``."""
        return float(value)

    def to_unit(self, value: Any) -> float:
        v = float(value)
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            return (math.log(max(v, self.low)) - lo) / (hi - lo)
        return (v - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> float:
        u = min(1.0, max(0.0, float(u)))
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            value = float(math.exp(lo + u * (hi - lo)))
        else:
            value = float(self.low + u * (self.high - self.low))
        # Clamp away floating-point overshoot (exp(log(high)) can exceed high).
        return min(self.high, max(self.low, value))

    def to_unit_vec(self, values: Sequence[Any]) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            return (np.log(np.maximum(v, self.low)) - lo) / (hi - lo)
        return (v - self.low) / (self.high - self.low)

    def from_unit_vec(self, u: np.ndarray) -> np.ndarray:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            value = np.exp(lo + u * (hi - lo))
        else:
            value = self.low + u * (self.high - self.low)
        return np.clip(value, self.low, self.high)

    @property
    def cardinality(self) -> float:
        return float("inf")

    def __repr__(self) -> str:
        tag = ", log" if self.log else ""
        return f"RealParameter({self.name!r}, [{self.low}, {self.high}]{tag})"


class IntegerParameter(Parameter):
    """An integer parameter on ``[low, high]`` (inclusive).

    Parameters
    ----------
    name:
        Parameter name.
    low, high:
        Inclusive integer bounds.
    log:
        If True, default sampling is log-uniform (rounded to integers), as used
        for batch-size-like parameters in the paper (Fig. 1).
    """

    kind = "integer"

    def __init__(self, name: str, low: int, high: int, log: bool = False):
        super().__init__(name)
        if int(low) != low or int(high) != high:
            raise ValueError(f"{name}: integer bounds required, got [{low}, {high}]")
        if not (high > low):
            raise ValueError(f"{name}: require high > low, got [{low}, {high}]")
        self.low = int(low)
        self.high = int(high)
        self.log = bool(log)
        if self.log:
            _log_low_high(self.low, self.high)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        u = rng.random(size)
        if size is None:
            return self.from_unit(float(u))
        return self.from_unit_vec(np.atleast_1d(u))

    def contains(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        # Non-finite values are out of domain (int(v) below would raise);
        # clip() then settles them on a bound, matching clip_columns.
        if not math.isfinite(v):
            return False
        return v == int(v) and self.low <= int(v) <= self.high

    def to_word(self, value: Any) -> int:
        """The stored word of ``value``: its ``int``, which must equal it."""
        word = int(value)
        if word != value:
            raise ValueError(f"{value!r} is not an integer")
        return word

    def to_unit(self, value: Any) -> float:
        v = float(value)
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            return (math.log(max(v, self.low)) - lo) / (hi - lo)
        return (v - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> int:
        u = min(1.0, max(0.0, float(u)))
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            raw = math.exp(lo + u * (hi - lo))
        else:
            raw = self.low + u * (self.high - self.low)
        return int(min(self.high, max(self.low, round(raw))))

    def to_unit_vec(self, values: Sequence[Any]) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            return (np.log(np.maximum(v, self.low)) - lo) / (hi - lo)
        return (v - self.low) / (self.high - self.low)

    def from_unit_vec(self, u: np.ndarray) -> np.ndarray:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        if self.log:
            lo, hi = _log_low_high(self.low, self.high)
            raw = np.exp(lo + u * (hi - lo))
        else:
            raw = self.low + u * (self.high - self.low)
        # np.rint rounds half-to-even, matching the scalar round() above.
        return np.clip(np.rint(raw), self.low, self.high).astype(int)

    @property
    def cardinality(self) -> float:
        return float(self.high - self.low + 1)

    def __repr__(self) -> str:
        tag = ", log" if self.log else ""
        return f"IntegerParameter({self.name!r}, [{self.low}, {self.high}]{tag})"


#: Columns up to this length are looked up value by value (``index_of``);
#: longer ones with one ``==`` broadcast per domain value.
_SCALAR_LOOKUP_MAX = 16


class _IndexedDiscreteMixin:
    """Shared index machinery and codecs of categorical and ordinal parameters.

    A discrete parameter's values are its domain tuple; a
    :class:`ColumnBatch` stores its column as domain indices.  No two
    domain values compare equal (categorical and ordinal constructors
    reject such domains), so index and value determine each other.  The
    value→index map uses first-wins insertion so lookups agree with the
    linear ``==`` scan; unhashable or unknown values fall back to the scan.
    """

    _domain: Tuple[Any, ...]

    def _index_map(self) -> Dict[Any, int]:
        cached = getattr(self, "_index_map_cache", None)
        if cached is None:
            cached = {}
            for i, value in enumerate(self._domain):
                if value not in cached:
                    cached[value] = i
            self._index_map_cache = cached
        return cached

    def _domain_array(self) -> np.ndarray:
        cached = getattr(self, "_domain_array_cache", None)
        if cached is None:
            cached = np.empty(len(self._domain), dtype=object)
            for i, value in enumerate(self._domain):
                cached[i] = value
            self._domain_array_cache = cached
        return cached

    def index_of(self, value: Any) -> int:
        """Index of ``value`` in the domain tuple."""
        try:
            idx = self._index_map().get(value)
        except TypeError:  # unhashable value
            idx = None
        if idx is not None:
            return idx
        for i, v in enumerate(self._domain):
            if value == v:
                return i
        raise ValueError(f"{value!r} is not a value of {self.name}")  # type: ignore[attr-defined]

    def indices_vec(self, values: Sequence[Any]) -> np.ndarray:
        """Indices of a column of values (vectorised lookup).

        The common case — a column of plain scalars over a small domain — is
        resolved with one ``==`` broadcast per domain value (first-wins order,
        matching :meth:`index_of`).  Values no domain comparison claims fall
        back to the scalar :meth:`index_of`, which raises the usual error for
        unknowns.  Value columns enter a :class:`ColumnBatch` through here
        (:meth:`ColumnBatch.from_value_columns`); sampled candidate sheets
        never do.
        """
        n = len(values)
        if n <= _SCALAR_LOOKUP_MAX:
            # Tiny columns (an application encoding the one or two
            # configurations it was handed) are cheaper through the scalar
            # lookup than through per-domain broadcasts.
            index_of = self.index_of
            return np.fromiter((index_of(v) for v in values), dtype=np.intp, count=n)
        arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        out = np.full(n, -1, dtype=np.intp)
        remaining = n
        for i, domain_value in enumerate(self._domain):
            try:
                matches = arr == domain_value
                if np.shape(matches) != (n,):
                    raise TypeError("non-broadcastable comparison")
                matches = np.asarray(matches, dtype=bool)
            except (TypeError, ValueError):
                # Exotic domain (e.g. array-valued categories): broadcast
                # comparison is unusable, resolve everything element-wise.
                return np.fromiter(
                    (self.index_of(v) for v in values), dtype=np.intp, count=n
                )
            matches &= out < 0
            out[matches] = i
            remaining -= int(np.count_nonzero(matches))
            if remaining == 0:
                return out
        for j in np.flatnonzero(out < 0):
            out[j] = self.index_of(arr[j])
        return out

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """The domain values at ``indices`` (an object column)."""
        return self._domain_array()[indices]

    def sample_indices(self, rng: np.random.Generator, size: Optional[int]) -> np.ndarray:
        """``size`` uniform domain indices: the draws :meth:`sample` maps to values."""
        return rng.integers(0, len(self._domain), size=size)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Uniform draws as the domain's own objects."""
        return self.values_at(self.sample_indices(rng, size))

    def to_word(self, value: Any) -> int:
        """The stored word of ``value``: its domain index."""
        return self.index_of(value)

    def indices_from_unit(self, u: np.ndarray) -> np.ndarray:
        """Domain indices of unit-interval positions (equal-width bins)."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        n = len(self._domain)
        return np.minimum(n - 1, (u * n).astype(np.intp))

    def contains(self, value: Any) -> bool:
        return any(value == v for v in self._domain)

    def to_unit(self, value: Any) -> float:
        return (self.index_of(value) + 0.5) / len(self._domain)

    def from_unit(self, u: float) -> Any:
        u = min(1.0, max(0.0, float(u)))
        n = len(self._domain)
        return self._domain[min(n - 1, int(u * n))]

    def to_unit_vec(self, values: Sequence[Any]) -> np.ndarray:
        return (self.indices_vec(values) + 0.5) / len(self._domain)

    def from_unit_vec(self, u: np.ndarray) -> np.ndarray:
        return self.values_at(self.indices_from_unit(u))

    @property
    def cardinality(self) -> float:
        return float(len(self._domain))


class CategoricalParameter(_IndexedDiscreteMixin, Parameter):
    """An unordered categorical parameter.

    Parameters
    ----------
    name:
        Parameter name.
    categories:
        Sequence of allowed values (order only matters for encoding).  No
        two may compare equal, so ``(1, True)``, ``(0, False)`` and
        ``(1, 1.0)`` are rejected.
    """

    kind = "categorical"

    def __init__(self, name: str, categories: Sequence[Any]):
        super().__init__(name)
        cats = list(categories)
        if len(cats) < 2:
            raise ValueError(f"{name}: need at least two categories")
        # 1 == True == 1.0: such categories would be keyed, encoded and
        # journaled as one another.
        for i, a in enumerate(cats):
            for b in cats[i + 1 :]:
                try:
                    equal = bool(a == b)
                except (TypeError, ValueError):  # array-like categories
                    equal = False
                if equal:
                    raise ValueError(f"{name}: categories {a!r} and {b!r} compare equal")
        self.categories: Tuple[Any, ...] = tuple(cats)

    @property
    def _domain(self) -> Tuple[Any, ...]:
        return self.categories

    @classmethod
    def boolean(cls, name: str) -> "CategoricalParameter":
        """Convenience constructor for a True/False parameter."""
        return cls(name, (False, True))

    def __repr__(self) -> str:
        return f"CategoricalParameter({self.name!r}, {list(self.categories)!r})"


class OrdinalParameter(_IndexedDiscreteMixin, Parameter):
    """An ordered discrete parameter with an explicit value list.

    Used for parameters such as ``PESperNode`` whose domain is {1, 2, 4, 8,
    16, 32}: the values have a natural ordering but are not contiguous
    integers.
    """

    kind = "ordinal"

    def __init__(self, name: str, values: Sequence[Any]):
        super().__init__(name)
        vals = list(values)
        if len(vals) < 2:
            raise ValueError(f"{name}: need at least two values")
        if sorted(vals) != vals:
            raise ValueError(f"{name}: ordinal values must be sorted, got {vals!r}")
        if len(set(vals)) != len(vals):
            raise ValueError(f"{name}: duplicate values {vals!r}")
        self.values: Tuple[Any, ...] = tuple(vals)

    @property
    def _domain(self) -> Tuple[Any, ...]:
        return self.values

    def __repr__(self) -> str:
        return f"OrdinalParameter({self.name!r}, {list(self.values)!r})"


def _is_numeric(param: "Parameter") -> bool:
    return isinstance(param, (RealParameter, IntegerParameter))


class ColumnBatch:
    """A batch of configurations in structure-of-arrays (columnar) form.

    One NumPy array per parameter, all of equal length: the value column of
    an integer or real parameter, and the domain-index column (``intp``) of
    a categorical or ordinal parameter.  This is the hot-path
    representation: priors sample straight into index columns, dedup keys
    and encodings read the indices as numbers, and ``take``/``concat``
    move integers.  Python values are built only by :meth:`row`,
    :meth:`to_configurations` and :meth:`values`, i.e. for the few
    configurations that leave the sheet.
    """

    __slots__ = ("space", "_columns", "_n")

    def __init__(self, space: "SearchSpace", columns: Mapping[str, np.ndarray]):
        """Wrap stored columns: numeric values, and domain indices of discrete
        parameters.  Value columns enter through :meth:`from_value_columns`."""
        checked: Dict[str, np.ndarray] = {}
        n = None
        for p, numeric in zip(space, space._layout().numeric):
            if p.name not in columns:
                raise ValueError(f"missing column for parameter {p.name!r}")
            col = np.asarray(columns[p.name])
            if col.ndim != 1:
                raise ValueError(f"column {p.name!r} must be one-dimensional")
            if not numeric and col.dtype.kind not in "iu":
                raise ValueError(
                    f"column {p.name!r} must hold domain indices, got dtype {col.dtype}"
                )
            if n is None:
                n = col.shape[0]
            elif col.shape[0] != n:
                raise ValueError("all columns must have equal length")
            checked[p.name] = col
        self.space = space
        self._columns = checked
        self._n = int(n or 0)

    @classmethod
    def _trusted(
        cls, space: "SearchSpace", columns: Dict[str, np.ndarray], n: int
    ) -> "ColumnBatch":
        """Construct without re-validating columns the library produced."""
        batch = cls.__new__(cls)
        batch.space = space
        batch._columns = columns
        batch._n = n
        return batch

    def discrete_indices(self, param: "Parameter") -> np.ndarray:
        """Domain indices of a categorical/ordinal column (the stored column)."""
        return self._columns[param.name]

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------ views
    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The stored columns (parameter name → array), as the constructor takes them."""
        return dict(self._columns)

    def values(self, name: str) -> np.ndarray:
        """The value column of parameter ``name`` (domain values if discrete)."""
        param = self.space[name]
        col = self._columns[name]
        return col if _is_numeric(param) else param.values_at(col)  # type: ignore[attr-defined]

    def take(self, indices: Union[Sequence[int], np.ndarray]) -> "ColumnBatch":
        """A new batch holding the rows at ``indices`` (in that order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return ColumnBatch._trusted(
            self.space,
            {name: col[idx] for name, col in self._columns.items()},
            int(idx.shape[0]),
        )

    def row(self, i: int) -> Configuration:
        """Materialise row ``i`` as a plain-dict configuration."""
        config: Configuration = {}
        for p, numeric in zip(self.space, self.space._layout().numeric):
            value = self._columns[p.name][i]
            if not numeric:
                config[p.name] = p._domain[int(value)]  # type: ignore[attr-defined]
            else:
                config[p.name] = value.item() if isinstance(value, np.generic) else value
        return config

    def to_configurations(self) -> List[Configuration]:
        """Materialise the whole batch as plain-dict configurations.

        Numeric values are converted to Python scalars (``ndarray.tolist``)
        and discrete values are the domain's own objects, so the dicts
        round-trip through ``repr``/CSV exactly like scalar-sampled
        configurations.
        """
        space = self.space
        lists = []
        for p, numeric in zip(space, space._layout().numeric):
            col = self._columns[p.name]
            lists.append((col if numeric else p.values_at(col)).tolist())  # type: ignore[attr-defined]
        names = space.parameter_names
        return [dict(zip(names, row)) for row in zip(*lists)]

    # ------------------------------------------------------------ constructors
    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Stack batches over equal spaces into one **encode-only** batch.

        The columnar codecs (:meth:`SearchSpace.key_array`,
        :meth:`SearchSpace.to_unit_array` and the numeric/one-hot encodings)
        are row-local — each output row depends only on its input row — so
        encoding the concatenation and slicing the result per member is
        bitwise equal to encoding each batch alone.  That property is what
        every stacked fleet pass rests on.

        The result is for encoding only: ``np.concatenate`` may promote
        numeric columns across members (int64 + float64 → float64), which is
        harmless for the float codecs but would change the value types that
        ``to_configurations`` materialises — keep ``take``/materialisation on
        the member batches, not on the stack.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("concat needs at least one batch")
        if len(batches) == 1:
            return batches[0]
        space = batches[0].space
        for batch in batches[1:]:
            if batch.space is not space and batch.space != space:
                raise ValueError("all batches must share one search space")
        columns = {
            p.name: np.concatenate([batch._columns[p.name] for batch in batches])
            for p in space
        }
        return cls._trusted(space, columns, sum(b._n for b in batches))

    @classmethod
    def from_value_columns(
        cls, space: "SearchSpace", columns: Mapping[str, Sequence[Any]]
    ) -> "ColumnBatch":
        """Build a batch from per-parameter *value* columns.

        Numeric columns are kept as given; discrete columns are looked up
        once (:meth:`_IndexedDiscreteMixin.indices_vec`), which raises for a
        value outside the parameter's domain.
        """
        stored: Dict[str, np.ndarray] = {}
        for p, numeric in zip(space, space._layout().numeric):
            if p.name not in columns:
                raise ValueError(f"missing column for parameter {p.name!r}")
            values = columns[p.name]
            if numeric:
                stored[p.name] = np.asarray(values)
            else:
                stored[p.name] = p.indices_vec(values)  # type: ignore[attr-defined]
        return cls(space, stored)

    @classmethod
    def from_configurations(
        cls, space: "SearchSpace", configs: Sequence[Mapping[str, Any]]
    ) -> "ColumnBatch":
        """Build a columnar batch from row-major configurations."""
        columns: Dict[str, Any] = {}
        for p, numeric in zip(space, space._layout().numeric):
            values = [config[p.name] for config in configs]
            if not numeric and len(values) > _SCALAR_LOOKUP_MAX:
                # indices_vec broadcasts over longer columns; fill an object
                # column element-wise, as np.asarray would split tuple values.
                col = np.empty(len(values), dtype=object)
                for i, v in enumerate(values):
                    col[i] = v
                values = col
            columns[p.name] = values
        return cls.from_value_columns(space, columns)

    def __repr__(self) -> str:
        return f"<ColumnBatch n={self._n} space={self.space!r}>"


#: Inputs accepted by the vectorised space codecs.
ConfigsLike = Union[Sequence[Mapping[str, Any]], ColumnBatch]


class _SheetLayout:
    """A space's parameters grouped into the sheet codecs' column families.

    The codecs stack every stored column of a batch into one ``(P, n)``
    float sheet (:meth:`stack`) and transform it family by family: linear
    numeric, log numeric and discrete rows.  Each family's arithmetic is the
    per-parameter codec's, element for element, on contiguous rows, so the
    encodings equal the per-parameter ones bit for bit.
    """

    def __init__(self, params: Sequence[Parameter]):
        self.names = [p.name for p in params]
        #: Per parameter: numeric (value column) or discrete (index column).
        self.numeric = tuple(_is_numeric(p) for p in params)
        #: Per parameter: its name and the fast value → word map of
        #: :meth:`SearchSpace.to_words` (``float``, the integer check, the
        #: discrete index map); a value it misses takes ``to_word``.
        self.words = tuple((p.name, _fast_word(p)) for p in params)
        linear = [j for j, p in enumerate(params) if self.numeric[j] and not p.log]
        log = [j for j, p in enumerate(params) if self.numeric[j] and p.log]
        discrete = [j for j, p in enumerate(params) if not self.numeric[j]]
        ordinal = [j for j in discrete if not isinstance(params[j], CategoricalParameter)]
        categorical = [j for j in discrete if isinstance(params[j], CategoricalParameter)]

        def column(values):
            return np.asarray(values, dtype=float)[:, None]

        self.linear = np.asarray(linear, dtype=np.intp)
        self.linear_low = column([params[j].low for j in linear])
        self.linear_span = column([params[j].high - params[j].low for j in linear])
        self.log = np.asarray(log, dtype=np.intp)
        self.log_low = column([params[j].low for j in log])
        bounds = [_log_low_high(params[j].low, params[j].high) for j in log]
        self.log_lo = column([lo for lo, _ in bounds])
        self.log_span = column([hi - lo for lo, hi in bounds])
        self.discrete = np.asarray(discrete, dtype=np.intp)
        self.discrete_size = column([len(params[j]._domain) for j in discrete])
        self.ordinal = np.asarray(ordinal, dtype=np.intp)
        self.ordinal_size = column([len(params[j]._domain) for j in ordinal])
        # One-hot sheet: one unit column per non-categorical parameter, one
        # block per categorical parameter, in parameter order.
        starts, offset = [], 0
        for p in params:
            starts.append(offset)
            offset += len(p.categories) if isinstance(p, CategoricalParameter) else 1
        self.one_hot_dim = offset
        self.unit_rows = np.asarray(
            [j for j, p in enumerate(params) if not isinstance(p, CategoricalParameter)],
            dtype=np.intp,
        )
        self.unit_cols = np.asarray([starts[j] for j in self.unit_rows], dtype=np.intp)
        self.categorical_names = [params[j].name for j in categorical]
        self.categorical_starts = np.asarray(
            [starts[j] for j in categorical], dtype=np.intp
        )

    def stack(self, batch: ColumnBatch) -> np.ndarray:
        """The ``(P, n)`` float sheet: raw numeric values and domain indices."""
        columns = batch._columns
        return np.array([columns[name] for name in self.names], dtype=float)

    def log_numeric(self, sheet: np.ndarray) -> np.ndarray:
        """The log rows' surrogate encoding, ``log(max(v, low))``."""
        return np.log(np.maximum(sheet[self.log], self.log_low))

    def to_unit(self, sheet: np.ndarray, discrete: np.ndarray, size: np.ndarray) -> None:
        """Map the numeric rows and the ``discrete`` rows of ``sheet`` into
        the unit interval, in place."""
        if self.linear.size:
            sheet[self.linear] = (sheet[self.linear] - self.linear_low) / self.linear_span
        if self.log.size:
            sheet[self.log] = (self.log_numeric(sheet) - self.log_lo) / self.log_span
        if discrete.size:
            sheet[discrete] = (sheet[discrete] + 0.5) / size


class SearchSpace:
    """An ordered collection of :class:`Parameter` objects.

    The space provides:

    * random sampling of configurations (optionally from a
      :class:`~repro.core.priors.JointPrior`), both row-major
      (:meth:`sample`) and columnar (:meth:`sample_columns`),
    * validation of configurations,
    * numeric encodings for the surrogate models (ordinal encoding and
      one-hot encoding), and
    * unit-cube encodings for the VAE and for distance computations.

    Parameters
    ----------
    parameters:
        Iterable of :class:`Parameter`.  Order defines the encoding order.
    name:
        Optional label (e.g. ``"4n-2s-20p"``).
    """

    def __init__(self, parameters: Iterable[Parameter], name: str = ""):
        params = list(parameters)
        if not params:
            raise ValueError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self._params: List[Parameter] = params
        self._by_name: Dict[str, Parameter] = {p.name: p for p in params}
        self.name = name

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchSpace):
            return NotImplemented
        return self._params == other._params

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<SearchSpace{label} n={len(self._params)}>"

    # ------------------------------------------------------------- properties
    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """The parameters, in encoding order."""
        return tuple(self._params)

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        """Parameter names, in encoding order."""
        return tuple(p.name for p in self._params)

    @property
    def cardinality(self) -> float:
        """Total number of distinct configurations (``inf`` if any real param)."""
        total = 1.0
        for p in self._params:
            total *= p.cardinality
        return total

    # ----------------------------------------------------------------- checks
    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` if ``config`` is not a full, legal configuration."""
        missing = [n for n in self.parameter_names if n not in config]
        if missing:
            raise ValueError(f"configuration is missing parameters: {missing}")
        extra = [n for n in config if n not in self._by_name]
        if extra:
            raise ValueError(f"configuration has unknown parameters: {extra}")
        for p in self._params:
            if not p.contains(config[p.name]):
                raise ValueError(
                    f"value {config[p.name]!r} is illegal for parameter {p.name!r} ({p!r})"
                )

    def contains(self, config: Mapping[str, Any]) -> bool:
        """Whether ``config`` is a full, legal configuration of this space."""
        try:
            self.validate(config)
        except ValueError:
            return False
        return True

    # --------------------------------------------------------------- sampling
    def sample(
        self,
        n: int,
        rng: np.random.Generator,
        prior: Optional["JointPriorLike"] = None,
    ) -> List[Configuration]:
        """Draw ``n`` configurations (row-major dicts).

        Parameters
        ----------
        n:
            Number of configurations to draw.
        rng:
            NumPy random generator.
        prior:
            Optional joint prior providing ``sample_configurations(n, rng)``.
            When omitted every parameter uses its default (uniform or
            log-uniform) distribution — the "user-defined prior" of the paper.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return []
        if prior is not None:
            configs = prior.sample_configurations(n, rng)
            return [self.clip(c) for c in configs]
        return self.sample_columns(n, rng).to_configurations()

    def sample_columns(
        self,
        n: int,
        rng: np.random.Generator,
        prior: Optional["JointPriorLike"] = None,
    ) -> ColumnBatch:
        """Draw ``n`` configurations directly into a columnar batch.

        This is the hot-path variant of :meth:`sample`: no per-configuration
        dicts are built, and discrete columns are drawn as domain indices.
        Priors implementing ``sample_columns`` (all priors in
        :mod:`repro.core.priors` and :mod:`repro.core.transfer`) sample
        whole columns at once and are trusted to produce in-domain values, so
        no per-row clipping pass is needed.  Without a prior, the draws are
        those of :meth:`sample`, kept as indices.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if prior is not None:
            return ColumnBatch(self, prior.sample_columns(n, rng))
        return ColumnBatch._trusted(
            self,
            {
                p.name: p.sample(rng, size=n) if numeric
                else p.sample_indices(rng, n)  # type: ignore[attr-defined]
                for p, numeric in zip(self._params, self._layout().numeric)
            },
            n,
        )

    def clip(self, config: Mapping[str, Any]) -> Configuration:
        """Project an arbitrary mapping onto the closest legal configuration."""
        out: Configuration = {}
        for p in self._params:
            if p.name not in config:
                raise ValueError(f"configuration is missing parameter {p.name!r}")
            value = config[p.name]
            if p.contains(value):
                out[p.name] = value
                continue
            if isinstance(p, (RealParameter, IntegerParameter)):
                try:
                    v = float(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"cannot clip non-numeric value {value!r} for {p.name!r}"
                    ) from None
                v = min(p.high, max(p.low, v))
                out[p.name] = int(round(v)) if isinstance(p, IntegerParameter) else v
            else:
                # Snap to the nearest category/value in unit space.
                out[p.name] = p.from_unit(0.5) if not _snappable(p, value) else _snap(p, value)
        return out

    def clip_columns(
        self, columns: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Columnar :meth:`clip`: project whole value columns into the space.

        In-domain values pass through untouched (same objects, so value types
        survive exactly as in the per-row path); out-of-domain numeric values
        are clipped to the bounds (rounded for integer parameters) and
        out-of-domain discrete values snap like :meth:`clip` does.  The
        output is bit-compatible with mapping :meth:`clip` over materialised
        row dicts — pinned by the transfer-learning tests — without building
        any row dict.  Columns whose values are all legal are returned as-is.
        """
        out: Dict[str, np.ndarray] = {}
        for p in self._params:
            if p.name not in columns:
                raise ValueError(f"columns are missing parameter {p.name!r}")
            col = np.asarray(columns[p.name])
            if isinstance(p, (RealParameter, IntegerParameter)):
                try:
                    values = col.astype(float)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"cannot clip non-numeric values for {p.name!r}"
                    ) from None
                inside = (values >= p.low) & (values <= p.high)
                if isinstance(p, IntegerParameter):
                    inside &= values == np.rint(values)
                bad = np.flatnonzero(~inside)
                if bad.size == 0:
                    out[p.name] = col
                    continue
                fixed = col.astype(object)
                for j in bad:
                    # Same scalar arithmetic as clip() so the columns stay
                    # bit-compatible with the per-row path (incl. non-finite
                    # values, which Python's min/max settle on a bound).
                    v = min(p.high, max(p.low, float(values[j])))
                    fixed[j] = int(round(v)) if isinstance(p, IntegerParameter) else v
                out[p.name] = fixed
            else:
                # Discrete parameters: membership via the (first-wins) index
                # map; the rare out-of-domain value snaps exactly like clip.
                index_map = p._index_map()  # type: ignore[attr-defined]
                bad = []
                for j, v in enumerate(col):
                    try:
                        known = v in index_map
                    except TypeError:
                        known = False
                    if not known and not p.contains(v):
                        bad.append(j)
                if not bad:
                    out[p.name] = col
                    continue
                fixed = col.astype(object)
                for j in bad:
                    v = col[j]
                    fixed[j] = _snap(p, v) if _snappable(p, v) else p.from_unit(0.5)
                out[p.name] = fixed
        return out

    # ------------------------------------------------------------------ words
    def to_words(self, config: Mapping[str, Any]) -> List[Any]:
        """The stored words of a full configuration, in parameter order.

        Raises ``ValueError`` naming the missing or extra keys of an
        incomplete configuration, or the parameter whose value has no word:
        a non-integral value of an integer parameter, a discrete value
        outside its domain, or a non-numeric value of a real parameter.
        """
        try:
            words = [to_word(config[name]) for name, to_word in self._layout().words]
            if len(config) == len(words):
                return words
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        # Parameter by parameter: the words of values the fast maps miss (a
        # discrete value equal to, but not hashed like, a domain value), or
        # the error naming what is wrong.
        missing = [name for name in self._by_name if name not in config]
        extra = [key for key in config if key not in self._by_name]
        if missing or extra:
            problems = [f"missing parameters {missing}"] if missing else []
            problems += [f"unknown keys {extra}"] if extra else []
            raise ValueError("configuration has " + " and ".join(problems))
        words = []
        for p in self._params:
            value = config[p.name]
            try:
                words.append(p.to_word(value))
            except (TypeError, ValueError, OverflowError) as error:
                raise ValueError(
                    f"parameter {p.name!r} cannot store {value!r}: {error}"
                ) from None
        return words

    # -------------------------------------------------------------- encodings
    def _as_batch(self, configs: ConfigsLike) -> ColumnBatch:
        """``configs`` as a batch of this space (row lists are converted once)."""
        if isinstance(configs, ColumnBatch):
            if configs.space is not self and configs.space != self:
                raise ValueError("the batch belongs to a different search space")
            return configs
        return ColumnBatch.from_configurations(self, configs)

    def _layout(self) -> _SheetLayout:
        layout = getattr(self, "_layout_cache", None)
        if layout is None:
            layout = self._layout_cache = _SheetLayout(self._params)
        return layout

    def to_unit_array(self, configs: ConfigsLike) -> np.ndarray:
        """Encode configurations into the unit hypercube (one row per config)."""
        layout = self._layout()
        sheet = layout.stack(self._as_batch(configs))
        layout.to_unit(sheet, layout.discrete, layout.discrete_size)
        return sheet.T.copy()

    def from_unit_array(self, arr: np.ndarray) -> List[Configuration]:
        """Decode unit-hypercube rows back into configurations."""
        return self.from_unit_columns(arr).to_configurations()

    def from_unit_columns(self, arr: np.ndarray) -> ColumnBatch:
        """Decode unit-hypercube rows into a columnar batch."""
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        if arr.shape[1] != len(self._params):
            raise ValueError(
                f"expected {len(self._params)} columns, got {arr.shape[1]}"
            )
        numeric = self._layout().numeric
        return ColumnBatch._trusted(
            self,
            {
                p.name: p.from_unit_vec(arr[:, j]) if numeric[j]
                else p.indices_from_unit(arr[:, j])  # type: ignore[attr-defined]
                for j, p in enumerate(self._params)
            },
            arr.shape[0],
        )

    def to_numeric_array(self, configs: ConfigsLike) -> np.ndarray:
        """Ordinal numeric encoding used by tree-based surrogates.

        Integer/real parameters map to their value, log-scaled when the
        parameter is log-uniform; categorical and ordinal parameters map to
        their index.  For log-uniform parameters, values are clipped to the
        parameter's (strictly positive) lower bound before taking the log, so
        a non-positive out-of-domain value can never silently mix a
        linear-scale number into an otherwise log-scale column.
        """
        layout = self._layout()
        sheet = layout.stack(self._as_batch(configs))
        if layout.log.size:
            sheet[layout.log] = layout.log_numeric(sheet)
        return sheet.T.copy()

    def one_hot_dimension(self) -> int:
        """Number of columns of the one-hot encoding."""
        return self._layout().one_hot_dim

    def to_one_hot_array(self, configs: ConfigsLike) -> np.ndarray:
        """One-hot encoding used by the Gaussian-process surrogate.

        Numeric and ordinal parameters occupy one column each (scaled to the
        unit interval); each categorical parameter expands into one column per
        category, all set in one scatter.
        """
        layout = self._layout()
        batch = self._as_batch(configs)
        sheet = layout.stack(batch)
        layout.to_unit(sheet, layout.ordinal, layout.ordinal_size)
        n = len(batch)
        arr = np.zeros((n, layout.one_hot_dim), dtype=float)
        arr[:, layout.unit_cols] = sheet[layout.unit_rows].T
        if layout.categorical_names:
            columns = batch._columns
            hot = np.array([columns[name] for name in layout.categorical_names], dtype=np.intp)
            hot += layout.categorical_starts[:, None]
            hot += np.arange(0, n * layout.one_hot_dim, layout.one_hot_dim)
            arr.reshape(-1)[hot] = 1.0
        return arr

    def key_array(self, configs: ConfigsLike) -> np.ndarray:
        """Raw-value matrix used for exact-duplicate detection (one row per config).

        Numeric parameters contribute their raw value (no log scaling, no unit
        transform — raw values pass through sampling, proposal and ``tell``
        bitwise unchanged, whereas transcendental transforms may differ in the
        last ulp between code paths); discrete parameters contribute their
        index.  ``row.tobytes()`` of a row is therefore a stable dedup key.
        """
        return self._layout().stack(self._as_batch(configs)).T.copy()

    # ------------------------------------------------------------ composition
    def subspace(self, names: Sequence[str], name: str = "") -> "SearchSpace":
        """A new space restricted to ``names`` (preserving this space's order)."""
        unknown = [n for n in names if n not in self._by_name]
        if unknown:
            raise ValueError(f"unknown parameters: {unknown}")
        selected = [p for p in self._params if p.name in set(names)]
        return SearchSpace(selected, name=name)

    def union(self, other: "SearchSpace", name: str = "") -> "SearchSpace":
        """A space containing this space's parameters plus ``other``'s new ones."""
        params = list(self._params)
        for p in other:
            if p.name not in self._by_name:
                params.append(p)
        return SearchSpace(params, name=name)

    def common_parameters(self, other: "SearchSpace") -> List[str]:
        """Names present in both spaces (used by transfer learning)."""
        return [p.name for p in self._params if p.name in other]

    def new_parameters(self, previous: "SearchSpace") -> List[str]:
        """Names present here but absent from ``previous`` (Algorithm 1, l.3)."""
        return [p.name for p in self._params if p.name not in previous]


def _fast_word(param: Parameter):
    """The value → word map :meth:`SearchSpace.to_words` tries first."""
    if isinstance(param, RealParameter):
        return float
    if isinstance(param, _IndexedDiscreteMixin):
        return param._index_map().__getitem__
    return param.to_word


def _snappable(param: Parameter, value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating))


def _snap(param: Parameter, value: Any) -> Any:
    """Snap a numeric value to the nearest allowed discrete value."""
    if isinstance(param, OrdinalParameter):
        vals = [v for v in param.values if isinstance(v, (int, float))]
        if vals:
            return min(vals, key=lambda v: abs(v - float(value)))
    return param.from_unit(0.5)


class JointPriorLike:
    """Structural protocol for joint priors (see :mod:`repro.core.priors`)."""

    def sample_configurations(self, n: int, rng: np.random.Generator) -> List[Configuration]:
        raise NotImplementedError

    def sample_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        raise NotImplementedError
