"""Tabular transform between configurations and the VAE's numeric inputs.

The TVAE of Xu et al. handles mixed tabular data by transforming each column
into a numeric representation before training.  Here the transform is driven
by the :class:`~repro.core.space.SearchSpace` that produced the
configurations:

* integer, real and ordinal parameters map to a single column in ``[0, 1]``
  using the parameter's own unit transform (which already accounts for
  log-uniform scaling — the analogue of TVAE's mode-specific normalisation
  for our bounded parameters);
* categorical parameters map to a one-hot block.

Decoding inverts the mapping: numeric columns go through
``Parameter.from_unit`` (clipped to ``[0, 1]``), categorical blocks are
interpreted as probability vectors from which a category is sampled (or the
arg-max taken).

Both directions are columnar on the hot path.
:meth:`TabularTransform.encode_columns` maps a
:class:`~repro.core.space.ColumnBatch` (e.g. straight from
:meth:`~repro.core.history.SearchHistory.top_quantile_columns`) into the
design matrix — which is the space's one-hot encoding — or a plain
``{name: value column}`` mapping through the per-parameter value codecs.
:meth:`TabularTransform.decode_columns` turns VAE outputs back into a
batch of domain indices and numeric values: it draws every categorical
block's uniforms in one call and decodes the blocks one pass per block
width.  The row-major :meth:`TabularTransform.encode` /
:meth:`TabularTransform.decode` are kept as the bit-identical reference pair
(property-tested against the column path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.space import (
    CategoricalParameter,
    ColumnBatch,
    Configuration,
    OrdinalParameter,
    Parameter,
    SearchSpace,
)

__all__ = ["ColumnSpec", "TabularTransform"]


def blocks_by_width(
    blocks: Sequence[Tuple[int, int]]
) -> List[Tuple[List[int], np.ndarray]]:
    """Group ``(start, stop)`` column blocks by width, in first-seen order.

    Each group is ``(positions, index)``: the block numbers of that width,
    and a ``(blocks, width)`` array of their column indices, so
    ``X[:, index]`` lays the group out as ``(rows, blocks, width)``.  A
    reduction over its last axis is each block's own row reduction, bit
    for bit.
    """
    groups = []
    for width in dict.fromkeys(stop - start for start, stop in blocks):
        positions = [j for j, (start, stop) in enumerate(blocks) if stop - start == width]
        starts = np.array([blocks[j][0] for j in positions], dtype=np.intp)
        groups.append((positions, starts[:, None] + np.arange(width)))
    return groups


@dataclass(frozen=True)
class ColumnSpec:
    """Layout of one parameter inside the transformed matrix."""

    parameter: Parameter
    start: int
    width: int
    is_categorical: bool

    @property
    def stop(self) -> int:
        """End column (exclusive) of this parameter's block."""
        return self.start + self.width


class TabularTransform:
    """Bidirectional mapping between configurations and VAE input rows.

    Parameters
    ----------
    space:
        The search space defining the columns.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self._columns: List[ColumnSpec] = []
        offset = 0
        for param in space:
            if isinstance(param, CategoricalParameter):
                width = len(param.categories)
                self._columns.append(ColumnSpec(param, offset, width, True))
            else:
                width = 1
                self._columns.append(ColumnSpec(param, offset, width, False))
            offset += width
        self._dim = offset

    # ------------------------------------------------------------- properties
    @property
    def dimension(self) -> int:
        """Number of columns of the transformed representation."""
        return self._dim

    @property
    def columns(self) -> Tuple[ColumnSpec, ...]:
        """Per-parameter column layout."""
        return tuple(self._columns)

    @property
    def numeric_columns(self) -> List[int]:
        """Indices of the numeric (non-categorical) columns."""
        return [c.start for c in self._columns if not c.is_categorical]

    @property
    def categorical_blocks(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` ranges of the categorical one-hot blocks."""
        return [(c.start, c.stop) for c in self._columns if c.is_categorical]

    # ----------------------------------------------------------------- encode
    def encode(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """Transform row-major configurations into the numeric matrix.

        This is the reference row path: per-parameter value lists are pulled
        out of the configuration dicts and run through the same column codecs
        as :meth:`encode_columns` (which the property tests pin as
        bit-identical).
        """
        columns = {
            col.parameter.name: [config[col.parameter.name] for config in configurations]
            for col in self._columns
        }
        return self._encode_column_values(len(configurations), columns)

    def encode_columns(
        self, columns: Union["ColumnBatch", Mapping[str, Sequence]]
    ) -> np.ndarray:
        """Transform a batch or per-parameter value columns into the numeric matrix.

        The columnar hot path of the transfer-learning pipeline: a batch
        comes straight from :meth:`~repro.core.history.SearchHistory.top_quantile_columns`
        and no per-row dict is ever built.  The transform's layout is the
        space's one-hot layout (a unit column per numeric or ordinal
        parameter, a block per categorical one), so a batch of the
        transform's own space is encoded by
        :meth:`~repro.core.space.SearchSpace.to_one_hot_array`.  A batch of
        another space covering the transform's parameters, or a
        ``{name: value column}`` mapping, goes through the value codecs.
        """
        if isinstance(columns, ColumnBatch):
            batch = columns
            if batch.space is self.space or batch.space == self.space:
                return self.space.to_one_hot_array(batch)
            names = [col.parameter.name for col in self._columns]
            return self._encode_column_values(
                len(batch), {name: batch.values(name) for name in names}
            )
        lengths = {np.shape(np.asarray(columns[c.parameter.name]))[0] for c in self._columns}
        if len(lengths) != 1:
            raise ValueError(f"columns must have equal length, got {sorted(lengths)}")
        return self._encode_column_values(lengths.pop(), columns)

    def _encode_column_values(
        self, n: int, columns: Mapping[str, Sequence]
    ) -> np.ndarray:
        """Shared column-codec pass behind :meth:`encode`/:meth:`encode_columns`."""
        X = np.zeros((n, self._dim), dtype=float)
        rows = np.arange(n)
        for col in self._columns:
            values = columns[col.parameter.name]
            if col.is_categorical:
                idx = col.parameter.indices_vec(values)  # type: ignore[attr-defined]
                X[rows, col.start + idx] = 1.0
            else:
                X[:, col.start] = col.parameter.to_unit_vec(values)
        return X

    # ----------------------------------------------------------------- decode
    def decode_columns(
        self,
        X: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        sample_categories: bool = True,
    ) -> "ColumnBatch":
        """Transform VAE outputs into a columnar configuration batch.

        Discrete columns come out as domain indices.  With
        ``sample_categories``, block ``b``'s uniforms are row ``b`` of one
        ``rng.random((blocks, n))`` draw — the stream of one ``rng.random(n)``
        per block in block order — and every block of one width is decoded
        in one pass.

        Parameters
        ----------
        X:
            Matrix of shape (n, dimension); numeric columns are interpreted as
            unit-interval positions, categorical blocks as (unnormalised)
            probability vectors.
        rng:
            Random generator used when sampling categories.
        sample_categories:
            If True, categories are sampled from the block probabilities
            (preserving the learned diversity) via one inverse-CDF draw per
            block; otherwise the arg-max is used.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self._dim:
            raise ValueError(f"expected {self._dim} columns, got {X.shape[1]}")
        if sample_categories and rng is None:
            rng = np.random.default_rng()
        n = X.shape[0]
        columns = {}
        blocks = [col for col in self._columns if col.is_categorical]
        if blocks and sample_categories:
            draws = rng.random((len(blocks), n))
        for positions, index in blocks_by_width([(c.start, c.stop) for c in blocks]):
            block = np.clip(X[:, index], 1e-12, None)  # (n, blocks, width)
            probs = block / block.sum(axis=2, keepdims=True)
            if sample_categories:
                cum = np.cumsum(probs, axis=2)
                below = cum < draws[positions].T[:, :, None]
                idx = np.minimum(below.sum(axis=2), index.shape[1] - 1)
            else:
                idx = np.argmax(probs, axis=2)
            for b, position in enumerate(positions):
                columns[blocks[position].parameter.name] = idx[:, b]
        for col in self._columns:
            if not col.is_categorical:
                param = col.parameter
                u = np.clip(X[:, col.start], 0.0, 1.0)
                if isinstance(param, OrdinalParameter):
                    columns[param.name] = param.indices_from_unit(u)
                else:
                    columns[param.name] = param.from_unit_vec(u)
        return ColumnBatch._trusted(
            self.space, {name: columns[name] for name in self.space.parameter_names}, n
        )

    def decode(
        self,
        X: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        sample_categories: bool = True,
    ) -> List[Configuration]:
        """Transform VAE outputs back into row-major configurations.

        Materialising wrapper around :meth:`decode_columns`.
        """
        return self.decode_columns(
            X, rng=rng, sample_categories=sample_categories
        ).to_configurations()
