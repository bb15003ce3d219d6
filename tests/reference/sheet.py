"""The value-typed candidate sheet: the ask pipeline over Python values.

:class:`~repro.core.space.ColumnBatch` stores every categorical and ordinal
column as domain indices, from the sampler to the proposal.  Before that,
a sheet held the *values* in object columns: the samplers and the VAE
decoder mapped their indices to values, and every encoding looked them up
again (``indices_vec``, memoised per batch), parameter by parameter.  This
module keeps that pipeline as the oracle the index sheets must match bit
for bit (``tests/core/test_sheet_properties.py``):

* :class:`ValueColumnBatch` — the object-column batch with its memoised
  index columns and ``take``;
* :func:`sample_array` / :func:`sample_columns` — the value-typed
  per-parameter and joint priors (independent, mixture, transfer and
  refresh; mixed parts are concatenated with object promotion), with
  :func:`decode_columns` (one categorical pass and one ``rng.random(n)``
  draw per block) and :func:`decode_activations` (one softmax per block);
* :func:`key_array`, :func:`to_numeric_array`, :func:`to_one_hot_array`
  and :func:`to_unit_array` — the per-parameter sheet codecs;
* :func:`prepare_ask` / :func:`finish_ask` — the solo ask over value
  sheets, with an eager unit encoding and the kernel-penalty loop that
  updates the scores after every pick, the last one included.

The fleet ask must equal :func:`prepare_ask` per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.priors import (
    CategoricalPrior,
    IndependentPrior,
    JointPrior,
    MixturePrior,
    UniformPrior,
)
from repro.core.space import (
    CategoricalParameter,
    Configuration,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.transfer import TransferLearningPrior

__all__ = [
    "ValueColumnBatch",
    "ValuePreparedAsk",
    "decode_activations",
    "decode_columns",
    "finish_ask",
    "key_array",
    "prepare_ask",
    "sample_array",
    "sample_columns",
    "to_numeric_array",
    "to_one_hot_array",
    "to_unit_array",
]


def _numeric(param) -> bool:
    return isinstance(param, (RealParameter, IntegerParameter))


def _object_column(values: Sequence[Any]) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        column[i] = value
    return column


class ValueColumnBatch:
    """A sheet of value columns, discrete indices looked up once and memoised."""

    def __init__(self, space: SearchSpace, columns: Mapping[str, np.ndarray]):
        self.space = space
        self.columns = {p.name: np.asarray(columns[p.name]) for p in space}
        self.n = len(next(iter(self.columns.values())))
        self._indices: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self.n

    def discrete_indices(self, param) -> np.ndarray:
        cached = self._indices.get(param.name)
        if cached is None:
            cached = param.indices_vec(self.columns[param.name])
            self._indices[param.name] = cached
        return cached

    def take(self, indices) -> "ValueColumnBatch":
        idx = np.asarray(indices, dtype=np.intp)
        batch = ValueColumnBatch(
            self.space, {name: col[idx] for name, col in self.columns.items()}
        )
        batch.n = int(idx.shape[0])
        batch._indices = {name: arr[idx] for name, arr in self._indices.items()}
        return batch

    def to_configurations(self) -> List[Configuration]:
        names = self.space.parameter_names
        lists = [self.columns[name].tolist() for name in names]
        return [dict(zip(names, row)) for row in zip(*lists)]

    @classmethod
    def from_configurations(cls, space: SearchSpace, configs) -> "ValueColumnBatch":
        columns = {}
        for p in space:
            values = [config[p.name] for config in configs]
            columns[p.name] = np.asarray(values) if _numeric(p) else _object_column(values)
        batch = cls(space, columns)
        batch.n = len(configs)
        return batch


# -------------------------------------------------------------------- codecs
def key_array(space: SearchSpace, batch: ValueColumnBatch) -> np.ndarray:
    arr = np.empty((len(batch), len(space)), dtype=float)
    for j, p in enumerate(space):
        if _numeric(p):
            arr[:, j] = np.asarray(batch.columns[p.name], dtype=float)
        else:
            arr[:, j] = batch.discrete_indices(p)
    return arr


def to_numeric_array(space: SearchSpace, batch: ValueColumnBatch) -> np.ndarray:
    arr = np.empty((len(batch), len(space)), dtype=float)
    for j, p in enumerate(space):
        if _numeric(p):
            v = np.asarray(batch.columns[p.name], dtype=float)
            arr[:, j] = np.log(np.maximum(v, p.low)) if p.log else v
        else:
            arr[:, j] = batch.discrete_indices(p)
    return arr


def _unit_column(p, batch: ValueColumnBatch) -> np.ndarray:
    if _numeric(p):
        return p.to_unit_vec(batch.columns[p.name])
    return (batch.discrete_indices(p) + 0.5) / len(p._domain)


def to_unit_array(space: SearchSpace, batch: ValueColumnBatch) -> np.ndarray:
    arr = np.empty((len(batch), len(space)), dtype=float)
    for j, p in enumerate(space):
        arr[:, j] = _unit_column(p, batch)
    return arr


def to_one_hot_array(space: SearchSpace, batch: ValueColumnBatch) -> np.ndarray:
    n = len(batch)
    arr = np.zeros((n, space.one_hot_dimension()), dtype=float)
    rows = np.arange(n)
    col = 0
    for p in space:
        if isinstance(p, CategoricalParameter):
            arr[rows, col + batch.discrete_indices(p)] = 1.0
            col += len(p.categories)
        else:
            arr[:, col] = _unit_column(p, batch)
            col += 1
    return arr


def _encode(opt, batch: ValueColumnBatch) -> np.ndarray:
    if opt.encoding == "one_hot":
        return to_one_hot_array(opt.space, batch)
    return to_numeric_array(opt.space, batch)


# ------------------------------------------------------------------ sampling
def sample_array(prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """A per-parameter prior's draw as a value column."""
    p = prior.parameter
    if isinstance(prior, CategoricalPrior):
        values = _object_column(prior.values)
        return values[prior._cdf.searchsorted(rng.random(n), side="right")]
    if isinstance(prior, UniformPrior) and not _numeric(p):
        return np.asarray(p.sample(rng, size=n))
    return prior.sample_array(n, rng)


def _concat_shuffle(space, parts, permutation) -> Dict[str, np.ndarray]:
    out = {}
    for p in space:
        pieces = [np.asarray(part[p.name]) for part in parts]
        if len(pieces) == 1:
            column = pieces[0]
        else:
            if any(piece.dtype == object for piece in pieces):
                pieces = [piece.astype(object) for piece in pieces]
            column = np.concatenate(pieces)
        out[p.name] = column[permutation]
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def decode_activations(vae, logits: np.ndarray) -> np.ndarray:
    """Sigmoid on numeric columns, then one softmax per categorical block."""
    from repro.core.vae.tvae import _sigmoid

    out = np.empty_like(logits)
    if vae.numeric_columns:
        cols = vae.numeric_columns
        out[:, cols] = _sigmoid(logits[:, cols])
    for start, stop in vae.categorical_blocks:
        out[:, start:stop] = _softmax(logits[:, start:stop])
    return out


def vae_sample(vae, n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, vae.latent_dim))
    return decode_activations(vae, vae.decoder.forward(z))


def decode_columns(
    transform, X: np.ndarray, rng=None, sample_categories: bool = True
) -> Dict[str, np.ndarray]:
    """Value columns of VAE outputs, one pass and one draw per block."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    columns = {}
    for col in transform.columns:
        param = col.parameter
        if col.is_categorical:
            block = np.clip(X[:, col.start : col.stop], 1e-12, None)
            probs = block / block.sum(axis=1, keepdims=True)
            if sample_categories:
                cum = np.cumsum(probs, axis=1)
                draws = rng.random(n)
                idx = np.minimum((cum < draws[:, None]).sum(axis=1), probs.shape[1] - 1)
            else:
                idx = np.argmax(probs, axis=1)
            columns[param.name] = _object_column(param.categories)[idx]
        else:
            columns[param.name] = param.from_unit_vec(np.clip(X[:, col.start], 0.0, 1.0))
    return columns


def _transfer_columns(prior: TransferLearningPrior, n, rng) -> Dict[str, np.ndarray]:
    n_uniform = int(rng.binomial(n, prior.uniform_fraction)) if prior.uniform_fraction else 0
    n_informed = n - n_uniform
    parts = []
    if n_informed > 0:
        if prior.vae is not None and prior.vae.fitted:
            rows = vae_sample(prior.vae, n_informed, rng)
            columns = decode_columns(prior.transform, rows, rng=rng)
        elif prior._top_batch is not None:
            picks = rng.integers(0, len(prior._top_batch), size=n_informed)
            top = prior._top_batch.take(picks)
            columns = {name: top.values(name) for name in top.space.parameter_names}
        else:
            columns = sample_columns(IndependentPrior(prior._shared_space), n_informed, rng)
        for name, new_prior in prior._new_priors.items():
            columns[name] = sample_array(new_prior, n_informed, rng)
        for p in prior.space:
            if _numeric(p):
                columns[p.name] = np.clip(columns[p.name], p.low, p.high)
        parts.append(columns)
    if n_uniform > 0:
        parts.append(sample_columns(prior._uninformative, n_uniform, rng))
    return _concat_shuffle(prior.space, parts, rng.permutation(n))


def sample_columns(prior: JointPrior, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """A joint prior's draw as value columns."""
    if type(prior) is IndependentPrior:
        return {p.name: sample_array(prior.prior_for(p.name), n, rng) for p in prior.space}
    if isinstance(prior, MixturePrior):
        counts = rng.multinomial(n, prior.weights)
        parts = [
            sample_columns(component, int(count), rng)
            for component, count in zip(prior.components, counts)
            if count > 0
        ]
        return _concat_shuffle(prior.space, parts, rng.permutation(n))
    if isinstance(prior, TransferLearningPrior):
        return _transfer_columns(prior, n, rng)
    return ValueColumnBatch.from_configurations(
        prior.space, prior.sample_configurations(n, rng)
    ).columns


def _sample_batch(opt, n: int) -> ValueColumnBatch:
    batch = ValueColumnBatch(opt.space, sample_columns(opt.prior, n, opt.rng))
    batch.n = n
    return batch


# ----------------------------------------------------------------------- ask
@dataclass
class ValuePreparedAsk:
    """The value-sheet counterpart of :class:`~repro.core.optimizer.PreparedAsk`."""

    n: int
    proposals: Optional[List[Configuration]] = None
    fresh: Optional[ValueColumnBatch] = None
    fresh_configs: Optional[List[Configuration]] = None
    keys: Optional[List[bytes]] = None
    encoded: Optional[np.ndarray] = None
    unit: Optional[np.ndarray] = None


def _keys(opt, batch: ValueColumnBatch) -> List[bytes]:
    return [row.tobytes() for row in key_array(opt.space, batch)]


def sample_unique(opt, n: int) -> List[Configuration]:
    import math

    if math.isfinite(opt.space.cardinality) and len(opt._evaluated_keys) >= opt.space.cardinality:
        return _sample_batch(opt, n).to_configurations()
    proposals: List[Configuration] = []
    attempts = 0
    while len(proposals) < n and attempts < 20:
        batch = _sample_batch(opt, max(n, 8))
        for config, key in zip(batch.to_configurations(), _keys(opt, batch)):
            if len(proposals) >= n:
                break
            if key not in opt._evaluated_keys:
                proposals.append(config)
        attempts += 1
    while len(proposals) < n:
        proposals.extend(_sample_batch(opt, n - len(proposals)).to_configurations())
    return proposals[:n]


def prepare_ask(opt, n: int) -> ValuePreparedAsk:
    """``opt.prepare_ask(n)`` over value sheets; ``keys`` are the candidates'."""
    use_model = (
        not opt.random_sampling
        and opt.surrogate.fitted
        and opt.num_observations >= opt.n_initial_points
    )
    if not use_model:
        return ValuePreparedAsk(n=n, proposals=sample_unique(opt, n))
    candidates = _sample_batch(opt, opt.num_candidates)
    keys = _keys(opt, candidates)
    fresh_idx = np.fromiter(
        (i for i, key in enumerate(keys) if key not in opt._evaluated_keys), dtype=np.intp
    )
    fresh_configs = None
    if fresh_idx.shape[0] < n:
        fresh_configs = candidates.take(fresh_idx).to_configurations()
        fresh_configs.extend(sample_unique(opt, n - len(fresh_configs)))
        fresh = ValueColumnBatch.from_configurations(opt.space, fresh_configs)
    else:
        fresh = candidates.take(fresh_idx)
    return ValuePreparedAsk(
        n=n,
        fresh=fresh,
        fresh_configs=fresh_configs,
        keys=keys,
        encoded=_encode(opt, fresh),
        unit=to_unit_array(opt.space, fresh),
    )


def _kernel_penalty(liar, n, scores, unit) -> List[int]:
    span = float(np.max(scores) - np.min(scores)) if scores.size > 1 else 1.0
    span = max(span, 1e-9)
    length2 = (liar.penalty_length_scale**2) * unit.shape[1]
    selected: List[int] = []
    available = np.ones(scores.shape[0], dtype=bool)
    working = scores.copy()
    for _ in range(n):
        pick = int(np.argmax(np.where(available, working, -np.inf)))
        selected.append(pick)
        available[pick] = False
        d2 = np.sum((unit - unit[pick]) ** 2, axis=1)
        working = working - span * np.exp(-0.5 * d2 / length2)
    return selected


def finish_ask(opt, prepared: ValuePreparedAsk) -> List[Configuration]:
    """``opt.finish_ask(prepared, None, None)`` for a kernel-penalty optimizer."""
    if prepared.proposals is not None:
        return prepared.proposals
    assert opt.liar.strategy == "kernel_penalty"
    mean, std = opt.surrogate.predict(prepared.encoded)
    n = min(prepared.n, prepared.encoded.shape[0])
    indices = _kernel_penalty(opt.liar, n, opt.acquisition(mean, std), prepared.unit)
    if prepared.fresh_configs is not None:
        return [prepared.fresh_configs[i] for i in indices]
    return prepared.fresh.take(indices).to_configurations()
