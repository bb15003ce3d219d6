"""Sampling priors over parameters and configurations.

Bayesian optimization in the paper samples candidate configurations from a
*prior* distribution over the search space:

* without transfer learning, the prior is the user-defined one — uniform or
  log-uniform per parameter (Section III-B, "Typically, BO starts with
  user-defined prior distributions");
* with transfer learning, the prior is *informative*: a tabular VAE fitted on
  the top-q% configurations of a previous run (see
  :mod:`repro.core.transfer`), combined with uninformative priors for any
  parameter that did not exist in the previous space (Algorithm 1, l. 3-10).

This module provides the per-parameter priors, the independent joint prior,
and a mixture wrapper used to blend an informative prior with a fraction of
uniform exploration.

Sampling is columnar: per-parameter priors draw whole NumPy columns
(:meth:`ParameterPrior.sample_array`) and joint priors assemble column
dictionaries (:meth:`JointPrior.sample_columns`) in the form a
:class:`~repro.core.space.ColumnBatch` stores: numeric values, and domain
indices for categorical and ordinal parameters.  The optimizer's
candidate-generation hot path therefore never builds a Python value or a
per-configuration dict.  The row-major ``sample``/``sample_configurations``
methods are thin materialising wrappers that return values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.space import (
    CategoricalParameter,
    ColumnBatch,
    Configuration,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    RealParameter,
    SearchSpace,
)

__all__ = [
    "ParameterPrior",
    "UniformPrior",
    "LogUniformPrior",
    "CategoricalPrior",
    "JointPrior",
    "IndependentPrior",
    "MixturePrior",
    "default_prior",
    "sample_columns_fleet",
]


class ParameterPrior:
    """Base class: a distribution over a single parameter's values."""

    def __init__(self, parameter: Parameter):
        self.parameter = parameter

    def sample_array(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values as a NumPy column (the hot-path entry point).

        The column is in sheet form: domain indices for a categorical or
        ordinal parameter, values otherwise.
        """
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> List[Any]:
        """Draw ``n`` values as a list of Python scalars."""
        column = self.sample_array(n, rng)
        p = self.parameter
        if isinstance(p, (CategoricalParameter, OrdinalParameter)):
            column = p.values_at(column)
        return column.tolist()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.parameter.name!r})"


class UniformPrior(ParameterPrior):
    """Uniform prior over the parameter's domain (Algorithm 1, l. 6)."""

    def sample_array(self, n: int, rng: np.random.Generator) -> np.ndarray:
        p = self.parameter
        if isinstance(p, RealParameter):
            return rng.uniform(p.low, p.high, size=n)
        if isinstance(p, IntegerParameter):
            return rng.integers(p.low, p.high + 1, size=n)
        # categorical / ordinal: uniform domain indices.
        return p.sample_indices(rng, n)


class LogUniformPrior(ParameterPrior):
    """Log-uniform prior (used for batch-size-like parameters in Fig. 1)."""

    def __init__(self, parameter: Parameter):
        super().__init__(parameter)
        if not isinstance(parameter, (RealParameter, IntegerParameter)):
            raise TypeError("LogUniformPrior requires a numeric parameter")
        if parameter.low <= 0:
            raise ValueError("LogUniformPrior requires a positive lower bound")

    def sample_array(self, n: int, rng: np.random.Generator) -> np.ndarray:
        p = self.parameter
        lo, hi = np.log(p.low), np.log(p.high)
        raw = np.exp(rng.uniform(lo, hi, size=n))
        if isinstance(p, IntegerParameter):
            return np.clip(np.rint(raw), p.low, p.high).astype(int)
        return raw


class CategoricalPrior(ParameterPrior):
    """Multinoulli prior over categories (Algorithm 1, l. 8).

    Parameters
    ----------
    parameter:
        A categorical or ordinal parameter.
    probabilities:
        Per-category probabilities.  Defaults to uniform.
    """

    def __init__(
        self,
        parameter: Parameter,
        probabilities: Optional[Sequence[float]] = None,
    ):
        super().__init__(parameter)
        if isinstance(parameter, CategoricalParameter):
            values = parameter.categories
        elif isinstance(parameter, OrdinalParameter):
            values = parameter.values
        else:
            raise TypeError("CategoricalPrior requires a categorical/ordinal parameter")
        self.values = tuple(values)
        if probabilities is None:
            probabilities = [1.0 / len(self.values)] * len(self.values)
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (len(self.values),):
            raise ValueError(
                f"need {len(self.values)} probabilities, got {probabilities.shape}"
            )
        if np.any(probabilities < 0):
            raise ValueError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise ValueError("probabilities must not all be zero")
        self.probabilities = probabilities / total
        # Precomputed inverse-CDF table: drawing via rng.random + searchsorted
        # consumes the generator exactly like rng.choice(..., p=...) does
        # internally (same uniforms, same cutoffs), minus choice's per-call
        # validation overhead — this is the innermost loop of candidate
        # sampling.
        self._cdf = self.probabilities.cumsum()
        self._cdf /= self._cdf[-1]

    def sample_array(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` domain indices."""
        return self._cdf.searchsorted(rng.random(n), side="right")


class JointPrior:
    """Base class for joint distributions over whole configurations."""

    space: SearchSpace

    def sample_configurations(self, n: int, rng: np.random.Generator) -> List[Configuration]:
        """Draw ``n`` full configurations of :attr:`space` (row-major dicts)."""
        raise NotImplementedError

    def sample_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Draw ``n`` configurations as per-parameter columns.

        The columns are in :class:`~repro.core.space.ColumnBatch` form:
        numeric values, and domain indices for discrete parameters.  The
        default implementation materialises row-major configurations and
        converts them once — subclasses override it with a direct columnar
        path so candidate generation stays free of per-row Python objects.
        """
        configs = self.sample_configurations(n, rng)
        return ColumnBatch.from_configurations(self.space, configs).columns


class IndependentPrior(JointPrior):
    """A joint prior that samples each parameter independently.

    Parameters
    ----------
    space:
        The search space the prior covers.
    priors:
        Optional mapping from parameter name to :class:`ParameterPrior`.
        Parameters without an entry use their default prior
        (:func:`default_prior`).
    """

    def __init__(
        self,
        space: SearchSpace,
        priors: Optional[Mapping[str, ParameterPrior]] = None,
    ):
        self.space = space
        self._priors: Dict[str, ParameterPrior] = {}
        priors = dict(priors or {})
        for p in space:
            prior = priors.pop(p.name, None)
            self._priors[p.name] = prior if prior is not None else default_prior(p)
        if priors:
            raise ValueError(f"priors given for unknown parameters: {sorted(priors)}")

    def prior_for(self, name: str) -> ParameterPrior:
        """The per-parameter prior for ``name``."""
        return self._priors[name]

    def sample_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        if n <= 0:
            return {name: prior.sample_array(0, rng) for name, prior in self._priors.items()}
        return {name: prior.sample_array(n, rng) for name, prior in self._priors.items()}

    def sample_configurations(self, n: int, rng: np.random.Generator) -> List[Configuration]:
        if n <= 0:
            return []
        return ColumnBatch(self.space, self.sample_columns(n, rng)).to_configurations()


class MixturePrior(JointPrior):
    """A mixture of joint priors, sampled with fixed weights.

    Used to blend an informative (VAE) prior with a small fraction of uniform
    exploration so that the biased search retains non-zero support over the
    whole space.
    """

    def __init__(self, components: Sequence[JointPrior], weights: Sequence[float]):
        if len(components) != len(weights) or not components:
            raise ValueError("components and weights must be non-empty and equal length")
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        self.components = list(components)
        self.weights = weights / weights.sum()
        self.space = components[0].space

    def sample_columns(self, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        if n <= 0:
            return _empty_columns(self.space)
        counts = rng.multinomial(n, self.weights)
        parts: List[Dict[str, np.ndarray]] = []
        for component, count in zip(self.components, counts):
            if count > 0:
                parts.append(component.sample_columns(int(count), rng))
        permutation = rng.permutation(n)
        return _concat_shuffle_columns(self.space, parts, permutation)

    def sample_configurations(self, n: int, rng: np.random.Generator) -> List[Configuration]:
        if n <= 0:
            return []
        return ColumnBatch(self.space, self.sample_columns(n, rng)).to_configurations()


def _concat_shuffle_columns(
    space: SearchSpace,
    parts: Sequence[Mapping[str, np.ndarray]],
    permutation: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Concatenate column dictionaries and apply one shared row permutation."""
    out: Dict[str, np.ndarray] = {}
    for p in space:
        pieces = [np.asarray(part[p.name]) for part in parts]
        column = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        out[p.name] = column[permutation]
    return out


def _empty_columns(space: SearchSpace) -> Dict[str, np.ndarray]:
    """Zero-row columns of ``space`` in sheet form (indices if discrete)."""
    numeric = (RealParameter, IntegerParameter)
    return {
        p.name: np.empty(0, dtype=float if isinstance(p, numeric) else np.intp)
        for p in space
    }


def sample_columns_fleet(
    priors: Sequence[JointPrior],
    counts: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> List[Dict[str, np.ndarray]]:
    """Draw each member's candidate columns for one stacked fleet sheet.

    ``priors[k]``, ``counts[k]`` and ``rngs[k]`` describe fleet member ``k``:
    its joint prior, how many candidates it wants, and its own generator.
    All members must cover equal search spaces (same parameters in the same
    order); the caller is expected to have grouped them that way.

    Per member the returned columns are **bitwise identical** to
    ``priors[k].sample_columns(counts[k], rngs[k])``.  Members whose prior is
    exactly :class:`IndependentPrior` are assembled parameter-major — one
    pass per parameter across the fleet — which keeps each member's draw
    order (p1, p2, ... in space order) unchanged; only the interleaving
    *between* members differs, and members own independent generators, so
    nothing observable moves.  Members with any other joint prior (mixtures,
    transfer-learning priors) fall back to one member-major
    ``sample_columns`` call each, which is trivially identical.
    """
    if not (len(priors) == len(counts) == len(rngs)):
        raise ValueError("priors, counts and rngs must have equal lengths")
    independent = [type(prior) is IndependentPrior for prior in priors]
    results: List[Dict[str, np.ndarray]] = []
    for k, prior in enumerate(priors):
        if independent[k]:
            results.append({})
        else:
            results.append(prior.sample_columns(counts[k], rngs[k]))
    if any(independent):
        first = priors[independent.index(True)]
        for p in first.space:
            name = p.name
            for k, prior in enumerate(priors):
                if independent[k]:
                    n = counts[k] if counts[k] > 0 else 0
                    results[k][name] = prior.prior_for(name).sample_array(n, rngs[k])
    return results


def default_prior(parameter: Parameter) -> ParameterPrior:
    """The user-defined (uninformative) prior for a parameter.

    Log-uniform for numeric parameters declared ``log=True``, uniform
    otherwise, multinoulli-uniform for categorical/ordinal parameters.
    """
    if isinstance(parameter, (RealParameter, IntegerParameter)):
        if parameter.log:
            return LogUniformPrior(parameter)
        return UniformPrior(parameter)
    if isinstance(parameter, (CategoricalParameter, OrdinalParameter)):
        return CategoricalPrior(parameter)
    return UniformPrior(parameter)
