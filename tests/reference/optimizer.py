"""An optimizer that re-encodes its whole history on every fit.

:class:`~repro.core.optimizer.BayesianOptimizer` keeps its encoded history
in append-only buffers, so no interaction re-encodes it.  Because the column
codecs are elementwise, re-encoding the told configurations must give the
same bits; :class:`ReencodingOptimizer` keeps them as dicts and does exactly
that, and the cache identity tests compare proposals and whole searches
against it.
"""

import numpy as np

from repro.core.optimizer import BayesianOptimizer
from repro.core.space import ColumnBatch

__all__ = ["ReencodingOptimizer", "install_reencoding"]


class ReencodingOptimizer(BayesianOptimizer):
    """A :class:`BayesianOptimizer` whose training data is re-encoded per fit."""

    def _told(self):
        # install_reencoding swaps the class of a constructed optimizer, so
        # the record is created on first use rather than in __init__.
        if "_told_rows" not in vars(self):
            self._told_rows = ([], [])
        return self._told_rows

    def ingest(self, configurations, objectives):
        batch = (
            configurations
            if isinstance(configurations, ColumnBatch)
            else ColumnBatch.from_configurations(self.space, configurations)
        )
        configs, filled = self._told()
        configs.extend(batch.to_configurations())
        filled.extend(self.objective.fill_failure(obj) for obj in objectives)
        return super().ingest(batch, objectives)

    def _train_data(self):
        configs, filled = self._told()
        return self._encode(configs), np.asarray(filled, dtype=float)


def install_reencoding(search):
    """Make ``search``'s optimizer re-encode its history on every fit."""
    search.optimizer.__class__ = ReencodingOptimizer
    return search
