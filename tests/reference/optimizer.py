"""An optimizer that re-encodes its whole history on every fit.

:class:`~repro.core.optimizer.BayesianOptimizer` keeps its encoded history
in append-only buffers, so no interaction re-encodes it.  Because the column
codecs are elementwise, re-encoding the stored configurations must give the
same bits; :class:`ReencodingOptimizer` does exactly that, and the cache
identity tests compare proposals and whole searches against it.
"""

import numpy as np

from repro.core.optimizer import BayesianOptimizer

__all__ = ["ReencodingOptimizer", "install_reencoding"]


class ReencodingOptimizer(BayesianOptimizer):
    """A :class:`BayesianOptimizer` whose training data is re-encoded per fit."""

    def _train_data(self):
        X = self._encode(self._configs)
        y = np.asarray(self._objectives, dtype=float)
        return X, y


def install_reencoding(search):
    """Make ``search``'s optimizer re-encode its history on every fit."""
    search.optimizer.__class__ = ReencodingOptimizer
    return search
