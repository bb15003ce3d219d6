"""Reference implementations the equivalence and identity tests compare against.

The library replaced each of these with a faster path that must give the
same results (bit for bit, or within a stated tolerance).  They live here,
not in ``src/``, because only tests run them:

* :mod:`reference.random_forest` — the depth-first regression tree and a
  recursive forest fit;
* :mod:`reference.history` — the row-major search history;
* :mod:`reference.space` — the per-element search-space codecs;
* :mod:`reference.gaussian_process` — the frozen-hyperparameter full GP
  refit;
* :mod:`reference.optimizer` — an optimizer that re-encodes its whole
  history on every fit;
* :mod:`reference.vae` — the per-model VAE training loop (per-array Adam,
  masked sigmoid, one loss pass per categorical block);
* :mod:`reference.search` — the sequential manager loop (``advance`` and
  ``run``) over one campaign, which ``CBOSearch.run`` (a campaign runner
  of one) must match.

Import as ``from reference.<module> import ...`` (the ``tests`` directory is
on ``sys.path`` through pytest's conftest handling).
"""
