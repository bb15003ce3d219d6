"""Reference implementations the equivalence and identity tests compare against.

The library replaced each of these with a faster path that must give the
same results (bit for bit, or within a stated tolerance).  They live here,
not in ``src/``, because only tests run them:

* :mod:`reference.random_forest` — the depth-first regression tree, a
  recursive forest fit, and the level-wise builder as it was before rank
  keys (one float ``lexsort`` per candidate-feature slot);
* :mod:`reference.history` — the row-major search history;
* :mod:`reference.space` — the per-element search-space codecs;
* :mod:`reference.sheet` — the value-typed candidate sheet: object
  columns, value-typed samplers and VAE decode, per-parameter sheet codecs
  and the solo ask over them, which the index sheets must match;
* :mod:`reference.gaussian_process` — the frozen-hyperparameter full GP
  refit;
* :mod:`reference.optimizer` — an optimizer that re-encodes its whole
  history on every fit;
* :mod:`reference.vae` — the per-model VAE training loop (per-array Adam,
  masked sigmoid, one loss pass per categorical block);
* :mod:`reference.search` — the sequential manager loop (``advance`` and
  ``run``) over one campaign, which ``CBOSearch.run`` (a campaign runner
  of one) must match;
* :mod:`reference.evaluator` — ``AsyncVirtualEvaluator``, the private
  virtual-clock evaluator that drops submissions beyond its idle workers,
  which a campaign on the default private ``SharedWorkerPool`` must match.

Import as ``from reference.<module> import ...`` (the ``tests`` directory is
on ``sys.path`` through pytest's conftest handling).
"""
