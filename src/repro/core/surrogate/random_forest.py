"""Random-forest surrogate (the paper's default DeepHyper model).

A from-scratch implementation on NumPy: :class:`RandomForestSurrogate` is a
bagged ensemble of CART-style regression trees (variance-reduction splits,
random feature subsampling per node).  The predictive mean is the average
of the per-tree predictions and the predictive standard deviation is their
spread (the classic forest uncertainty estimate used by sampling-based BO).

The implementation favours fast re-fitting: the asynchronous search refits the
surrogate every time a batch of evaluations completes, and the paper's Fig. 4
relies on the RF update being cheap compared with the GP's :math:`O(n^3)`.
The forest fit is therefore *level-wise*: all nodes of all trees at one depth
are split together with segmented NumPy operations, instead of one Python
call stack per node.  Feature values enter the split search as per-column
integer ranks, so each level sorts ``int64`` keys (one stable ``argsort``
per candidate-feature slot, on one sort path) and scores its slots together
in chunks whose size is bounded by the frontier width.  A level records only
its node values and its splits; the builder lays every forest out once, as
the flat node tables (:class:`_ForestTables`) its traversal walks.  The
forests are statistically equivalent to those of the depth-first recursive
builder kept in ``tests/reference/random_forest.py`` (same split criterion,
same guards, same hyperparameters; only the order of the RNG draws differs).

Prediction walks those tables for every (tree, row) pair at once.  A leaf is
its own child, so a level is three gathers and one compare with no mask, and
the walk stops at the depth of the deepest tree.

:meth:`RandomForestSurrogate.fit` and :meth:`~RandomForestSurrogate.predict`
are fleets of one: :func:`fit_forest_fleet` and :func:`predict_forest_fleet`
are the only builder and traversal.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.surrogate.base import Surrogate

__all__ = [
    "RandomForestSurrogate",
    "fit_forest_fleet",
    "predict_forest_fleet",
]


#: Minimum spread of y below which a node is treated as constant (a leaf).
_MIN_SPREAD = 1e-12


#: Upper bound on the elements (slots × frontier samples) of one chunk of
#: the split search: a level scores ``max(1, _CHUNK_ELEMENTS // N)`` of its
#: candidate-feature slots at once, so a small frontier scores all of them
#: in one pass while no chunk array outgrows ``max(N, _CHUNK_ELEMENTS)``
#: elements.
_CHUNK_ELEMENTS = 1 << 15


class _ForestTables(NamedTuple):
    """A fitted forest: the flat node tables its traversal walks.

    The trees' nodes lie tree after tree, each tree breadth-first from its
    root at ``roots[t]``, so a tree's nodes are one slice of every table and
    a node's position minus its root is its breadth-first id.  An internal
    node sends a row whose ``feature`` value is ``<= threshold`` to ``left``
    and every other row, NaN included, to ``right`` (positions in these
    tables).  A leaf has ``feature == -1`` and ``threshold == 0.0`` and is
    its own left and right child, so a walk that reaches it stays there.
    ``depth[t]`` is the number of splits on tree ``t``'s longest path, and
    ``width`` the number of features the forest was fitted on.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: np.ndarray
    width: int


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of the rows of ``X`` (``int64``, ``X``'s shape).

    Equal values share a rank and unequal values keep their order, so on
    finite data (``Surrogate._validate`` rejects the rest) comparing ranks is
    comparing values — ``-0.0`` and ``0.0`` included, which compare equal
    either way.
    """
    n, d = X.shape
    # at[i, j]: flat position of column j's i-th smallest value.
    at = X.argsort(axis=0, kind="stable")
    at *= d
    at += np.arange(d)
    ordered = X.take(at)
    steps = np.zeros((n, d), dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=steps[1:])
    steps.cumsum(axis=0, out=steps)
    ranks = np.empty((n, d), dtype=np.int64)
    ranks.put(at, steps)
    return ranks


def _build_forest_fleet(
    Xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    bootstrap_rows_per_job: Sequence[Sequence[np.ndarray]],
    rngs: Sequence[np.random.Generator],
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    n_split_features: int,
) -> List[_ForestTables]:
    """Fit the forests of several independent *jobs* in one level-wise pass.

    Each job is one ``(X, y, bootstrap_rows, rng)`` quadruple — one forest
    over one training set, e.g. one campaign's surrogate in a multi-campaign
    batch — and gets back its forest's :class:`_ForestTables`.  The frontier
    holds every open node of every tree of every job; each node's samples
    are stored contiguously in one concatenated sample array.  Per level, one
    segmented sort + cumulative-sum pass scores every possible split of every
    node for its candidate-feature slots, so the per-node call overhead of a
    recursive builder collapses into a few array passes per level, paid once
    for the whole fleet.

    **Rank keys.**  Once per fit, every feature column of the stacked
    training rows is replaced by its dense ranks (:func:`_dense_ranks`).  A
    slot's sort is then one stable ``argsort`` of the ``int64`` keys
    ``node * rows + rank``: the permutation a stable sort by (node, value)
    gives, without a float ``lexsort``.  Neighbours tie exactly when their
    keys are equal.  The child partition is the same kind of sort, of
    ``2 * (split rank + 1) + goes right``, and one ``bincount`` of that key
    sizes the children.

    **The slot pass.**  A level's ``k`` slots are scored together as
    ``(c, N)`` arrays — gathers, sorts, running sums, SSE scores and each
    node's first minimum (one ``np.minimum.reduceat`` over masked
    positions) — in chunks of ``c = max(1, _CHUNK_ELEMENTS // N)`` slots, so
    a small frontier pays each array call once per level while no chunk
    array outgrows ``max(N, _CHUNK_ELEMENTS)`` elements.

    **Records.**  A level records its frontier's trees and node values and,
    for the nodes it tried to split, their chosen feature (``-1``: none) and
    threshold; nothing else.  Every node past the roots is a child, allotted
    two by two in the order the split nodes were recorded, so the freeze
    derives the child pointers, lays the nodes out tree after tree and fills
    the leaf defaults once for the whole fleet.

    Every forest is **bit-identical** to fitting its job alone, and to the
    float-``lexsort`` builder kept in ``tests/reference/random_forest.py``:
    every cross-segment operation is exact per element (gathers, compares,
    integer sorts) or segment-local (``reduceat``), random feature subsets
    are drawn from each job's own generator over exactly its own frontier
    block, and the running sums are cumulated per job block in sorted order
    (each slot's row on its own) with job-aware base subtraction, so no
    floating-point state leaks across jobs or slots.

    The split semantics are those of a depth-first CART builder:
    variance-reduction (SSE) scores over a random feature subset,
    splits only between distinct consecutive sorted values with at least
    ``min_samples_leaf`` samples per side, midpoint thresholds, and the same
    degenerate-tie guard (a feature whose threshold would swallow tied values
    into an unbalanced child is rejected without resetting the running best
    score).  Only the *order* of RNG draws differs from a recursive builder
    (breadth-first instead of depth-first, feature subsets via batched
    permutations), so individual trees are not bit-identical to recursively
    built ones, but follow the same distribution (the test suite checks both
    against a depth-first reference tree).
    """
    num_jobs = len(Xs)
    if not (len(ys) == len(bootstrap_rows_per_job) == len(rngs) == num_jobs):
        raise ValueError("fleet jobs must have equal-length X/y/bootstrap/rng lists")
    d = Xs[0].shape[1]
    if any(X.shape[1] != d for X in Xs):
        raise ValueError("fleet jobs must share one feature dimensionality")
    k = n_split_features
    min_leaf = min_samples_leaf

    # Concatenate the per-job training sets; samples index into X_all.
    row_off = np.zeros(num_jobs, dtype=np.intp)
    if num_jobs > 1:
        np.cumsum(np.asarray([X.shape[0] for X in Xs[:-1]], dtype=np.intp), out=row_off[1:])
    X_all = np.vstack(Xs) if num_jobs > 1 else Xs[0]
    y_all = np.concatenate(ys) if num_jobs > 1 else ys[0]
    num_rows = X_all.shape[0]
    X_flat = np.ascontiguousarray(X_all).ravel()
    rank_flat = _dense_ranks(X_all).ravel()

    # ---------------------------------------------------------- frontier init
    # Trees (and therefore the frontier) are laid out job-major; every level
    # below preserves that grouping, so each job occupies one contiguous block
    # of nodes and samples.  ``job_trees[j]`` is job j's first tree.
    rows_parts: List[np.ndarray] = []
    job_trees = [0]
    for j, boots in enumerate(bootstrap_rows_per_job):
        rows_parts.extend((r + row_off[j] for r in boots) if j else boots)
        job_trees.append(job_trees[-1] + len(boots))
    num_trees = job_trees[-1]
    sizes = np.asarray([r.shape[0] for r in rows_parts], dtype=np.intp)
    rows = np.concatenate(rows_parts)
    yv = y_all.take(rows)
    rowd = rows * d  # each sample's row offset into X_flat and rank_flat
    tree = np.arange(num_trees, dtype=np.intp)  # each frontier node's tree
    job_trees_arr = np.asarray(job_trees, dtype=np.intp)

    # Records, numbered in emission order (level by level, frontier order):
    # each level's trees and node values, and for the nodes it tried to split
    # their record numbers, features (-1: no split) and thresholds.
    level_tree: List[np.ndarray] = []
    level_value: List[np.ndarray] = []
    tried_at: List[np.ndarray] = []
    tried_feature: List[np.ndarray] = []
    tried_threshold: List[np.ndarray] = []
    emitted = 0
    depth = 0
    while True:
        m = sizes.size
        bounds = np.zeros(m + 1, dtype=np.intp)
        sizes.cumsum(out=bounds[1:])
        starts = bounds[:-1]
        level_tree.append(tree)
        level_value.append(np.add.reduceat(yv, starts) / sizes)
        if depth >= max_depth:
            break
        spread = np.maximum.reduceat(yv, starts) - np.minimum.reduceat(yv, starts)
        splittable = (sizes >= min_samples_split) & (spread >= _MIN_SPREAD)
        m2 = int(np.count_nonzero(splittable))
        if m2 == 0:
            break
        if m2 < m:
            # Compact the frontier to the splittable nodes.
            keep = splittable.repeat(sizes)
            rowd, yv = rowd[keep], yv[keep]
            sizes, tree = sizes[splittable], tree[splittable]
            bounds = np.zeros(m2 + 1, dtype=np.intp)
            sizes.cumsum(out=bounds[1:])
            starts = bounds[:-1]
            tried_at.append(splittable.nonzero()[0] + emitted)
        else:
            tried_at.append(np.arange(emitted, emitted + m))
        emitted += m
        n = rowd.size
        seg = np.arange(m2, dtype=np.intp).repeat(sizes)
        last = bounds[1:] - 1

        # Job blocks on the node axis and the sample axis.  A job whose
        # frontier is exhausted simply has an empty block (and, exactly like
        # a solo fit that broke out of its loop, draws no randomness).
        node_bounds = tree.searchsorted(job_trees_arr).tolist()
        sample_bounds = bounds.take(node_bounds).tolist()
        blocks = [
            (j, lo, hi, sample_bounds[j], sample_bounds[j + 1])
            for j, (lo, hi) in enumerate(zip(node_bounds, node_bounds[1:]))
            if hi > lo
        ]
        # The first node of each job block has no running sum before it.
        first_nodes = [lo for _, lo, _, _, _ in blocks]

        # Random feature subset per node: batched uniform k-subsets, drawn
        # from each job's own generator over its own frontier block so every
        # job consumes its RNG exactly as it would alone; the (row-local)
        # rank selection runs fused over the stacked draws.
        draws = [rngs[j].random((hi - lo, d)) for j, lo, hi, _, _ in blocks]
        perm = (draws[0] if len(draws) == 1 else np.vstack(draws)).argsort(axis=1)
        F = perm[:, :k]

        # Per-sample split-position bookkeeping, shared by all feature slots:
        # counts[0] holds n_left and counts[1] max(n_right, 1) per position.
        positions = np.arange(n, dtype=np.intp)
        counts = np.empty((2, 1, n))
        counts_left = counts[0, 0]
        np.subtract(np.arange(1.0, n + 1.0), starts.astype(float).take(seg), out=counts_left)
        counts_right = sizes.take(seg) - counts_left
        np.maximum(counts_right, 1.0, out=counts[1, 0])
        # Also true at each node's last position (nothing to its right).
        count_bad = np.minimum(counts_left, counts_right) < min_leaf
        seg_key = seg * num_rows
        prev = starts - 1  # -1 wraps, but a block's first node takes no base

        # Score the slots in chunks of ``width``; row s of every (c, n)
        # array is slot s0 + s.  Sorted position p of slot s holds sample
        # order[s, p].
        scores = np.empty((k, m2))
        thrs = np.empty((k, m2))
        vnexts = np.empty((k, m2))
        width = max(1, min(k, _CHUNK_ELEMENTS // n))
        for s0 in range(0, k, width):
            feats = F[:, s0 : s0 + width].T
            c = feats.shape[0]
            flat = feats.take(seg, axis=1)
            flat += rowd
            keys = rank_flat.take(flat)
            keys += seg_key
            vals = X_flat.take(flat)
            order = keys.argsort(axis=1, kind="stable")
            offsets = np.arange(0, c * n, n)[:, None]
            # flat[s, p]: position in keys and vals of the sample sorted to p.
            np.add(order, offsets, out=flat)
            sorted_keys = keys.take(flat)
            bad = np.empty((c, n), dtype=bool)
            np.equal(sorted_keys[:, 1:], sorted_keys[:, :-1], out=bad[:, :-1])
            bad[:, -1] = True
            bad |= count_bad
            # Free the key arrays before the running sums: at the widest
            # frontiers these temporaries set the fit's peak memory.
            del keys, sorted_keys
            # Running sums of y and y² (sums[0]), cumulated per job block;
            # each row accumulates on its own, so every slot's sums are
            # bit-identical to a 1-D cumsum of that slot alone.  sums[1]
            # holds the sums right of each position.
            sums = np.empty((2, 2, c, n))
            running = sums[0].reshape(2 * c, n)
            yv.take(order, out=sums[0, 0])
            np.multiply(sums[0, 0], sums[0, 0], out=sums[0, 1])
            for _, _, _, lo, hi in blocks:
                block = running[:, lo:hi]
                block.cumsum(axis=1, out=block)
            base = running.take(prev, axis=1)
            for lo in first_nodes:
                base[:, lo] = 0.0
            totals = running.take(last, axis=1)
            totals -= base
            running -= base.take(seg, axis=1)
            np.subtract(totals.take(seg, axis=1), running, out=sums[1].reshape(2 * c, n))
            # score = (Σy²_l - (Σy_l)²/n_l) + (Σy²_r - (Σy_r)²/n_r), both
            # sides at once.
            sse = np.square(sums[:, 0])
            sse /= counts
            np.subtract(sums[:, 1], sse, out=sse)
            score = sse[0]
            score += sse[1]
            np.putmask(score, bad, np.inf)
            # Per-node minimum and its first (lowest-position) occurrence;
            # positions off the minimum read n - 1, which never undercuts a
            # node's own first minimum.  A node's last position scores inf,
            # so its first minimum has a successor inside the node.
            minval = scores[s0 : s0 + c]
            np.minimum.reduceat(score, starts, axis=1, out=minval)
            at_min = score == minval.take(seg, axis=1)
            best = np.minimum.reduceat(np.where(at_min, positions, n - 1), starts, axis=1)
            best += offsets
            v_best = vals.take(flat.take(best))
            best += 1
            v_next = vals.take(flat.take(best))
            np.add(v_best, v_next, out=thrs[s0 : s0 + c])
            thrs[s0 : s0 + c] *= 0.5
            vnexts[s0 : s0 + c] = v_next

        # Fast path: the globally best feature slot per node is accepted when
        # its threshold provably separates the chosen position (no tie
        # swallow-up), which mirrors the sequential selection outcome.
        node_idx = np.arange(m2, dtype=np.intp)
        jstar = scores.argmin(axis=0)
        pick = jstar * m2
        pick += node_idx
        tstar = thrs.take(pick)
        has_split = np.isfinite(scores.take(pick))
        quick = tstar < vnexts.take(pick)
        quick &= has_split
        node_idx *= d
        node_idx += jstar
        chosen_feature = np.where(quick, perm.take(node_idx), -1)
        chosen_thr = np.where(quick, tstar, 0.0)
        # Slow path (rare float-adjacency ties): replicate the reference
        # builder's sequential scan, including its running-best-score quirk.
        for i in (has_split > quick).nonzero()[0]:
            best_score = np.inf
            lo, hi = bounds[i], bounds[i + 1]
            for j in range(k):
                s_ij = scores[j, i]
                if not (s_ij < best_score):
                    continue
                best_score = s_ij
                t_ij = thrs[j, i]
                cnt = int(np.count_nonzero(X_flat.take(rowd[lo:hi] + F[i, j]) <= t_ij))
                if min_leaf <= cnt <= hi - lo - min_leaf:
                    chosen_feature[i] = F[i, j]
                    chosen_thr[i] = t_ij
        tried_feature.append(chosen_feature)
        tried_threshold.append(chosen_thr)

        split = chosen_feature >= 0
        q = int(np.count_nonzero(split))
        if q == 0:
            break

        # Partition the samples of every split node into its two children
        # with one stable integer sort of 2 * (split rank + 1) + goes right
        # (left block first, order preserved).  The samples of unsplit nodes
        # key 0 or 1, sort first and are dropped.
        child = split.cumsum()
        child *= split
        child += child
        child = child.take(seg)
        at = chosen_feature.take(seg)
        at += rowd
        child += X_flat.take(at) > chosen_thr.take(seg)
        order = child.argsort(kind="stable")
        sizes = np.bincount(child, minlength=2 * q + 2)
        order = order[sizes[0] + sizes[1] :]
        rowd, yv = rowd.take(order), yv.take(order)
        sizes = sizes[2:]
        tree = tree[split].repeat(2)
        depth += 1

    # -------------------------------------------------------------- freeze
    # A tree's records come in breadth-first order, so a stable grouping by
    # tree lays every tree out from its root; ``position`` is each record's
    # place in that layout.
    tree_of = np.concatenate(level_tree)
    total = tree_of.size
    layout = tree_of.argsort(kind="stable")
    position = np.empty(total, dtype=np.intp)
    position[layout] = np.arange(total, dtype=np.intp)
    feature_rec = np.full(total, -1, dtype=np.intp)
    threshold_rec = np.zeros(total)
    if tried_at:
        at = np.concatenate(tried_at)
        feature_rec[at] = np.concatenate(tried_feature)
        threshold_rec[at] = np.concatenate(tried_threshold)
    # The i-th split record's children are records num_trees + 2i and
    # num_trees + 2i + 1; every other node is a leaf and its own child.
    split_at = position.take((feature_rec >= 0).nonzero()[0])
    left_at = position.take(np.arange(num_trees, total, 2, dtype=np.intp))
    left = np.arange(total, dtype=np.intp)
    left[split_at] = left_at
    right = np.arange(total, dtype=np.intp)
    right[split_at] = left_at + 1
    feature = feature_rec.take(layout)
    threshold = threshold_rec.take(layout)
    value = np.concatenate(level_value).take(layout)
    # A tree's last node lies on its deepest level.
    roots = position[:num_trees]
    tree_end = np.append(roots[1:], total)
    level_of = np.arange(len(level_tree), dtype=np.intp).repeat([t.size for t in level_tree])
    tree_depth = level_of.take(layout.take(tree_end - 1))

    forests: List[_ForestTables] = []
    for j in range(num_jobs):
        lo = int(roots[job_trees[j]])
        hi = int(tree_end[job_trees[j + 1] - 1])
        forests.append(
            _ForestTables(
                feature=feature[lo:hi],
                threshold=threshold[lo:hi],
                left=left[lo:hi] - lo,
                right=right[lo:hi] - lo,
                value=value[lo:hi],
                roots=roots[job_trees[j] : job_trees[j + 1]] - lo,
                depth=tree_depth[job_trees[j] : job_trees[j + 1]],
                width=d,
            )
        )
    return forests


class RandomForestSurrogate(Surrogate):
    """Bagged ensemble of level-wise regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed to each tree.
    max_features:
        Features considered per split: ``None`` (all of them), ``"sqrt"``
        (⌈√d⌉) or an ``int`` ≥ 1 (capped at ``d``).
    bootstrap:
        Whether each tree trains on a bootstrap resample.
    seed:
        Seed of the forest's random generator (feature subsampling and
        bootstrap resampling).
    """

    def __init__(
        self,
        n_estimators: int = 12,
        max_depth: int = 18,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[object] = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid minimum sample constraints")
        if not (
            max_features is None
            or (isinstance(max_features, str) and max_features == "sqrt")
            or (
                isinstance(max_features, (int, np.integer))
                and not isinstance(max_features, bool)
                and max_features >= 1
            )
        ):
            raise ValueError(
                f"max_features must be None, 'sqrt' or an int >= 1, got {max_features!r}"
            )
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._tables: Optional[_ForestTables] = None
        self.fitted = False

    def _n_split_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(math.ceil(math.sqrt(d))))
        return max(1, min(d, int(self.max_features)))

    def _bootstrap_rows(self, n: int) -> List[np.ndarray]:
        if self.bootstrap and n > 1:
            # One (trees, n) draw consumes the generator exactly like one
            # size-n draw per tree (row-major fill), at one call.
            return list(self._rng.integers(0, n, size=(self.n_estimators, n)))
        return [np.arange(n) for _ in range(self.n_estimators)]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestSurrogate":
        """Fit the forest: a fleet of one (see :func:`fit_forest_fleet`)."""
        fit_forest_fleet([(self, X, y)])
        return self

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and spread: a fleet of one (see
        :func:`predict_forest_fleet`)."""
        return predict_forest_fleet([(self, X)])[0]


# --------------------------------------------------------------------- fleet
def fleet_compatibility_key(model: RandomForestSurrogate, num_features: int) -> Tuple:
    """The hyperparameters a fleet fit requires its members to share.

    Used both by :func:`fit_forest_fleet` (to reject mixed fleets) and by
    batch drivers grouping surrogates into compatible fleets — one
    definition, so the two can never drift apart.
    """
    return (
        num_features,
        model.max_depth,
        model.min_samples_split,
        model.min_samples_leaf,
        model._n_split_features(num_features),
    )


def fit_forest_fleet(
    fits: Sequence[Tuple[RandomForestSurrogate, np.ndarray, np.ndarray]],
) -> None:
    """Fit several independent random forests in one level-wise joint pass.

    ``fits`` is a sequence of ``(forest, X, y)`` triples — typically the RF
    surrogates of several concurrent campaigns, each with its own training
    set.  Every forest ends up **bit-identical** to ``forest.fit(X, y)`` run
    on its own (same bootstrap draws, same feature subsets, same node arrays;
    see :func:`_build_forest_fleet`), but the per-level NumPy pass overhead —
    the dominant cost of small refits — is paid once for the fleet instead of
    once per forest.

    All forests must share the same split
    hyperparameters (``max_depth``, ``min_samples_split``,
    ``min_samples_leaf`` and the resolved number of split features) and train
    on the same feature dimensionality; forests may differ in
    ``n_estimators`` and training-set size.  A fit that raises leaves every
    forest as it found it, RNG stream included, so a solo retry is
    bit-identical to a solo fit.
    """
    if not fits:
        return
    models = [model for model, _, _ in fits]
    if len({id(model) for model in models}) != len(models):
        raise ValueError("each forest may appear only once per fleet fit")
    states = [model._rng.bit_generator.state for model in models]
    try:
        forests = _fit_forests(fits)
    except BaseException:
        for model, state in zip(models, states):
            model._rng.bit_generator.state = state
        raise
    for model, tables in zip(models, forests):
        model._tables = tables
        model.fitted = True


def _fit_forests(
    fits: Sequence[Tuple[RandomForestSurrogate, np.ndarray, np.ndarray]],
) -> List[_ForestTables]:
    """Validate a fleet fit and grow its forests (models stay untouched)."""
    Xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    rngs: List[np.random.Generator] = []
    shared = None
    for model, X, y in fits:
        X, y = model._validate(X, y)
        key = fleet_compatibility_key(model, X.shape[1])
        if shared is None:
            shared = key
        elif key != shared:
            raise ValueError(
                f"incompatible fleet member: {key} != {shared} "
                "(group forests by split hyperparameters and dimensionality)"
            )
        Xs.append(X)
        ys.append(y)
        rngs.append(model._rng)
    boots = [model._bootstrap_rows(X.shape[0]) for (model, _, _), X in zip(fits, Xs)]
    return _build_forest_fleet(
        Xs,
        ys,
        boots,
        rngs,
        max_depth=shared[1],
        min_samples_split=shared[2],
        min_samples_leaf=shared[3],
        n_split_features=shared[4],
    )


def predict_forest_fleet(
    jobs: Sequence[Tuple[RandomForestSurrogate, np.ndarray]],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Predict with several forests, each over its own candidate matrix.

    One fused vectorised traversal walks every (forest, tree, candidate)
    triple at once, so the per-tree/per-level NumPy call overhead is paid
    once for the fleet.  :meth:`RandomForestSurrogate.predict` is a fleet of
    one, which walks the forest's node tables as they are; a larger fleet
    concatenates its members' tables with offset child pointers.  Leaves are
    their own children, so every level is one gather of the split features,
    one ``<=`` against the thresholds and one gather of the children, for
    every walk at once, and the walk takes as many levels as the fleet's
    deepest tree.  A matrix whose width differs from the one its forest was
    fitted on raises ``ValueError``.

    The returned per-job ``(mean, std)`` pairs are **bit-identical** to
    calling ``forest.predict(X)`` per job: node traversal is pure
    gather/compare and the per-job moment reduction runs on the same
    ``(trees, n)`` stack a fleet of one builds.
    """
    if not jobs:
        return []
    Xs: List[np.ndarray] = []
    tables: List[_ForestTables] = []
    for forest, X in jobs:
        if not forest.fitted:
            raise RuntimeError("the forest has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        forest_tables = forest._tables
        if X.shape[1] != forest_tables.width:
            raise ValueError(
                f"the forest was fitted on {forest_tables.width} features, "
                f"but the matrix has {X.shape[1]} columns"
            )
        Xs.append(X)
        tables.append(forest_tables)
    # base[i]: offset in X_flat of the row walk i reads.
    if len(jobs) == 1:
        (forest_tables,), (X,) = tables, Xs
        feature, threshold, left, right, value, roots, depth, width = forest_tables
        n = X.shape[0]
        X_flat = np.ascontiguousarray(X).ravel()
        nodes = roots.repeat(n)
        base = np.arange(0, n * width, width)[None, :].repeat(roots.size, axis=0).ravel()
        levels = int(depth.max())
    else:
        node_off = flat_off = 0
        columns: Tuple[List[np.ndarray], ...] = ([], [], [], [], [], [], [])
        for (f, t, l, r, v, roots, _, width), X in zip(tables, Xs):
            n = X.shape[0]
            row_base = np.arange(flat_off, flat_off + n * width, width)
            parts = (
                f,
                t,
                l + node_off,
                r + node_off,
                v,
                (roots + node_off).repeat(n),
                row_base[None, :].repeat(roots.size, axis=0).ravel(),
            )
            for column, part in zip(columns, parts):
                column.append(part)
            node_off += f.size
            flat_off += n * width
        feature, threshold, left, right, value, nodes, base = (
            np.concatenate(column) for column in columns
        )
        X_flat = np.concatenate([X.ravel() for X in Xs])
        levels = max(int(forest_tables.depth.max()) for forest_tables in tables)

    # A leaf's feature is -1, so its walk reads the value before its row
    # (index -1 wraps); whatever the comparison says, the walk stays put.
    for _ in range(levels):
        at = feature.take(nodes)
        at += base
        go_left = X_flat.take(at) <= threshold.take(nodes)
        nodes = np.where(go_left, left.take(nodes), right.take(nodes))
    preds = value.take(nodes)

    results: List[Tuple[np.ndarray, np.ndarray]] = []
    cursor = 0
    for forest_tables, X in zip(tables, Xs):
        num_trees, n = forest_tables.roots.size, X.shape[0]
        block = preds[cursor : cursor + num_trees * n].reshape(num_trees, n)
        cursor += num_trees * n
        if n == 1:
            # Keep single-row predictions on the same reduction path as
            # batched ones: over a (trees, 1) array the outer-axis reduction
            # is contiguous and NumPy switches to pairwise summation, which
            # differs in the last ulp from the sequential row adds used for
            # wider batches.  Widening to two identical columns pins the
            # batched path, so scoring a row alone or inside any batch is
            # bit-identical (the service-style evaluation batching relies on
            # this).
            block = np.concatenate([block, block], axis=1)
            results.append(
                (block.mean(axis=0)[:1], np.maximum(block.std(axis=0)[:1], 1e-9))
            )
            continue
        # A forest of identical trees (tiny datasets) still needs non-zero
        # uncertainty for the acquisition function to explore.
        results.append((block.mean(axis=0), np.maximum(block.std(axis=0), 1e-9)))
    return results
