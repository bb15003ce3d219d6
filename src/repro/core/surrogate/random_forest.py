"""Random-forest surrogate (the paper's default DeepHyper model).

A from-scratch implementation on NumPy: :class:`RandomForestSurrogate` is a
bagged ensemble of CART-style regression trees (variance-reduction splits,
random feature subsampling per node, flat node arrays so prediction is
vectorised).  The predictive mean is the average of the per-tree
predictions and the predictive standard deviation is their spread (the
classic forest uncertainty estimate used by sampling-based BO).

The implementation favours fast re-fitting: the asynchronous search refits the
surrogate every time a batch of evaluations completes, and the paper's Fig. 4
relies on the RF update being cheap compared with the GP's :math:`O(n^3)`.
The forest fit is therefore *level-wise*: all nodes of all trees at
one depth are split together with segmented NumPy operations (one lexsort +
cumulative-sum pass per candidate-feature slot per level), instead of one
Python call stack per node.  At ~1000 observations this cuts the refit
wall-clock by roughly 5× against a depth-first recursive builder while
producing statistically equivalent forests (same split criterion, same
guards, same hyperparameters; only the order of the RNG draws differs).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.surrogate.base import Surrogate

__all__ = [
    "RandomForestSurrogate",
    "fit_forest_fleet",
    "predict_forest_fleet",
]


#: Minimum spread of y below which a node is treated as constant (a leaf).
_MIN_SPREAD = 1e-12


class _ArrayTree:
    """A fitted regression tree stored as flat NumPy arrays.

    Produced by the level-wise forest builder; :meth:`predict` is the
    vectorised traversal of one tree.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "max_depth", "fitted")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        max_depth: int,
    ):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.max_depth = int(max_depth)
        self.fitted = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted mean for each row of ``X`` (vectorised traversal)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        feature, threshold = self.feature, self.threshold
        left, right, value = self.left, self.right, self.value
        nodes = np.zeros(X.shape[0], dtype=int)
        for _ in range(self.max_depth + 1):
            is_internal = feature[nodes] >= 0
            if not np.any(is_internal):
                break
            rows = np.nonzero(is_internal)[0]
            f = feature[nodes[rows]]
            t = threshold[nodes[rows]]
            go_left = X[rows, f] <= t
            nodes[rows] = np.where(go_left, left[nodes[rows]], right[nodes[rows]])
        return value[nodes]

    @property
    def node_count(self) -> int:
        """Number of nodes in the tree."""
        return int(self.feature.shape[0])


def _build_forest_fleet(
    Xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    bootstrap_rows_per_job: Sequence[Sequence[np.ndarray]],
    rngs: Sequence[np.random.Generator],
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    n_split_features: int,
) -> List[List[_ArrayTree]]:
    """Fit the forests of several independent *jobs* in one level-wise pass.

    Each job is one ``(X, y, bootstrap_rows, rng)`` quadruple — one forest
    over one training set, e.g. one campaign's surrogate in a multi-campaign
    batch.  The frontier holds every open node of every tree of every job;
    each node's samples are stored contiguously in one concatenated sample
    array.  Per level, one segmented lexsort + cumulative-sum pass per
    candidate-feature slot scores every possible split of every node, so the
    per-node Python/NumPy call overhead of a recursive builder (the dominant
    cost: thousands of tiny array operations) collapses into ``O(k)`` array
    passes per level — and, across jobs, the per-*level* overhead is paid once
    for the whole fleet instead of once per forest.

    Every forest is **bit-identical** to fitting its job alone: all
    cross-segment operations are either exact per element (gathers, compares,
    stable sorts) or segment-local (``reduceat``), random feature subsets are
    drawn from each job's own generator over exactly its own frontier block,
    and the running-sum arrays are cumulated per job (with job-aware base
    subtraction) so no floating-point state leaks across jobs.  The test
    suite pins this equality down to the node arrays.

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

    # Concatenate the per-job training sets; frontier rows index into X_all.
    row_off = np.zeros(num_jobs, dtype=np.intp)
    if num_jobs > 1:
        np.cumsum(np.asarray([X.shape[0] for X in Xs[:-1]], dtype=np.intp), out=row_off[1:])
    X_all = np.vstack(Xs) if num_jobs > 1 else Xs[0]
    y_all = np.concatenate(ys) if num_jobs > 1 else ys[0]

    # ---------------------------------------------------------- frontier init
    # Trees (and therefore the frontier) are laid out job-major; every level
    # below preserves that grouping, so each job occupies one contiguous block
    # of nodes and samples.  Nodes are not stored in mutable per-tree
    # containers: each level *emits* one record block (tree id, value, split
    # feature/threshold, child ids) for its whole frontier, and the per-tree
    # arrays are carved out of the concatenated records at the end — local
    # node ids are breadth-first allocation ranks, exactly as the previous
    # per-node storage produced.
    storage_job: List[int] = []
    rows_parts: List[np.ndarray] = []
    sizes_list: List[int] = []
    for j, boots in enumerate(bootstrap_rows_per_job):
        for r in boots:
            rows_parts.append(r + row_off[j] if row_off[j] else r)
            sizes_list.append(r.shape[0])
            storage_job.append(j)
    num_trees = len(sizes_list)
    rows = np.concatenate(rows_parts)
    yv = y_all[rows]
    sizes = np.asarray(sizes_list, dtype=np.intp)
    stor_of = np.arange(num_trees, dtype=np.intp)
    storage_job_arr = np.asarray(storage_job, dtype=np.intp)
    node_counts = np.ones(num_trees, dtype=np.intp)  # every tree has its root

    rec_stor: List[np.ndarray] = []
    rec_value: List[np.ndarray] = []
    rec_feature: List[np.ndarray] = []
    rec_threshold: List[np.ndarray] = []
    rec_left: List[np.ndarray] = []
    rec_right: List[np.ndarray] = []

    def emit(stor, values, feature=None, threshold=None, left=None, right=None):
        n = stor.size
        rec_stor.append(stor)
        rec_value.append(values)
        rec_feature.append(
            np.full(n, -1, dtype=np.intp) if feature is None else feature
        )
        rec_threshold.append(np.zeros(n) if threshold is None else threshold)
        rec_left.append(np.full(n, -1, dtype=np.intp) if left is None else left)
        rec_right.append(np.full(n, -1, dtype=np.intp) if right is None else right)

    depth = 0
    while sizes.size:
        m = sizes.size
        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        ends = starts + sizes
        seg = np.repeat(np.arange(m, dtype=np.intp), sizes)

        # Node values (mean of y over the node's samples).
        node_sums = np.add.reduceat(yv, starts)
        node_values = node_sums / sizes

        if depth >= max_depth:
            emit(stor_of, node_values)
            break
        spread = np.maximum.reduceat(yv, starts) - np.minimum.reduceat(yv, starts)
        splittable = (sizes >= min_samples_split) & (spread >= _MIN_SPREAD)
        if not np.any(splittable):
            emit(stor_of, node_values)
            break

        # Compact the frontier to the splittable nodes.
        keep = splittable[seg]
        rows2, yv2 = rows[keep], yv[keep]
        sizes2 = sizes[splittable]
        stor2 = stor_of[splittable]
        m2 = sizes2.size
        starts2 = np.zeros(m2, dtype=np.intp)
        np.cumsum(sizes2[:-1], out=starts2[1:])
        ends2 = starts2 + sizes2
        seg2 = np.repeat(np.arange(m2, dtype=np.intp), sizes2)

        # Job block boundaries on the node axis and the sample axis.  A job
        # whose frontier is exhausted simply has an empty block (and, exactly
        # like a solo fit that broke out of its loop, draws no randomness).
        job2 = storage_job_arr[stor2]
        jcounts = np.bincount(job2, minlength=num_jobs)
        jnode_hi = np.cumsum(jcounts)
        jnode_lo = jnode_hi - jcounts
        seg_job_lo = np.repeat(starts2[np.minimum(jnode_lo, m2 - 1)], jcounts)

        # Random feature subset per node: batched uniform k-subsets, drawn
        # from each job's own generator over its own frontier block so every
        # job consumes its RNG exactly as it would alone; the (row-local)
        # rank selection runs fused over the stacked draws.
        if num_jobs == 1:
            draws = rngs[0].random((m2, d))
        else:
            draws = np.vstack(
                [
                    rngs[j].random((jcounts[j], d))
                    for j in range(num_jobs)
                    if jcounts[j]
                ]
            )
        F = np.argsort(draws, axis=1)[:, :k]

        # Per-sample split-position bookkeeping, shared by all feature slots.
        pos_in_seg = np.arange(seg2.size, dtype=np.intp) - starts2[seg2]
        counts_left = (pos_in_seg + 1).astype(float)
        counts_right = sizes2[seg2] - counts_left
        counts_right_safe = np.maximum(counts_right, 1.0)
        count_ok = (counts_left >= min_leaf) & (counts_right >= min_leaf)

        scores = np.full((m2, k), np.inf)
        thrs = np.zeros((m2, k))
        vnexts = np.zeros((m2, k))
        vals_by_slot: List[np.ndarray] = []
        for slot in range(k):
            vals = X_all[rows2, F[seg2, slot]]
            vals_by_slot.append(vals)
            if num_jobs == 1 or vals.size < 16384:
                order = np.lexsort((vals, seg2))
            else:
                # Large frontiers: sorting each job's block alone does
                # strictly less comparison work than one fused sort (the log
                # factor shrinks) and yields the *same* permutation — segment
                # ids are job-grouped, so the fused stable sort never
                # interleaves jobs.  Small frontiers keep the single fused
                # call (per-job call overhead would dominate); either branch
                # is bit-identical.
                order = np.empty(vals.size, dtype=np.intp)
                for j in range(num_jobs):
                    if jcounts[j] == 0:
                        continue
                    lo = starts2[jnode_lo[j]]
                    hi = ends2[jnode_hi[j] - 1]
                    order[lo:hi] = lo + np.lexsort((vals[lo:hi], seg2[lo:hi]))
            vs = vals[order]
            ys = yv2[order]
            # Running sums are cumulated per job block (one slice per job)
            # and the per-segment bases subtract only within-job prefixes, so
            # each job's scores carry exactly the floating-point state a solo
            # fit would produce.  Stacking ys and ys² lets one row-wise
            # cumsum produce both running sums (rows accumulate
            # independently and sequentially, so each row is bit-identical
            # to its own 1-D cumsum).
            if num_jobs == 1:
                c1 = np.cumsum(ys)
                c2 = np.cumsum(ys * ys)
            else:
                stacked = np.empty((2, ys.size))
                stacked[0] = ys
                np.multiply(ys, ys, out=stacked[1])
                csums = np.empty_like(stacked)
                for j in range(num_jobs):
                    if jcounts[j] == 0:
                        continue
                    lo = starts2[jnode_lo[j]]
                    hi = ends2[jnode_hi[j] - 1]
                    np.cumsum(stacked[:, lo:hi], axis=1, out=csums[:, lo:hi])
                c1 = csums[0]
                c2 = csums[1]
            base1 = np.where(starts2 > seg_job_lo, c1[starts2 - 1], 0.0)
            base2 = np.where(starts2 > seg_job_lo, c2[starts2 - 1], 0.0)
            tot1 = c1[ends2 - 1] - base1
            tot2 = c2[ends2 - 1] - base2
            sum_left = c1 - base1[seg2]
            sum2_left = c2 - base2[seg2]
            sum_right = tot1[seg2] - sum_left
            sum2_right = tot2[seg2] - sum2_left
            distinct = np.empty(vs.size, dtype=bool)
            distinct[:-1] = vs[1:] > vs[:-1]
            distinct[-1] = False
            valid = count_ok & distinct
            sse = (sum2_left - sum_left**2 / counts_left) + (
                sum2_right - sum_right**2 / counts_right_safe
            )
            score = np.where(valid, sse, np.inf)
            # Per-node minimum and its first (lowest-position) occurrence.
            minval = np.minimum.reduceat(score, starts2)
            at_min = np.flatnonzero(score == minval[seg2])
            seg_min = seg2[at_min]
            first = np.empty(seg_min.size, dtype=bool)
            first[0] = True
            first[1:] = seg_min[1:] != seg_min[:-1]
            best_pos = at_min[first]
            next_pos = np.minimum(best_pos + 1, vs.size - 1)
            scores[:, slot] = minval
            thrs[:, slot] = 0.5 * (vs[best_pos] + vs[next_pos])
            vnexts[:, slot] = vs[next_pos]

        # Fast path: the globally best feature slot per node is accepted when
        # its threshold provably separates the chosen position (no tie
        # swallow-up), which mirrors the sequential selection outcome.
        node_idx = np.arange(m2)
        jstar = np.argmin(scores, axis=1)
        sstar = scores[node_idx, jstar]
        tstar = thrs[node_idx, jstar]
        has_split = np.isfinite(sstar)
        quick = has_split & (tstar < vnexts[node_idx, jstar])
        chosen_feature = np.full(m2, -1, dtype=np.intp)
        chosen_thr = np.zeros(m2)
        chosen_feature[quick] = F[node_idx, jstar][quick]
        chosen_thr[quick] = tstar[quick]
        # Slow path (rare float-adjacency ties): replicate the reference
        # builder's sequential scan, including its running-best-score quirk.
        for i in np.flatnonzero(has_split & ~quick):
            best_score = np.inf
            lo, hi = starts2[i], ends2[i]
            n_i = hi - lo
            for j in range(k):
                s_ij = scores[i, j]
                if not (s_ij < best_score):
                    continue
                best_score = s_ij
                t_ij = thrs[i, j]
                cnt = int(np.count_nonzero(vals_by_slot[j][lo:hi] <= t_ij))
                if min_leaf <= cnt <= n_i - min_leaf:
                    chosen_feature[i] = F[i, j]
                    chosen_thr[i] = t_ij

        split_nodes = chosen_feature >= 0
        if not np.any(split_nodes):
            emit(stor_of, node_values)
            break

        # Allocate child node ids: two consecutive breadth-first local ids per
        # split node, in frontier order per tree (the frontier keeps each
        # tree's nodes contiguous, so a rank-within-tree subtraction assigns
        # exactly the ids sequential per-node allocation produced).
        stor_children = np.repeat(stor2[split_nodes], 2)
        n_children = stor_children.size
        child_idx = np.arange(n_children, dtype=np.intp)
        first_of_tree = np.empty(n_children, dtype=bool)
        first_of_tree[0] = True
        first_of_tree[1:] = stor_children[1:] != stor_children[:-1]
        tree_start = np.maximum.accumulate(np.where(first_of_tree, child_idx, 0))
        child_local = node_counts[stor_children] + (child_idx - tree_start)
        node_counts += np.bincount(stor_children, minlength=num_trees)

        # Emit this level's records: split info for split nodes, leaves for
        # the rest of the frontier.
        feature_block = np.full(m, -1, dtype=np.intp)
        thr_block = np.zeros(m)
        left_block = np.full(m, -1, dtype=np.intp)
        right_block = np.full(m, -1, dtype=np.intp)
        pos_m = np.flatnonzero(splittable)[split_nodes]
        feature_block[pos_m] = chosen_feature[split_nodes]
        thr_block[pos_m] = chosen_thr[split_nodes]
        left_block[pos_m] = child_local[0::2]
        right_block[pos_m] = child_local[1::2]
        emit(stor_of, node_values, feature_block, thr_block, left_block, right_block)

        # Partition the samples of every split node into its two children
        # with one stable segmented sort (left block first, order preserved).
        feat_per_sample = chosen_feature[seg2]
        keep2 = feat_per_sample >= 0
        rows3, yv3 = rows2[keep2], yv2[keep2]
        seg_kept = seg2[keep2]
        go_left = X_all[rows3, feat_per_sample[keep2]] <= chosen_thr[seg2][keep2]
        remap = np.full(m2, -1, dtype=np.intp)
        q = int(np.count_nonzero(split_nodes))
        remap[split_nodes] = np.arange(q, dtype=np.intp)
        seg_new = remap[seg_kept]
        order_children = np.lexsort((~go_left, seg_new))
        rows_next = rows3[order_children]
        yv_next = yv3[order_children]
        sizes_split = sizes2[split_nodes]
        starts_split = np.zeros(q, dtype=np.intp)
        np.cumsum(sizes_split[:-1], out=starts_split[1:])
        left_counts = np.add.reduceat(go_left.astype(np.intp), starts_split)
        sizes_next = np.empty(2 * q, dtype=np.intp)
        sizes_next[0::2] = left_counts
        sizes_next[1::2] = sizes_split - left_counts

        rows, yv = rows_next, yv_next
        sizes, stor_of = sizes_next, stor_children
        depth += 1

    # -------------------------------------------------------------- freeze
    # Concatenate the level blocks and carve out each tree's node arrays.
    # Within one tree, records were emitted in breadth-first local-id order,
    # so a stable grouping by tree id yields arrays indexed by local id.
    stor_all = np.concatenate(rec_stor)
    order = np.argsort(stor_all, kind="stable")
    value_all = np.concatenate(rec_value)[order]
    feature_all = np.concatenate(rec_feature)[order]
    threshold_all = np.concatenate(rec_threshold)[order]
    left_all = np.concatenate(rec_left)[order]
    right_all = np.concatenate(rec_right)[order]
    tree_ends = np.cumsum(np.bincount(stor_all, minlength=num_trees))

    frozen: List[_ArrayTree] = []
    lo = 0
    for t in range(num_trees):
        hi = int(tree_ends[t])
        frozen.append(
            _ArrayTree(
                feature=feature_all[lo:hi],
                threshold=threshold_all[lo:hi],
                left=left_all[lo:hi],
                right=right_all[lo:hi],
                value=value_all[lo:hi],
                max_depth=max_depth,
            )
        )
        lo = hi
    forests: List[List[_ArrayTree]] = []
    cursor = 0
    for boots in bootstrap_rows_per_job:
        forests.append(frozen[cursor : cursor + len(boots)])
        cursor += len(boots)
    return forests


def _build_forest_levelwise(
    X: np.ndarray,
    y: np.ndarray,
    bootstrap_rows: Sequence[np.ndarray],
    rng: np.random.Generator,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    n_split_features: int,
) -> List[_ArrayTree]:
    """Fit one forest level-wise: a single-job :func:`_build_forest_fleet`."""
    return _build_forest_fleet(
        [X],
        [y],
        [bootstrap_rows],
        [rng],
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        n_split_features=n_split_features,
    )[0]


class RandomForestSurrogate(Surrogate):
    """Bagged ensemble of level-wise regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Passed to each tree.
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
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._trees: List[_ArrayTree] = []
        self._fused_cache: Optional[Tuple] = None
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

    def _fused_tables(self) -> Tuple:
        """Concatenated node tables of all trees (cached until the next fit).

        Returns ``(feature, threshold, left, right, value, roots, depth_cap)``
        where child pointers are offset into the concatenated arrays and
        ``roots`` holds each tree's root position.
        """
        if self._fused_cache is None:
            trees = self._trees
            sizes = np.asarray([t.feature.shape[0] for t in trees], dtype=np.intp)
            roots = np.zeros(len(trees), dtype=np.intp)
            np.cumsum(sizes[:-1], out=roots[1:])
            self._fused_cache = (
                np.concatenate([t.feature for t in trees]),
                np.concatenate([t.threshold for t in trees]),
                np.concatenate([t.left + off for t, off in zip(trees, roots)]),
                np.concatenate([t.right + off for t, off in zip(trees, roots)]),
                np.concatenate([t.value for t in trees]),
                roots,
                max(t.max_depth for t in trees),
            )
        return self._fused_cache

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestSurrogate":
        X, y = self._validate(X, y)
        self._fused_cache = None
        self._trees = _build_forest_levelwise(
            X,
            y,
            bootstrap_rows=self._bootstrap_rows(X.shape[0]),
            rng=self._rng,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_split_features=self._n_split_features(X.shape[1]),
        )
        self.fitted = True
        return self

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if not self.fitted:
            raise RuntimeError("the forest has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # One fused traversal over all (tree, row) pairs instead of one
        # vectorised traversal per tree: bit-identical predictions (traversal
        # is pure gather/compare and the moment reduction sees the same
        # (trees, n) stack), at a fraction of the per-tree call overhead.
        feature, threshold, left, right, value, roots, depth_cap = self._fused_tables()
        n = X.shape[0]
        nodes = np.repeat(roots, n)
        row_map = np.tile(np.arange(n, dtype=np.intp), len(self._trees))
        for _ in range(depth_cap + 1):
            is_internal = feature[nodes] >= 0
            if not np.any(is_internal):
                break
            at = np.nonzero(is_internal)[0]
            nd = nodes[at]
            go_left = X[row_map[at], feature[nd]] <= threshold[nd]
            nodes[at] = np.where(go_left, left[nd], right[nd])
        predictions = value[nodes].reshape(len(self._trees), n)
        if n == 1:
            # Keep single-row predictions on the same reduction path as
            # batched ones: over a (trees, 1) array the outer-axis reduction
            # is contiguous and NumPy switches to pairwise summation, which
            # differs in the last ulp from the sequential row adds used for
            # wider batches.  Widening to two identical columns pins the
            # batched path, so scoring a row alone or inside any batch is
            # bit-identical (the service-style evaluation batching relies on
            # this).
            predictions = np.concatenate([predictions, predictions], axis=1)
            mean = predictions.mean(axis=0)[:1]
            std = np.maximum(predictions.std(axis=0)[:1], 1e-9)
            return mean, std
        mean = predictions.mean(axis=0)
        std = predictions.std(axis=0)
        # A forest of identical trees (tiny datasets) still needs non-zero
        # uncertainty for the acquisition function to explore.
        std = np.maximum(std, 1e-9)
        return mean, std


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
    for model, trees in zip(models, forests):
        model._trees = trees
        model._fused_cache = None
        model.fitted = True


def _fit_forests(
    fits: Sequence[Tuple[RandomForestSurrogate, np.ndarray, np.ndarray]],
) -> List[List[_ArrayTree]]:
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
    triple at once, so the per-tree/per-level NumPy call overhead of
    :meth:`RandomForestSurrogate.predict` is paid once for the fleet.  The
    returned per-job ``(mean, std)`` pairs are **bit-identical** to calling
    ``forest.predict(X)`` per job: node traversal is pure gather/compare and
    the per-job moment reduction runs on the same ``(trees, n)`` stack a solo
    predict builds.
    """
    if not jobs:
        return []
    feats: List[np.ndarray] = []
    thrs: List[np.ndarray] = []
    lefts: List[np.ndarray] = []
    rights: List[np.ndarray] = []
    values: List[np.ndarray] = []
    Xs: List[np.ndarray] = []
    root_parts: List[np.ndarray] = []
    rowmap_parts: List[np.ndarray] = []
    block_shapes: List[Tuple[int, int]] = []
    node_off = 0
    row_off = 0
    max_depth = 0
    for forest, X in jobs:
        if not forest.fitted:
            raise RuntimeError("the forest has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Xs.append(X)
        n = X.shape[0]
        f, t, l, r, v, roots, depth_cap = forest._fused_tables()
        feats.append(f)
        thrs.append(t)
        lefts.append(l + node_off)
        rights.append(r + node_off)
        values.append(v)
        root_parts.append(np.repeat(roots + node_off, n))
        rowmap_parts.append(np.tile(row_off + np.arange(n, dtype=np.intp), len(forest._trees)))
        node_off += f.shape[0]
        max_depth = max(max_depth, depth_cap)
        block_shapes.append((len(forest._trees), n))
        row_off += n
    feature = np.concatenate(feats)
    threshold = np.concatenate(thrs)
    left = np.concatenate(lefts)
    right = np.concatenate(rights)
    value = np.concatenate(values)
    X_all = np.vstack(Xs)
    nodes = np.concatenate(root_parts)
    row_map = np.concatenate(rowmap_parts)

    for _ in range(max_depth + 1):
        is_internal = feature[nodes] >= 0
        if not np.any(is_internal):
            break
        at = np.nonzero(is_internal)[0]
        f = feature[nodes[at]]
        t = threshold[nodes[at]]
        go_left = X_all[row_map[at], f] <= t
        nodes[at] = np.where(go_left, left[nodes[at]], right[nodes[at]])
    preds = value[nodes]

    results: List[Tuple[np.ndarray, np.ndarray]] = []
    cursor = 0
    for num_trees, n in block_shapes:
        block = preds[cursor : cursor + num_trees * n].reshape(num_trees, n)
        cursor += num_trees * n
        if n == 1:
            # Same single-row reduction-path normalisation as
            # RandomForestSurrogate.predict.
            block = np.concatenate([block, block], axis=1)
            results.append(
                (block.mean(axis=0)[:1], np.maximum(block.std(axis=0)[:1], 1e-9))
            )
            continue
        mean = block.mean(axis=0)
        std = np.maximum(block.std(axis=0), 1e-9)
        results.append((mean, std))
    return results
