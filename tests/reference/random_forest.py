"""The depth-first regression tree and the recursive forest fit built on it.

:class:`DecisionTreeRegressor` is the CART-style tree the level-wise forest
builder (:func:`repro.core.surrogate.random_forest._build_forest_fleet`)
replaced: variance-reduction splits over a random feature subset, built node
by node with a depth-first recursion.  The builders share the split
criterion, the distinct-value/min-leaf validity rule, midpoint thresholds
and the degenerate-tie guard; only the order of the RNG draws differs.
Without randomness both face identical decisions and must grow identical
trees, which is what the equivalence tests check.

:func:`build_forest_fleet` is the level-wise builder as it was before it
sorted integer rank keys: one float ``np.lexsort`` per candidate-feature
slot per level, each slot scored on its own.  The library's builder must
reproduce it bit for bit — node arrays and every job's generator state —
which ``tests/core/test_random_forest_fleet.py`` checks.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.surrogate.random_forest import RandomForestSurrogate, _ArrayTree

__all__ = ["DecisionTreeRegressor", "build_forest_fleet", "fit_recursive"]

#: Minimum spread of y below which a node is treated as constant (a leaf).
_MIN_SPREAD = 1e-12


class DecisionTreeRegressor:
    """A regression tree with variance-reduction splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child.
    max_features:
        Number of features considered per split (``None`` = all,
        ``"sqrt"`` = ⌈√d⌉).
    rng:
        Random generator used for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 18,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[object] = "sqrt",
        rng: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid minimum sample constraints")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng()
        # Array representation filled by fit().
        self._feature: List[int] = []
        self._threshold: List[float] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._value: List[float] = []
        self.fitted = False

    # -------------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Build the tree on ``X`` (n×d) and ``y`` (n,)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("invalid training data")
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._n_features = X.shape[1]
        self._build(X, y, np.arange(X.shape[0]), depth=0)
        self.fitted = True
        return self

    def _n_split_features(self) -> int:
        d = self._n_features
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(math.ceil(math.sqrt(d))))
        return max(1, min(d, int(self.max_features)))

    def _new_node(self) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(0.0)
        return len(self._feature) - 1

    def _build(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node = self._new_node()
        y_node = y[idx]
        self._value[node] = float(np.mean(y_node))
        n = idx.shape[0]
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or np.ptp(y_node) < 1e-12
        ):
            return node

        best = self._best_split(X, y, idx)
        if best is None:
            return node
        feature, threshold, left_mask = best
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._build(X, y, left_idx, depth + 1)
        self._right[node] = self._build(X, y, right_idx, depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> Optional[Tuple[int, float, np.ndarray]]:
        """Find the variance-minimising split over a random feature subset."""
        n = idx.shape[0]
        y_node = y[idx]
        features = self.rng.choice(
            self._n_features, size=self._n_split_features(), replace=False
        )
        best_score = np.inf
        best: Optional[Tuple[int, float, np.ndarray]] = None
        min_leaf = self.min_samples_leaf
        for feature in features:
            values = X[idx, feature]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            y_sorted = y_node[order]
            # Valid split positions: between distinct consecutive values, with
            # at least min_leaf samples on each side.
            csum = np.cumsum(y_sorted)
            csum2 = np.cumsum(y_sorted**2)
            total, total2 = csum[-1], csum2[-1]
            counts_left = np.arange(1, n)
            valid = (v_sorted[1:] > v_sorted[:-1]) & (counts_left >= min_leaf) & (
                (n - counts_left) >= min_leaf
            )
            if not np.any(valid):
                continue
            sum_left = csum[:-1]
            sum2_left = csum2[:-1]
            sum_right = total - sum_left
            sum2_right = total2 - sum2_left
            counts_right = n - counts_left
            sse_left = sum2_left - sum_left**2 / counts_left
            sse_right = sum2_right - sum_right**2 / counts_right
            score = sse_left + sse_right
            score[~valid] = np.inf
            pos = int(np.argmin(score))
            if score[pos] < best_score:
                best_score = float(score[pos])
                threshold = 0.5 * (v_sorted[pos] + v_sorted[pos + 1])
                left_mask = values <= threshold
                # Guard against degenerate masks caused by ties.
                if min_leaf <= left_mask.sum() <= n - min_leaf:
                    best = (int(feature), float(threshold), left_mask)
        return best

    # ---------------------------------------------------------------- predict
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted mean for each row of ``X`` (vectorised traversal)."""
        if not self.fitted:
            raise RuntimeError("the tree has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        feature = np.asarray(self._feature)
        threshold = np.asarray(self._threshold)
        left = np.asarray(self._left)
        right = np.asarray(self._right)
        value = np.asarray(self._value)

        nodes = np.zeros(X.shape[0], dtype=int)
        for _ in range(self.max_depth + 1):
            is_internal = feature[nodes] >= 0
            if not np.any(is_internal):
                break
            f = feature[nodes[is_internal]]
            t = threshold[nodes[is_internal]]
            rows = np.nonzero(is_internal)[0]
            go_left = X[rows, f] <= t
            new_nodes = np.where(go_left, left[nodes[rows]], right[nodes[rows]])
            nodes[rows] = new_nodes
        return value[nodes]

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return len(self._feature)


def fit_recursive(
    forest: RandomForestSurrogate, X: np.ndarray, y: np.ndarray
) -> RandomForestSurrogate:
    """Fit ``forest`` tree by tree with :class:`DecisionTreeRegressor`.

    Each tree's bootstrap rows and feature subsets are drawn from the
    forest's own generator, interleaved per tree in the original
    implementation's order.  The trees are stored as flat node arrays, so
    the forest predicts through its usual fused traversal.
    """
    X, y = forest._validate(X, y)
    forest._fused_cache = None
    n = X.shape[0]
    trees = []
    for _ in range(forest.n_estimators):
        tree = DecisionTreeRegressor(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            rng=forest._rng,
        )
        if forest.bootstrap and n > 1:
            sample = forest._rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        tree.fit(X[sample], y[sample])
        trees.append(
            _ArrayTree(
                feature=np.asarray(tree._feature, dtype=np.intp),
                threshold=np.asarray(tree._threshold, dtype=float),
                left=np.asarray(tree._left, dtype=np.intp),
                right=np.asarray(tree._right, dtype=np.intp),
                value=np.asarray(tree._value, dtype=float),
                max_depth=tree.max_depth,
            )
        )
    forest._trees = trees
    forest.fitted = True
    return forest


def build_forest_fleet(
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
