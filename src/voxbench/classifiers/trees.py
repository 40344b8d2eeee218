"""CART decision trees (Gini impurity) and their bootstrap-aggregated ensemble."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .base import LabeledDataset, TrainedClassifier, check_ranges


@dataclass(frozen=True)
class DecisionTreeModel:
    """A CART as flat node arrays, node 0 the root; feature -1 marks a leaf.

    A query at inner node i goes to left[i] if its feature[i] value is <=
    threshold[i], else to right[i]. fractions: training class fractions per node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fractions: np.ndarray

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """Leaf class fractions per query; all queries descend one level per step."""
        node = np.zeros(queries.shape[0], dtype=np.intp)
        active = np.arange(queries.shape[0])
        while active.size:
            at = node[active]
            inner = self.feature[at] >= 0
            active, at = active[inner], at[inner]
            go_left = queries[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
        return self.fractions[node]


def _segment_offsets(sizes: np.ndarray) -> np.ndarray:
    """Start of each segment when segments of these sizes are laid end to end."""
    return sizes.cumsum() - sizes


def _stable_order(keys: np.ndarray, key_count: int) -> np.ndarray:
    """Stable argsort of an (F, M) array of integer keys in [0, key_count), row by row.

    Returns flat indices into keys.ravel(), row 0's first. The keys are offset
    by row and narrowed to the smallest dtype that holds them, so one sort
    serves every row and keys of up to 16 bits sort by radix in linear time.
    """
    offset = np.arange(keys.shape[0])[:, None] * key_count
    flat = (keys + offset).ravel()
    return flat.astype(np.min_scalar_type(keys.shape[0] * key_count)).argsort(kind="stable")


def _best_splits(xt, y, rows, node, sizes, class_count, min_leaf):
    """Class fractions and the best Gini split of each node in one batch.

    rows[f] lists the batch's rows grouped by node (node[j] for column j,
    nondecreasing) and, within a node, sorted by feature f (ties by row id).
    sizes[c] is node c's row count. Returns (fractions, decrease, feature,
    threshold) per node; feature is -1 where no admissible split exists.

    A split after the i-th row of a node scores parent - gini_left -
    gini_right, each term an impurity times its row count, in the float
    operations of a per-node scan. Its sums of squared class counts are
    exact integers, carried in O(rows) memory: S_L(i) = sum_{j<=i} (2 r_j
    + 1), with r_j row j's earlier rows of its class in its node, and S_R(i)
    = sum_k T_k^2 - 2 sum_{j<=i} T_{c_j} + S_L(i), with T the node's class
    counts. A pure node is not split. Among equal decreases the lowest
    feature, then the first row, wins.
    """
    features, m = rows.shape
    nodes = sizes.size
    starts = _segment_offsets(sizes)
    key = node * class_count + y[rows]  # the (node, class) group of each column
    counts = np.bincount(key[0], minlength=nodes * class_count)
    table = counts.reshape(nodes, class_count)
    fractions = table / sizes[:, None]
    parent = (1.0 - (fractions**2).sum(axis=1)) * sizes

    # sorted by group, each feature's columns of one group come in scan order, so
    # a column's rank there, less the group's start, is its r_j
    by_group = _stable_order(key, counts.size)
    rank = np.arange(m) - _segment_offsets(counts)[key.ravel()[by_group]].reshape(features, m)
    increment = np.empty(features * m, dtype=np.int64)
    increment[by_group] = (2 * rank + 1).ravel()
    running = np.zeros((2, features, m + 1), dtype=np.int64)
    increment.reshape(features, m).cumsum(axis=1, out=running[0, :, 1:])
    counts[key].cumsum(axis=1, out=running[1, :, 1:])
    node_start = starts[node]
    left_sq, left_total = running[:, :, 1:] - running[:, :, node_start]
    right_sq = (table**2).sum(axis=1)[node] - 2 * left_total + left_sq

    left_size = (np.arange(1, m + 1) - node_start).astype(np.float64)
    right_size = sizes[node] - left_size
    node_parent = parent[node]
    # a node's last column has no right side; it is not admissible, so divide it by 1
    divisor = np.maximum(right_size, 1.0)
    decrease = node_parent - (left_size - left_sq / left_size) - (right_size - right_sq / divisor)
    values = xt.ravel()[rows + np.arange(features)[:, None] * xt.shape[1]]
    admissible = np.zeros(rows.shape, dtype=bool)
    np.not_equal(values[:, :-1], values[:, 1:], out=admissible[:, :-1])
    admissible &= (left_size >= min_leaf) & (right_size >= min_leaf) & (node_parent != 0.0)
    decrease[~admissible] = -np.inf

    # per node: the best feature (the first among equals), then its first column with the best decrease
    nonempty = sizes > 0
    best_of = np.full((features, nodes), -np.inf)
    best_of[:, nonempty] = np.maximum.reduceat(decrease, starts[nonempty], axis=1)
    feature = best_of.argmax(axis=0)
    best = best_of.max(axis=0)
    split = best > -np.inf
    hits = (decrease.ravel()[feature[node] * m + np.arange(m)] == best[node]).nonzero()[0]
    at = feature[split] * m + hits[np.searchsorted(hits, starts[split])]
    lower, upper = values.ravel()[at], values.ravel()[at + 1]
    with np.errstate(over="ignore"):
        midpoint = (lower + upper) / 2.0
    threshold = np.zeros(nodes)
    # the midpoint of two adjacent floats can round to the upper one, and that of two huge
    # ones overflow to inf; either would send both sides left, so the lower value stands in
    threshold[split] = np.where((lower <= midpoint) & (midpoint < upper), midpoint, lower)
    feature[~split] = -1
    return fractions, best, feature, threshold


# Rows times features in one batched split search. Its temporaries are about
# 20 arrays of this many 8-byte values, so larger rounds run in several batches.
SEARCH_BATCH = 4096


def _batches(sizes: list[int], features: int):
    """(start, stop) ranges of consecutive nodes with at most SEARCH_BATCH rows times features; a larger node alone."""
    start, rows = 0, 0
    for i, size in enumerate(sizes):
        if i > start and (rows + size) * features > SEARCH_BATCH:
            yield start, i
            start, rows = i, 0
        rows += size
    yield start, len(sizes)


def grow_trees(samples, class_count: int, max_splits: int, min_leaf: int) -> list[DecisionTreeModel]:
    """Best-first CART growth of one tree per (x, y) sample, all in lockstep.

    Each tree is the one its sample grows alone: a split budget of
    max_splits, leaves of at least min_leaf rows, and a heap that pops the
    largest impurity decrease first, ties in the order the nodes were made.
    Node 0 is the root and a split's left child is numbered before its right.
    Each round every tree with budget and candidates left pops one node; one
    batched search then scores the children of all of them (of as many as
    fit SEARCH_BATCH, and the rest in further batches).

    The rows of every tree are kept in one presorted list per feature, each
    live leaf a contiguous range in all of them, and a split partitions its
    range stably. The samples must have the same column count.
    """
    blocks = [np.asarray(x, dtype=np.float64) for x, _ in samples]
    y = np.concatenate([np.asarray(labels, dtype=np.intp) for _, labels in samples])
    trees = len(samples)
    sizes = np.array([len(labels) for _, labels in samples], dtype=np.intp)
    offsets = _segment_offsets(sizes)
    xt = np.ascontiguousarray(np.concatenate(blocks).T)
    # ranked[f]: the rows of tree 0, then tree 1, ..., each tree's sorted by feature f
    ranked = np.concatenate(
        [np.argsort(block, axis=0, kind="stable").T + offset for block, offset in zip(blocks, offsets)], axis=1
    )
    goes_left = np.zeros(y.size, dtype=bool)

    heaps: list[list] = [[] for _ in range(trees)]
    splits = [0] * trees
    node_count = np.ones(trees, dtype=np.intp)
    order = itertools.count()  # FIFO tie-break keeps growth deterministic
    made = []  # per batch: tree, node id and class fractions of each new node
    split_rows = []  # per round: tree, node, feature, threshold and left child of each split

    def add_nodes(tree, node, start, size, rows, row_node):
        fractions, decrease, feature, threshold = _best_splits(xt, y, rows, row_node, size, class_count, min_leaf)
        made.append((tree, node, fractions))
        for entry in zip(
            decrease.tolist(), tree.tolist(), node.tolist(), start.tolist(), size.tolist(),
            feature.tolist(), threshold.tolist(),
        ):
            if entry[5] >= 0:
                heapq.heappush(heaps[entry[1]], (-entry[0], next(order), *entry[2:]))

    for a, b in _batches(sizes.tolist(), xt.shape[0]):
        roots = slice(offsets[a], offsets[b - 1] + sizes[b - 1])
        tree = np.arange(a, b)
        add_nodes(tree, np.zeros_like(tree), offsets[a:b], sizes[a:b], ranked[:, roots], (tree - a).repeat(sizes[a:b]))
    while True:
        popped = []
        for tree, heap in enumerate(heaps):
            if heap and splits[tree] < max_splits:
                popped.append((tree, *heapq.heappop(heap)[2:]))
                splits[tree] += 1
        if not popped:
            break
        for a, b in _batches([entry[3] for entry in popped], xt.shape[0]):
            tree, node, start, size, feature, threshold = map(np.array, zip(*popped[a:b]))
            segment = np.arange(tree.size).repeat(size)
            pos = np.arange(segment.size) + (start - _segment_offsets(size)).repeat(size)
            rows = ranked[:, pos]
            goes_left[rows[0]] = xt[feature[segment], rows[0]] <= threshold[segment]
            # a stable sort on (segment, side) partitions every feature's list at once
            side = 2 * segment + ~goes_left[rows]
            by_side = _stable_order(side, 2 * tree.size)
            rows = rows.ravel()[by_side].reshape(rows.shape)
            ranked[:, pos] = rows
            child_size = np.bincount(side[0], minlength=2 * tree.size)  # left, right, left, right, ...
            first = node_count[tree]
            node_count[tree] += 2
            split_rows.append((tree, node, feature, threshold, first))
            children = first.repeat(2)
            children[1::2] += 1
            child_start = start.repeat(2)
            child_start[1::2] += child_size[0::2]
            add_nodes(tree.repeat(2), children, child_start, child_size, rows, side.ravel()[by_side[: segment.size]])

    base = _segment_offsets(node_count)
    total = int(node_count.sum())
    feature_of = np.full(total, -1, dtype=np.intp)
    threshold_of = np.zeros(total)
    left_of = np.full(total, -1, dtype=np.intp)
    right_of = np.full(total, -1, dtype=np.intp)
    fractions_of = np.empty((total, class_count))
    while made:  # each batch's rows are freed once copied
        tree, node, fractions = made.pop()
        fractions_of[base[tree] + node] = fractions
    for tree, node, feature, threshold, first in split_rows:
        at = base[tree] + node
        feature_of[at], threshold_of[at], left_of[at], right_of[at] = feature, threshold, first, first + 1
    cuts = base[1:]
    return [
        DecisionTreeModel(*parts)
        for parts in zip(*(np.split(a, cuts) for a in (feature_of, threshold_of, left_of, right_of, fractions_of)))
    ]


def tree_train_many(datasets, max_splits: int = 100, min_leaf: int = 1) -> list[TrainedClassifier]:
    """tree_train on each dataset, all trees grown in lockstep; the datasets must share class and column counts."""
    check_ranges({"max_splits": max_splits, "min_leaf": min_leaf})
    samples = [(data.train_points, data.train_labels) for data in datasets]
    trees = grow_trees(samples, datasets[0].class_count, max_splits, min_leaf)
    return [TrainedClassifier.fitted("complex tree", tree, data) for tree, data in zip(trees, datasets)]


def tree_train(data: LabeledDataset, max_splits: int = 100, min_leaf: int = 1) -> TrainedClassifier:
    """Binary CART with axis-aligned splits; leaves predict their majority class."""
    return tree_train_many([data], max_splits, min_leaf)[0]


@dataclass(frozen=True)
class BaggedTreesModel:
    trees: list = field(repr=False)
    class_count: int = 0

    def scores(self, queries: np.ndarray) -> np.ndarray:
        votes = np.zeros((queries.shape[0], self.class_count))
        for tree in self.trees:
            votes[np.arange(queries.shape[0]), tree.scores(queries).argmax(axis=1)] += 1.0
        return votes / len(self.trees)


def bagged_trees_train(
    data: LabeledDataset,
    n_trees: int = 30,
    seed: int = 0,
    max_splits: int = 100,
    min_leaf: int = 1,
) -> TrainedClassifier:
    """CART ensemble on seeded bootstrap resamples, majority vote at query time; the trees grow in lockstep."""
    check_ranges({"n_trees": n_trees, "max_splits": max_splits, "min_leaf": min_leaf})
    x, y = data.train_points, data.train_labels
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, y.size, y.size) for _ in range(n_trees)]
    trees = grow_trees([(x[idx], y[idx]) for idx in draws], data.class_count, max_splits, min_leaf)
    payload = BaggedTreesModel(trees=trees, class_count=data.class_count)
    return TrainedClassifier.fitted("bagged trees", payload, data)
