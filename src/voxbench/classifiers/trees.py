"""CART decision trees (Gini impurity) and their bootstrap-aggregated ensemble."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .base import LabeledDataset, TrainedClassifier, check_counts


def _class_fractions(labels: np.ndarray, class_count: int) -> np.ndarray:
    return np.bincount(labels, minlength=class_count) / labels.size


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p**2).sum())


def _best_split(x, y, class_count, min_leaf):
    """Largest Gini-impurity decrease over all axis-aligned threshold splits.

    Returns (decrease, feature, threshold) or None when no admissible split
    improves on the parent. Scan order makes ties deterministic.
    """
    n = y.size
    parent = _gini(np.bincount(y, minlength=class_count)) * n
    if parent == 0.0 or n < 2 * min_leaf:
        return None
    best = None
    onehot = np.zeros((n, class_count))
    onehot[np.arange(n), y] = 1.0
    left_sizes = np.arange(1, n, dtype=np.float64)
    right_sizes = n - left_sizes
    for feature in range(x.shape[1]):
        order = np.argsort(x[:, feature], kind="stable")
        values = x[order, feature]
        left_counts = np.cumsum(onehot[order], axis=0)[:-1]
        right_counts = left_counts[-1] + onehot[order[-1]] - left_counts
        gini_left = left_sizes - (left_counts**2).sum(axis=1) / left_sizes
        gini_right = right_sizes - (right_counts**2).sum(axis=1) / right_sizes
        decrease = parent - gini_left - gini_right
        admissible = (
            (values[:-1] != values[1:])
            & (left_sizes >= min_leaf)
            & (right_sizes >= min_leaf)
        )
        decrease[~admissible] = -np.inf
        i = int(decrease.argmax())
        # zero-gain splits are admitted (XOR-style nodes need them); growth
        # still halts at pure nodes and the size/budget limits
        if np.isfinite(decrease[i]) and (best is None or decrease[i] > best[0]):
            best = (float(decrease[i]), feature, (values[i] + values[i + 1]) / 2.0)
    return best


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


def grow_tree(x, y, class_count, max_splits, min_leaf) -> DecisionTreeModel:
    """Best-first CART growth under a total split budget."""
    nodes, fractions = [], []  # nodes[i] = [feature, threshold, left, right]
    order = itertools.count()  # FIFO tie-break keeps growth deterministic
    heap = []

    def add_leaf(idx):
        nodes.append([-1, 0.0, -1, -1])
        fractions.append(_class_fractions(y[idx], class_count))
        split = _best_split(x[idx], y[idx], class_count, min_leaf)
        if split is not None:
            heapq.heappush(heap, (-split[0], next(order), len(nodes) - 1, idx, split[1], split[2]))
        return len(nodes) - 1

    add_leaf(np.arange(y.size))
    splits = 0
    while heap and splits < max_splits:
        _, _, node, idx, feature, threshold = heapq.heappop(heap)
        goes_left = x[idx, feature] <= threshold
        # the left child is created (and queued) before the right one
        nodes[node] = [feature, threshold, add_leaf(idx[goes_left]), add_leaf(idx[~goes_left])]
        splits += 1
    feature, threshold, left, right = (np.array(column) for column in zip(*nodes))
    return DecisionTreeModel(feature, threshold, left, right, np.vstack(fractions))


def tree_train(data: LabeledDataset, max_splits: int = 100, min_leaf: int = 1) -> TrainedClassifier:
    """Binary CART with axis-aligned splits; leaves predict their majority class."""
    check_counts({"min_leaf": min_leaf})
    tree = grow_tree(data.train_points, data.train_labels, data.class_count, max_splits, min_leaf)
    return TrainedClassifier.fitted("complex tree", tree, data)


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
    """CART ensemble on seeded bootstrap resamples, majority vote at query time."""
    check_counts({"n_trees": n_trees, "min_leaf": min_leaf})
    x, y = data.train_points, data.train_labels
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        idx = rng.integers(0, y.size, y.size)
        trees.append(grow_tree(x[idx], y[idx], data.class_count, max_splits, min_leaf))
    payload = BaggedTreesModel(trees=trees, class_count=data.class_count)
    return TrainedClassifier.fitted("bagged trees", payload, data)
