import dataclasses
import heapq
import itertools
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxbench.classifiers import (
    FeedForwardNet,
    LabeledDataset,
    bagged_trees_train,
    check_classifier,
    ffnn_train,
    knn_train,
    predict,
    svm_train,
    train_by_name,
    tree_train,
)
from voxbench.classifiers import trees
from voxbench.classifiers.base import DISTANCE_BLOCK_ROWS, squared_distances
from voxbench.classifiers.knn import DISTANCE_EPSILON, SORT_BLOCK_ROWS
from voxbench.classifiers.svm import rbf_kernel
from voxbench.classifiers.ffnn import ffnn_train_many
from voxbench.classifiers.trees import DecisionTreeModel, grow_trees
from voxbench.errors import DimensionMismatch, KTooLarge, NonFiniteLoss


def dataset(points, labels, train_mask=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 1:
        points = points.T
    labels = np.asarray(labels)
    if train_mask is None:
        train_mask = np.ones(len(labels), dtype=bool)
    return LabeledDataset(points=points, labels=labels, train_mask=train_mask)


def blobs(rng, n_per=40, centers=((0, 0), (6, 6)), spread=1.0):
    points = np.vstack([rng.normal(c, spread, (n_per, len(c))) for c in centers])
    labels = np.repeat(np.arange(len(centers)), n_per)
    return points, labels


# --- dataset validation ---------------------------------------------------------

def test_dataset_requires_dense_labels():
    with pytest.raises(ValueError):
        dataset([[0.0], [1.0]], [0, 2])


def test_dataset_requires_all_classes_in_train():
    with pytest.raises(ValueError):
        dataset([[0.0], [1.0]], [0, 1], train_mask=np.array([True, False]))


@pytest.mark.parametrize(
    "labels, train_mask, message",
    [
        ([0, -1, 1], None, "labels must be dense in 0..K-1"),
        ([-3, -2, -1], None, "labels must be dense in 0..K-1"),
        ([0, 2, 2], None, "labels must be dense in 0..K-1"),
        ([0, 10**12], None, "labels must be dense in 0..K-1"),  # rejected before anything counts up to it
        ([1, 1, 2], None, "labels must be dense in 0..K-1"),
        ([0, 1, 1], [True, True, False], None),
        ([0, 1, 1], [False, False, False], "training split is empty"),
        ([0, 1, 2], [True, True, False], "every class must appear in the training split"),
        ([0, 1, 2, 0], [True, False, True, True], "every class must appear in the training split"),
    ],
)
def test_dataset_label_checks_keep_their_messages(labels, train_mask, message):
    points = np.zeros((len(labels), 1))
    if message is None:
        assert dataset(points, labels, train_mask).class_count == max(labels) + 1
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataset(points, labels, train_mask)


# --- weighted KNN ----------------------------------------------------------------

def test_knn_nearest_point_wins():
    model = knn_train(dataset([0.0, 10.0], [0, 1]), k=1)
    labels, _ = predict(model, [[1.0]])
    assert labels[0] == 0


def test_knn_exact_hit_dominates():
    model = knn_train(dataset([0.0, 0.5, 10.0], [0, 1, 1]), k=3)
    labels, scores = predict(model, [[0.0]])
    assert labels[0] == 0
    assert scores[0, 0] > 0.99


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    points, labels = rng.normal(0, 1, (200, 2)), rng.integers(0, 3, 200)
    labels[:3] = [0, 1, 2]  # keep labels dense
    data = dataset(points, labels)
    model = knn_train(data, k=5)
    queries = rng.normal(0, 1, (50, 2))
    got, _ = predict(model, queries)

    for q, predicted in zip(queries, got):
        d2 = ((points - q) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:5]
        weights = 1.0 / (1e-12 + d2[nearest])
        tallies = np.zeros(3)
        for idx, w in zip(nearest, weights):
            tallies[labels[idx]] += w
        assert predicted == tallies.argmax()


def test_knn_k_too_large():
    with pytest.raises(KTooLarge):
        knn_train(dataset([0.0, 1.0], [0, 1]), k=3)


def test_knn_scale_invariant_argmax():
    rng = np.random.default_rng(1)
    points, labels = blobs(rng)
    model = knn_train(dataset(points, labels), k=5)
    queries = rng.normal(3, 2, (30, 2))
    base, _ = predict(model, queries)
    scaled_model = knn_train(dataset(points * 7.5, labels), k=5)
    scaled, _ = predict(scaled_model, queries * 7.5)
    np.testing.assert_array_equal(base, scaled)


def test_knn_train_set_self_prediction():
    rng = np.random.default_rng(2)
    points = rng.normal(0, 1, (40, 3))  # distinct with probability 1
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    model = knn_train(dataset(points, labels), k=1)
    got, _ = predict(model, points)
    np.testing.assert_array_equal(got, labels)


def one_expression_squared_distances(a, b):
    """squared_distances as one expression over whole arrays, the reference for its row blocks."""
    d2 = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * a @ b.T
    return np.maximum(d2, 0.0)


def full_sort_knn_scores(model, queries):
    """WeightedKnnModel.scores with one argsort over every query row, the reference for its row blocks."""
    d2 = one_expression_squared_distances(queries, model.points)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
    weights = 1.0 / (DISTANCE_EPSILON + np.take_along_axis(d2, nearest, axis=1))
    out = np.zeros((queries.shape[0], model.class_count))
    neighbor_labels = model.labels[nearest]
    for c in range(model.class_count):
        out[:, c] = np.where(neighbor_labels == c, weights, 0.0).sum(axis=1)
    return out / out.sum(axis=1, keepdims=True)


# query counts with one row, whole blocks, a one-row remainder and a longer remainder
BLOCKED_ROWS = sorted({1, DISTANCE_BLOCK_ROWS, SORT_BLOCK_ROWS + 1, 2 * DISTANCE_BLOCK_ROWS + 17})


@pytest.mark.parametrize("rows", BLOCKED_ROWS)
def test_blocked_distances_and_kernel_equal_one_expression_bitwise(rows):
    rng = np.random.default_rng(rows)
    a, b = rng.normal(0, 3, (rows, 4)), rng.normal(0, 3, (70, 4))
    a[0] = b[5]  # an exact hit, whose rounding error the clamp at 0 meets
    expected = one_expression_squared_distances(a, b)
    np.testing.assert_array_equal(squared_distances(a, b), expected)
    for scale in (0.3, 2.0, 1.1e-154):
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(rbf_kernel(a, b, scale), np.exp(-expected / (2.0 * scale**2)))


@pytest.mark.parametrize("rows", BLOCKED_ROWS)
def test_blocked_knn_scores_equal_the_full_sort_bitwise(rows):
    # grid points tie at many distances; the stable sort picks the lower training row
    rng = np.random.default_rng(rows)
    points = rng.integers(0, 4, (90, 2)).astype(float)
    model = knn_train(dataset(points, np.arange(90) % 4), k=7).payload
    queries = rng.integers(0, 4, (rows, 2)) + rng.choice([0.0, 0.5], (rows, 2))
    np.testing.assert_array_equal(model.scores(queries), full_sort_knn_scores(model, queries))


def test_knn_scoring_holds_one_distance_array():
    # the uncapped acceptance corpus through PCA: 1911 held-out against 3822 training rows
    n_test, n_train = 1911, 3822
    rng = np.random.default_rng(3)
    model = knn_train(dataset(rng.normal(0, 1, (n_train, 2)), np.arange(n_train) % 7), k=10).payload
    queries = rng.normal(0, 1, (n_test, 2))
    tracemalloc.start()
    try:
        model.scores(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * n_test * n_train * 8


# --- decision tree ----------------------------------------------------------------

def test_tree_single_split_on_separable_1d():
    data = dataset([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1])
    model = tree_train(data, max_splits=10)
    tree = model.payload
    assert tree.feature[0] == 0 and 2.0 < tree.threshold[0] < 8.0
    assert (tree.feature[[tree.left[0], tree.right[0]]] == -1).all()
    got, _ = predict(model, data.points)
    np.testing.assert_array_equal(got, data.labels)


def test_tree_split_between_adjacent_floats_separates_them():
    # the midpoint of 1 + 2^-52 and 1 + 2^-51 rounds to the upper value; the threshold must stay below it
    data = dataset([1.0 + 2.0**-52, 1.0 + 2.0**-51, 0.0], [0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = tree_train(data, max_splits=100)
    assert model.payload.feature.size == 5
    assert not np.isnan(model.payload.fractions).any()
    np.testing.assert_array_equal(predict(model, data.points)[0], data.labels)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tree_split_between_huge_values_does_not_overflow(sign):
    # the midpoint of 1e308 and 1.7e308 overflows to inf; the threshold must stay between the two
    data = dataset([sign * 1e308, sign * 1.7e308, 0.0], [0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = tree_train(data, max_splits=100)
    assert model.payload.feature.size == 5
    assert np.isfinite(model.payload.threshold).all()
    np.testing.assert_array_equal(predict(model, data.points)[0], data.labels)


def test_tree_pure_data_is_single_leaf():
    model = tree_train(dataset([1.0, 2.0, 3.0], [0, 0, 0]))
    assert model.payload.feature.tolist() == [-1]


def _walk(tree, point):
    """Scalar oracle: one query down the node arrays, ties on a threshold go left."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if point[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.fractions[node]


def test_tree_scores_match_node_by_node_walk():
    rng = np.random.default_rng(8)
    points = rng.normal(0, 1, (200, 2))
    labels = (points[:, 0] * points[:, 1] > 0).astype(int) + (rng.random(200) < 0.3)
    data = dataset(points, labels)
    bag = bagged_trees_train(data, n_trees=5, seed=2).payload
    for tree in (tree_train(data, max_splits=100).payload, *bag.trees):
        inner = np.flatnonzero(tree.feature >= 0)
        assert inner.size > 10
        on_threshold = rng.normal(0, 1, (inner.size, 2))
        on_threshold[np.arange(inner.size), tree.feature[inner]] = tree.threshold[inner]
        queries = np.vstack([rng.normal(0, 1.5, (100, 2)), on_threshold])
        expected = np.vstack([_walk(tree, q) for q in queries])
        np.testing.assert_array_equal(tree.scores(queries), expected)


def test_tree_solves_xor_with_three_splits():
    data = dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
    model = tree_train(data, max_splits=3)
    got, _ = predict(model, data.points)
    np.testing.assert_array_equal(got, data.labels)


def test_tree_accuracy_nondecreasing_in_split_budget():
    rng = np.random.default_rng(3)
    points = rng.normal(0, 1, (120, 2))
    labels = (points.sum(axis=1) + 0.4 * rng.normal(size=120) > 0).astype(int)
    data = dataset(points, labels)
    accs = []
    for budget in (1, 2, 4, 8, 16, 32):
        got, _ = predict(tree_train(data, max_splits=budget), points)
        accs.append((got == labels).mean())
    assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))


# --- bagged trees ------------------------------------------------------------------

def test_one_tree_bag_is_grown_on_the_seeded_bootstrap_rows():
    rng = np.random.default_rng(4)
    points, labels = blobs(rng, spread=3.0)
    data = dataset(points, labels, train_mask=np.arange(labels.size) % 5 != 0)
    x, y = data.train_points, data.train_labels
    rows = np.random.default_rng(11).integers(0, y.size, y.size)
    (expected,) = grow_trees([(x[rows], y[rows])], data.class_count, max_splits=100, min_leaf=1)
    (tree,) = bagged_trees_train(data, n_trees=1, seed=11).payload.trees
    assert tree.feature.size > 3  # the overlapping blobs need more than one split
    for field in dataclasses.fields(expected):
        np.testing.assert_array_equal(getattr(tree, field.name), getattr(expected, field.name))


def test_bagging_vote_fractions_sum_to_one():
    rng = np.random.default_rng(5)
    points, labels = blobs(rng)
    model = bagged_trees_train(dataset(points, labels), n_trees=7, seed=1)
    _, scores = predict(model, rng.normal(3, 3, (20, 2)))
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)


def test_bagging_competitive_with_single_tree():
    rng = np.random.default_rng(6)
    points = rng.normal(0, 1, (200, 2))
    labels = (points[:, 0] * points[:, 1] > 0).astype(int)
    mask = np.arange(200) < 140
    data = dataset(points, labels, train_mask=mask)
    test_x, test_y = data.test_points, data.test_labels
    single_acc = (predict(tree_train(data), test_x)[0] == test_y).mean()
    for seed in range(10):
        bag = bagged_trees_train(data, n_trees=15, seed=seed)
        bag_acc = (predict(bag, test_x)[0] == test_y).mean()
        assert bag_acc >= single_acc - 0.05


def test_bagging_deterministic_given_seed():
    rng = np.random.default_rng(7)
    points, labels = blobs(rng)
    data = dataset(points, labels)
    queries = rng.normal(3, 3, (25, 2))
    a = predict(bagged_trees_train(data, n_trees=9, seed=11), queries)
    b = predict(bagged_trees_train(data, n_trees=9, seed=11), queries)
    np.testing.assert_array_equal(a[1], b[1])


# --- SVM ----------------------------------------------------------------------------

def test_svm_boundary_crosses_zero():
    data = dataset([-1.0, 1.0], [0, 1])
    model = svm_train(data, kernel_scale=1.0)
    labels, _ = predict(model, [[-0.1], [0.1]])
    assert labels[0] == 0 and labels[1] == 1


def test_svm_separable_blobs_train_accuracy():
    rng = np.random.default_rng(8)
    points, labels = blobs(rng, centers=((0, 0), (8, 8)))
    data = dataset(points, labels)
    model = svm_train(data)
    got, _ = predict(model, points)
    assert (got == labels).mean() == 1.0


def test_svm_dual_feasibility():
    rng = np.random.default_rng(9)
    points, labels = blobs(rng, n_per=30, centers=((0, 0), (4, 4), (8, 0)), spread=1.2)
    model = svm_train(dataset(points, labels), box_c=1.0)
    for _, _, svm in model.payload.problems:
        assert (svm.alphas >= -1e-12).all()
        assert (svm.alphas <= svm.box_c + 1e-12).all()
        assert abs((svm.alphas * svm.targets).sum()) <= 1e-6


def test_svm_multiclass_votes():
    rng = np.random.default_rng(10)
    points, labels = blobs(rng, n_per=25, centers=((0, 0), (6, 0), (3, 6)))
    model = svm_train(dataset(points, labels))
    got, scores = predict(model, np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 6.0]]))
    np.testing.assert_array_equal(got, [0, 1, 2])
    assert scores.shape == (3, 3)


# --- feed-forward network -------------------------------------------------------------

def test_ffnn_zero_weights_give_uniform_softmax():
    net = FeedForwardNet(
        w1=np.zeros((3, 4)), b1=np.zeros(4),
        w2=np.zeros((4, 4)), b2=np.zeros(4),
        w3=np.zeros((4, 5)), b3=np.zeros(5),
    )
    probs = net.forward(np.array([[1.0, -2.0, 0.5]]))
    np.testing.assert_allclose(probs, 0.2)


def test_ffnn_backprop_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = FeedForwardNet.initialized(3, (4, 3), 2, rng)
    x = rng.normal(0, 1, (3, 3))
    y = np.array([0, 1, 1])
    _, grads = net.loss_and_grads(x, y)

    h = 1e-5
    weights = (net.w1, net.b1, net.w2, net.b2, net.w3, net.b3)
    for weight, grad in zip(weights, grads):
        flat = weight.reshape(-1)
        numeric = np.zeros_like(flat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = net.loss_and_grads(x, y)[0]
            flat[idx] = orig - h
            down = net.loss_and_grads(x, y)[0]
            flat[idx] = orig
            numeric[idx] = (up - down) / (2 * h)
        rel = np.abs(grad.reshape(-1) - numeric) / np.maximum(1e-8, np.abs(numeric))
        assert rel.max() < 1e-4


def test_ffnn_learns_separable_blobs():
    rng = np.random.default_rng(12)
    points, labels = blobs(rng, centers=((0, 0), (5, 5)))
    data = dataset(points, labels)
    model = ffnn_train(data, hidden=(8, 4), epochs=200, lr=0.5, seed=0)
    got, _ = predict(model, points)
    assert (got == labels).mean() >= 0.95


def test_ffnn_deterministic_given_seed():
    rng = np.random.default_rng(13)
    points, labels = blobs(rng)
    data = dataset(points, labels)
    a = ffnn_train(data, epochs=20, seed=5)
    b = ffnn_train(data, epochs=20, seed=5)
    queries = rng.normal(3, 3, (10, 2))
    np.testing.assert_array_equal(predict(a, queries)[1], predict(b, queries)[1])


# --- shared contracts -------------------------------------------------------------------

def all_five(data, seed=0):
    return {
        "complex tree": train_by_name("complex tree", [data], [seed])[0],
        "weighted knn": train_by_name("weighted knn", [data], [seed], k=5)[0],
        "fine svm": train_by_name("fine svm", [data], [seed])[0],
        "feed forward": train_by_name("feed forward", [data], [seed], epochs=100)[0],
        "bagged trees": train_by_name("bagged trees", [data], [seed], n_trees=9)[0],
    }


def test_scores_are_finite_and_aligned_with_labels():
    rng = np.random.default_rng(14)
    points, labels = blobs(rng, n_per=30, centers=((0, 0), (7, 0), (3, 7)))
    data = dataset(points, labels)
    queries = rng.normal(3, 3, (20, 2))
    for name, model in all_five(data).items():
        got, scores = predict(model, queries)
        assert scores.shape == (20, 3), name
        assert np.isfinite(scores).all(), name
        np.testing.assert_array_equal(got, scores.argmax(axis=1), err_msg=name)


def test_label_permutation_equivariance():
    rng = np.random.default_rng(15)
    points, labels = blobs(rng, n_per=25, centers=((0, 0), (8, 0), (4, 8)))
    permutation = np.array([2, 0, 1])
    base = dataset(points, labels)
    permuted = dataset(points, permutation[labels])
    queries = rng.normal(4, 3, (30, 2))
    for name in ("complex tree", "weighted knn", "fine svm", "feed forward", "bagged trees"):
        before, _ = predict(train_by_name(name, [base], [3])[0], queries)
        after, _ = predict(train_by_name(name, [permuted], [3])[0], queries)
        np.testing.assert_array_equal(permutation[before], after, err_msg=name)


def test_dimension_mismatch_raises():
    rng = np.random.default_rng(16)
    points, labels = blobs(rng)
    model = knn_train(dataset(points, labels), k=3)
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((2, 5)))


@pytest.mark.parametrize(
    "name, trainer, params",
    [
        ("weighted knn", knn_train, {"k": 0}),
        ("complex tree", tree_train, {"min_leaf": 0}),
        ("bagged trees", bagged_trees_train, {"n_trees": 0}),
        ("bagged trees", bagged_trees_train, {"min_leaf": 0}),
        ("feed forward", ffnn_train, {"hidden": (4, 0)}),
        ("feed forward", ffnn_train, {"batch_size": 0}),
    ],
)
def test_trainer_and_spec_check_share_range_rules(name, trainer, params):
    (key, value), = params.items()
    message = re.escape(f"{key} must be >= 1, got {value!r}")
    with pytest.raises(ValueError, match=f"classifier '{name}' parameter {message}"):
        check_classifier(name, params)
    with pytest.raises(ValueError, match=message):
        trainer(dataset([0.0, 1.0], [0, 1]), **params)


@pytest.mark.parametrize(
    "name, trainer, params, message",
    [
        ("fine svm", svm_train, {"kernel_scale": 0.0}, "kernel_scale must be > 0, got 0.0"),
        ("fine svm", svm_train, {"box_c": -1.0}, "box_c must be > 0, got -1.0"),
        ("fine svm", svm_train, {"box_c": float("nan")}, "box_c must be > 0, got nan"),
        ("feed forward", ffnn_train, {"lr": 0.0}, "lr must be > 0, got 0.0"),
        ("feed forward", ffnn_train, {"epochs": -1}, "epochs must be >= 0, got -1"),
        ("complex tree", tree_train, {"max_splits": -3}, "max_splits must be >= 0, got -3"),
        ("bagged trees", bagged_trees_train, {"max_splits": -1}, "max_splits must be >= 0, got -1"),
        ("fine svm", svm_train, {"kernel_scale": 1e-200},
         "kernel_scale must make 2*kernel_scale**2 a finite normal float, got 1e-200"),
        ("fine svm", svm_train, {"kernel_scale": 1e200},
         "kernel_scale must make 2*kernel_scale**2 a finite normal float, got 1e+200"),
        ("fine svm", svm_train, {"box_c": float("inf")}, "box_c must be finite, got inf"),
        ("feed forward", ffnn_train, {"lr": float("inf")}, "lr must be finite, got inf"),
        ("fine svm", svm_train, {"kernel_scale": float("inf")}, "kernel_scale must be finite, got inf"),
    ],
)
def test_rates_scales_and_budgets_are_range_checked(name, trainer, params, message):
    with pytest.raises(ValueError, match=f"classifier '{name}' parameter {re.escape(message)}"):
        check_classifier(name, params)
    with pytest.raises(ValueError, match=re.escape(message)):
        trainer(dataset([0.0, 1.0], [0, 1]), **params)


@pytest.mark.parametrize("kernel_scale", [1.1e-154, 1e153])
def test_svm_at_the_extreme_legal_kernel_scales_scores_finitely(kernel_scale):
    data = dataset([0.0, 0.1, 1.0, 1.1], [0, 0, 1, 1])
    _, scores = predict(svm_train(data, kernel_scale=kernel_scale), [[0.05], [1.05], [7.0]])
    assert np.isfinite(scores).all()


def test_zero_split_budget_and_zero_epochs_stay_legal():
    data = dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
    check_classifier("complex tree", {"max_splits": 0})
    check_classifier("feed forward", {"epochs": 0})
    assert tree_train(data, max_splits=0).class_count == 2
    assert ffnn_train(data, epochs=0).class_count == 2


# --- test-only oracles: one node scanned at a time, one net stepped at a time --------

def oracle_best_split(x, y, class_count, min_leaf):
    """Largest Gini-impurity decrease over all axis-aligned splits of one node, or None."""
    n = y.size
    counts = np.bincount(y, minlength=class_count)
    parent = (0.0 if n == 0 else float(1.0 - ((counts / n) ** 2).sum())) * n
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
        admissible = (values[:-1] != values[1:]) & (left_sizes >= min_leaf) & (right_sizes >= min_leaf)
        decrease[~admissible] = -np.inf
        i = int(decrease.argmax())
        if np.isfinite(decrease[i]) and (best is None or decrease[i] > best[0]):
            with np.errstate(over="ignore"):
                midpoint = (values[i] + values[i + 1]) / 2.0
            best = (float(decrease[i]), feature, midpoint if values[i] <= midpoint < values[i + 1] else values[i])
    return best


def oracle_grow_tree(x, y, class_count, max_splits, min_leaf) -> DecisionTreeModel:
    """Best-first CART growth of one tree, one heap push per scanned node."""
    nodes, fractions = [], []
    order = itertools.count()
    heap = []

    def add_leaf(idx):
        nodes.append([-1, 0.0, -1, -1])
        fractions.append(np.bincount(y[idx], minlength=class_count) / idx.size)
        split = oracle_best_split(x[idx], y[idx], class_count, min_leaf)
        if split is not None:
            heapq.heappush(heap, (-split[0], next(order), len(nodes) - 1, idx, split[1], split[2]))
        return len(nodes) - 1

    add_leaf(np.arange(y.size))
    splits = 0
    while heap and splits < max_splits:
        _, _, node, idx, feature, threshold = heapq.heappop(heap)
        goes_left = x[idx, feature] <= threshold
        nodes[node] = [feature, threshold, add_leaf(idx[goes_left]), add_leaf(idx[~goes_left])]
        splits += 1
    feature, threshold, left, right = (np.array(column) for column in zip(*nodes))
    return DecisionTreeModel(feature, threshold, left, right, np.vstack(fractions))


def oracle_loss_and_grads(net, x, labels):
    """Cross-entropy and gradients of one unstacked net on one batch."""
    n = x.shape[0]
    sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
    a1 = sigmoid(x @ net.w1 + net.b1)
    a2 = sigmoid(a1 @ net.w2 + net.b2)
    z = a2 @ net.w3 + net.b3
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean())
    delta3 = probs.copy()
    delta3[np.arange(n), labels] -= 1.0
    delta3 /= n
    delta2 = (delta3 @ net.w3.T) * a2 * (1.0 - a2)
    delta1 = (delta2 @ net.w2.T) * a1 * (1.0 - a1)
    return loss, (x.T @ delta1, delta1.sum(axis=0), a1.T @ delta2, delta2.sum(axis=0), a2.T @ delta3, delta3.sum(axis=0))


def oracle_ffnn_train(data, hidden, epochs, lr, seed, batch_size) -> FeedForwardNet:
    """Seeded mini-batch descent, one net and one batch per step."""
    x, y = data.train_points, data.train_labels
    rng = np.random.default_rng(seed)
    net = FeedForwardNet.initialized(x.shape[1], hidden, data.class_count, rng)
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            batch = order[start : start + batch_size]
            loss, grads = oracle_loss_and_grads(net, x[batch], y[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss}")
            for weight, grad in zip(net.weights, grads):
                weight -= lr * grad
    return net


def assert_same_arrays(got, expected, fields):
    for name in fields:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


TREE_FIELDS = [f.name for f in dataclasses.fields(DecisionTreeModel)]
NET_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


@st.composite
def tree_samples(draw):
    """Class count and 1-4 samples of unequal sizes; grid values give ties and duplicate rows."""
    classes = draw(st.integers(2, 9))
    columns = draw(st.integers(1, 3))
    # half-precision values keep every midpoint threshold exact and strictly between its neighbours
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0]) if draw(st.booleans()) else st.floats(-100, 100, width=16)
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        x = draw(arrays(np.float64, (n, columns), elements=values))
        y = draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
        samples.append((x, y))
    return classes, samples


@settings(max_examples=60, deadline=None)
@given(tree_samples(), st.integers(1, 100), st.integers(1, 3), st.sampled_from([1, 50, trees.SEARCH_BATCH]))
def test_lockstep_trees_equal_the_per_node_oracle_and_solo_growth(case, budget, min_leaf, search_batch):
    classes, samples = case
    # a small search batch splits each round's nodes into several batches
    with mock.patch.object(trees, "SEARCH_BATCH", search_batch):
        grown = grow_trees(samples, classes, budget, min_leaf)
    assert len(grown) == len(samples)
    for (x, y), tree in zip(samples, grown):
        assert_same_arrays(tree, oracle_grow_tree(x, y, classes, budget, min_leaf), TREE_FIELDS)
        assert_same_arrays(tree, grow_trees([(x, y)], classes, budget, min_leaf)[0], TREE_FIELDS)


def test_bagged_trees_equal_the_oracle_on_each_bootstrap_sample():
    rng = np.random.default_rng(17)
    points, labels = blobs(rng, n_per=30, centers=((0, 0), (2, 1), (1, 2)), spread=1.5)
    data = dataset(np.round(points, 1), labels)  # rounding makes ties
    draws = np.random.default_rng(4)
    rows = [draws.integers(0, labels.size, labels.size) for _ in range(6)]
    bag = bagged_trees_train(data, n_trees=6, seed=4, max_splits=40, min_leaf=2).payload
    for tree, idx in zip(bag.trees, rows):
        expected = oracle_grow_tree(data.points[idx], data.labels[idx], 3, 40, 2)
        assert_same_arrays(tree, expected, TREE_FIELDS)


def ffnn_group(seed, count, n, columns, classes):
    """count datasets of one train shape and class count."""
    rng = np.random.default_rng(seed)
    return [
        dataset(rng.normal(0, 2, (n, columns)), rng.permutation(np.arange(n) % classes))
        for _ in range(count)
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    n=st.integers(4, 30),
    columns=st.integers(1, 3),
    classes=st.integers(2, 4),
    hidden=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    epochs=st.integers(0, 3),
    batch_size=st.integers(1, 8),
)
def test_lockstep_nets_equal_the_per_step_oracle_and_solo_runs(seed, count, n, columns, classes, hidden, epochs, batch_size):
    datasets = ffnn_group(seed, count, n, columns, classes)
    seeds = [seed + i for i in range(count)]
    models = ffnn_train_many(datasets, seeds, hidden=hidden, epochs=epochs, lr=0.7, batch_size=batch_size)
    for data, net_seed, model in zip(datasets, seeds, models):
        expected = oracle_ffnn_train(data, hidden, epochs, 0.7, net_seed, batch_size)
        assert_same_arrays(model.payload, expected, NET_FIELDS)
        solo = ffnn_train(data, hidden=hidden, epochs=epochs, lr=0.7, seed=net_seed, batch_size=batch_size)
        assert_same_arrays(model.payload, solo.payload, NET_FIELDS)


def test_ffnn_loss_turning_nan_raises_nonfinite_loss():
    rng = np.random.default_rng(18)
    points, labels = blobs(rng, n_per=20)
    with warnings.catch_warnings(), pytest.raises(NonFiniteLoss, match="^loss became nan$"):
        warnings.simplefilter("error")  # a diverging net prints no RuntimeWarning
        ffnn_train(dataset(points, labels), lr=1e308)


def test_nonfinite_loss_fails_only_its_net_in_a_lockstep_group():
    datasets = ffnn_group(19, 3, 24, 2, 3)
    poisoned = datasets[1].points.copy()
    poisoned[5, 0] = np.nan  # the net's loss is nan at the first batch holding row 5
    datasets[1] = dataset(poisoned, datasets[1].labels)
    models = train_by_name("feed forward", datasets, [7, 8, 9], epochs=20, batch_size=5)
    assert isinstance(models[1], NonFiniteLoss) and str(models[1]) == "loss became nan"
    for data, seed, model in zip(datasets[::2], (7, 9), models[::2]):
        assert_same_arrays(model.payload, ffnn_train(data, epochs=20, seed=seed, batch_size=5).payload, NET_FIELDS)


def test_train_by_name_groups_lockstep_datasets_by_shape_and_returns_them_in_order():
    short, long = ffnn_group(20, 2, 12, 2, 2), ffnn_group(21, 1, 15, 2, 2)
    datasets = [short[0], long[0], short[1]]
    for name in ("complex tree", "feed forward"):
        models = train_by_name(name, datasets, [1, 2, 3], **({"epochs": 5} if name == "feed forward" else {}))
        for data, seed, model in zip(datasets, (1, 2, 3), models):
            alone = train_by_name(name, [data], [seed], **({"epochs": 5} if name == "feed forward" else {}))[0]
            assert model.input_dim == data.points.shape[1]
            np.testing.assert_array_equal(predict(model, data.points)[1], predict(alone, data.points)[1])


def test_train_by_name_returns_each_datasets_pipeline_error():
    small, large = dataset([0.0, 1.0], [0, 1]), dataset([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1])
    models = train_by_name("weighted knn", [small, large], [0, 0], k=3)
    assert isinstance(models[0], KTooLarge)
    assert predict(models[1], [[0.5]])[0].shape == (1,)
