import dataclasses
import re

import numpy as np
import pytest

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
from voxbench.classifiers.trees import grow_tree
from voxbench.errors import DimensionMismatch, KTooLarge


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


# --- decision tree ----------------------------------------------------------------

def test_tree_single_split_on_separable_1d():
    data = dataset([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1])
    model = tree_train(data, max_splits=10)
    tree = model.payload
    assert tree.feature[0] == 0 and 2.0 < tree.threshold[0] < 8.0
    assert (tree.feature[[tree.left[0], tree.right[0]]] == -1).all()
    got, _ = predict(model, data.points)
    np.testing.assert_array_equal(got, data.labels)


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
    expected = grow_tree(x[rows], y[rows], data.class_count, max_splits=100, min_leaf=1)
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
        "complex tree": train_by_name("complex tree", data, seed),
        "weighted knn": train_by_name("weighted knn", data, seed, k=5),
        "fine svm": train_by_name("fine svm", data, seed),
        "feed forward": train_by_name("feed forward", data, seed, epochs=100),
        "bagged trees": train_by_name("bagged trees", data, seed, n_trees=9),
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
        before, _ = predict(train_by_name(name, base, seed=3), queries)
        after, _ = predict(train_by_name(name, permuted, seed=3), queries)
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
