import re
import tracemalloc
import warnings

import numpy as np
import pytest

from voxbench import reduction
from voxbench.errors import DataTooSmall, DegenerateData, DimensionMismatch, NonFiniteCost, PerplexityUnreachable
from voxbench.reduction import (
    DEFAULT_LEARNING_RATE,
    INIT_STD,
    LATE_MOMENTUM,
    MAX_BANDWIDTH_STEPS,
    MOMENTUM,
    MOMENTUM_SWITCH_ITER,
    PERPLEXITY_TOL,
    REDUCER_NAMES,
    ReducerSpec,
    SneConfig,
    _gaussian_step,
    _gaussian_terms,
    _neg_entropy,
    _student_t_q,
    _student_t_step,
    calibrated_conditionals,
    default_learning_rate,
    default_perplexity,
    is_transductive,
    pairwise_sq_distances,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    reduce_for_pipeline,
    sne_conditional_q,
    sne_cost,
    sne_fit,
    sne_gradient,
    sne_p_matrix,
)


# --- PCA ----------------------------------------------------------------------

def test_pca_collinear_points():
    model = pca_fit(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), target_dim=2)
    np.testing.assert_allclose(model.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_axis_aligned_data():
    rng = np.random.default_rng(0)
    data = np.column_stack([rng.normal(0, 5, 200), rng.normal(0, 1, 200)])
    model = pca_fit(data, target_dim=2)
    np.testing.assert_allclose(np.abs(model.components), np.eye(2), atol=0.05)
    # sign convention: the dominant entry of each row is positive
    assert model.components[0, np.abs(model.components[0]).argmax()] > 0
    assert model.components[1, np.abs(model.components[1]).argmax()] > 0


def test_pca_rejects_identical_rows():
    with pytest.raises(DegenerateData):
        pca_fit(np.tile([1.0, 2.0, 3.0], (5, 1)), target_dim=1)


def test_pca_orthonormal_components():
    rng = np.random.default_rng(1)
    model = pca_fit(rng.normal(0, 1, (100, 6)), target_dim=4)
    np.testing.assert_allclose(model.components @ model.components.T, np.eye(4), atol=1e-8)


def test_pca_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(2)
    data = rng.normal(0, 1, (80, 5)) @ rng.normal(0, 1, (5, 5))
    model = pca_fit(data, target_dim=3)
    centered = data - data.mean(axis=0)
    trace = np.trace(centered.T @ centered / (len(data) - 1))
    assert model.eigenvalues.sum() == pytest.approx(trace, abs=1e-8)


def test_pca_transform_decorrelates_training_data():
    rng = np.random.default_rng(3)
    data = rng.normal(0, 1, (150, 4)) @ rng.normal(0, 1, (4, 4))
    model = pca_fit(data, target_dim=4)
    projected = pca_transform(model, data)
    cov = np.cov(projected, rowvar=False)
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() < 1e-8


def test_pca_transform_of_mean_is_zero():
    rng = np.random.default_rng(4)
    model = pca_fit(rng.normal(2, 1, (50, 3)), target_dim=2)
    np.testing.assert_allclose(pca_transform(model, model.mean_vector), 0.0, atol=1e-12)


def test_pca_full_rank_roundtrip():
    rng = np.random.default_rng(5)
    data = rng.normal(0, 1, (60, 4))
    model = pca_fit(data, target_dim=4)
    rebuilt = pca_inverse_transform(model, pca_transform(model, data))
    np.testing.assert_allclose(rebuilt, data, atol=1e-8)


def test_pca_transform_is_affine():
    rng = np.random.default_rng(6)
    model = pca_fit(rng.normal(0, 1, (40, 5)), target_dim=3)
    x, z = rng.normal(0, 1, (2, 5))
    for alpha in (0.0, 0.3, 1.0):
        blend = pca_transform(model, alpha * x + (1 - alpha) * z)
        combo = alpha * pca_transform(model, x) + (1 - alpha) * pca_transform(model, z)
        np.testing.assert_allclose(blend, combo, atol=1e-10)


def test_pca_dimension_mismatch():
    rng = np.random.default_rng(7)
    model = pca_fit(rng.normal(0, 1, (20, 3)), target_dim=2)
    with pytest.raises(DimensionMismatch):
        pca_transform(model, np.ones((4, 5)))


# --- neighbor probabilities ----------------------------------------------------

def test_two_point_joint_probability():
    cond = sne_conditional_q(np.array([[0.0], [3.0]]))
    np.testing.assert_allclose(cond, [[0, 1], [1, 0]])
    joint = _gaussian_terms(cond)[0] / 4  # P + P^T over 2n, as the Student-t fit reads it
    assert joint[0, 1] == pytest.approx(0.5)
    assert joint[1, 0] == pytest.approx(0.5)


def test_p_matrix_is_a_symmetric_distribution():
    rng = np.random.default_rng(8)
    p = sne_p_matrix(rng.normal(0, 1, (30, 5)), perplexity=8.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    assert (np.diag(p) == 0).all()


def test_equidistant_points_get_equal_probabilities():
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    p = sne_p_matrix(triangle, perplexity=2.0)
    off = p[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, off[0], atol=1e-12)


def test_calibration_hits_requested_perplexity():
    rng = np.random.default_rng(9)
    data = rng.normal(0, 1, (40, 6))
    target = 12.0
    cond = calibrated_conditionals(data, target)
    np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
    for i in range(40):
        row = cond[i][cond[i] > 0]
        perp = 2.0 ** float(-(row * np.log2(row)).sum())
        assert perp == pytest.approx(target, abs=1e-3)


def test_duplicate_heavy_data_is_unreachable():
    data = np.zeros((5, 3))
    with pytest.raises(PerplexityUnreachable):
        calibrated_conditionals(data, perplexity=2.0)


def per_row_calibration(data, perplexity):
    """calibrated_conditionals one row at a time: the reference for the batched search.

    Returns the conditional matrix and the number of steps each row took.
    """
    d2 = pairwise_sq_distances(data)
    n = d2.shape[0]
    cond = np.zeros((n, n))
    steps = np.zeros(n, dtype=int)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = d2[i, others[i]]

        def row_p(beta):
            logits = -row * beta
            logits -= logits.max()
            w = np.exp(logits)
            return w / w.sum()

        beta, lo, hi = 1.0, 0.0, np.inf
        for step in range(MAX_BANDWIDTH_STEPS):
            p = row_p(beta)
            nz = p[p > 0]
            diff = 2.0 ** float(-(nz * np.log2(nz)).sum()) - perplexity
            if abs(diff) <= PERPLEXITY_TOL:
                break
            if diff > 0:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == 0.0 else (beta + lo) / 2.0
        else:
            raise PerplexityUnreachable(f"row {i}")
        cond[i, others[i]] = row_p(beta)
        steps[i] = step
    return cond, steps


def mixed_scale_rows(n, seed):
    """Points whose scales span e^-4..e^4, so rows need different bandwidth searches."""
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (n, 6)) * np.exp(rng.uniform(-4, 4, (n, 1)))


@pytest.mark.parametrize("n, perplexity", [(3, 1.5), (40, 12.0), (300, 30.0)])
def test_batched_calibration_equals_per_row_bisection(n, perplexity):
    data = mixed_scale_rows(n, seed=n)
    expected, steps = per_row_calibration(data, perplexity)
    assert len(set(steps)) > 1  # rows leave the batched search at different steps
    np.testing.assert_array_equal(calibrated_conditionals(data, perplexity), expected)


def test_unreachable_perplexity_names_first_failing_row():
    # the last point is equidistant from the other three, so its perplexity is 3 at any bandwidth
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PerplexityUnreachable, match=r"^row 3: "):
        calibrated_conditionals(data, perplexity=2.0)


def test_unreachable_perplexity_in_a_later_block_names_its_row(monkeypatch):
    monkeypatch.setattr(reduction, "SNE_BLOCK_ROWS", 2)  # row 3 lies in the second block
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PerplexityUnreachable, match=r"^row 3: "):
        calibrated_conditionals(data, perplexity=2.0)


@pytest.mark.parametrize("block_rows", [1, 7, 40])
def test_calibration_and_terms_in_row_blocks_equal_whole_matrix_forms(monkeypatch, block_rows):
    data = mixed_scale_rows(40, seed=block_rows)
    expected, _ = per_row_calibration(data, 12.0)
    monkeypatch.setattr(reduction, "SNE_BLOCK_ROWS", block_rows)
    p = calibrated_conditionals(data, 12.0)
    np.testing.assert_array_equal(p, expected)
    positive = expected[expected > 0]
    p_sym, p_rows, p_cols, p_sym_rows, neg_entropy = _gaussian_terms(p)
    np.testing.assert_array_equal(p_sym, expected + expected.T)
    np.testing.assert_array_equal(p_rows, expected.sum(axis=1))
    np.testing.assert_array_equal(p_cols, expected.sum(axis=0))
    np.testing.assert_array_equal(p_sym_rows, (expected + expected.T).sum(axis=1))
    # summed block by block, so only the rounding of the sum differs
    assert neg_entropy == pytest.approx(np.dot(positive, np.log(positive)), rel=1e-13)


def test_dense_fit_holds_at_most_two_n_by_n_arrays():
    n = 1260  # rows per extractor of the acceptance corpus
    data = np.random.default_rng(25).normal(0, 1, (n, 13))
    tracemalloc.start()
    try:
        sne_fit(data, SneConfig(max_iter=2))  # every buffer of the iterations exists from the first one
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * n * n * 8


def test_student_t_fit_holds_under_two_and_a_half_n_by_n_arrays():
    n = 1260  # rows per extractor of the acceptance corpus
    data = np.random.default_rng(27).normal(0, 1, (n, 13))
    tracemalloc.start()
    try:
        sne_fit(data, SneConfig(max_iter=3, kernel="student-t"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # P + P^T, written over P, and row blocks of the kernel
    assert peak < 2.5 * n * n * 8


def test_calibration_raises_no_runtime_warning():
    data = mixed_scale_rows(60, seed=1)  # wide searches underflow some probabilities to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cond = calibrated_conditionals(data, 10.0)
    assert (cond[~np.eye(60, dtype=bool)] == 0).any()


@pytest.mark.parametrize("fit", [lambda x, perp: sne_fit(x, SneConfig(perplexity=perp)), sne_p_matrix])
def test_sne_rejects_data_too_small_for_it(fit):
    rng = np.random.default_rng(20)
    with pytest.raises(DataTooSmall, match="need at least three rows"):
        fit(rng.normal(0, 1, (2, 3)), 1.0)
    with pytest.raises(PerplexityUnreachable, match="perplexity must be smaller than the number of rows"):
        fit(rng.normal(0, 1, (10, 3)), 10.0)


def test_default_perplexity_is_at_least_one():
    assert [default_perplexity(n) for n in (3, 4, 7, 10, 91, 92, 1000)] == [1.0, 1.0, 2.0, 3.0, 30.0, 30.0, 30.0]


@pytest.mark.parametrize("seed", range(5))
def test_default_fit_on_three_rows_converges(seed):
    emb = sne_fit(np.random.default_rng(seed).normal(0, 1, (3, 4)), SneConfig(max_iter=20, seed=seed))
    assert emb.coords.shape == (3, 2) and np.isfinite(emb.cost_trace).all()


# --- embedding optimizer -------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    data = rng.normal(0, 1, (10, 4))
    p = calibrated_conditionals(data, perplexity=3.0)
    y = rng.normal(0, 1.0, (10, 2))
    analytic = sne_gradient(p, sne_conditional_q(y), y)

    h = 1e-5
    numeric = np.zeros_like(y)
    for i in range(10):
        for j in range(2):
            plus, minus = y.copy(), y.copy()
            plus[i, j] += h
            minus[i, j] -= h
            numeric[i, j] = (
                sne_cost(p, sne_conditional_q(plus)) - sne_cost(p, sne_conditional_q(minus))
            ) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    assert rel.max() < 1e-4


def test_gradient_zero_for_two_point_embedding():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, 0.0], [5.0, 1.0]])
    np.testing.assert_allclose(sne_gradient(p, sne_conditional_q(y), y), 0.0, atol=1e-12)


def test_cost_is_nonnegative_at_optimum_shape():
    rng = np.random.default_rng(11)
    data = rng.normal(0, 1, (15, 3))
    p = calibrated_conditionals(data, 4.0)
    assert sne_cost(p, sne_conditional_q(rng.normal(0, 1, (15, 2)))) >= 0


def test_fit_decreases_cost():
    rng = np.random.default_rng(12)
    data = rng.normal(0, 1, (25, 4))
    emb = sne_fit(data, SneConfig(perplexity=8.0, seed=1))
    assert emb.cost_trace[-1] < emb.cost_trace[0]
    assert emb.final_cost == emb.cost_trace[-1]
    assert np.isfinite(emb.coords).all()


def test_fit_separates_two_clusters():
    rng = np.random.default_rng(13)
    data = np.vstack([rng.normal(0, 1, (20, 5)), rng.normal(8, 1, (20, 5))])
    emb = sne_fit(data, SneConfig(perplexity=10.0, seed=2))
    a, b = emb.coords[:20], emb.coords[20:]
    normal = b.mean(axis=0) - a.mean(axis=0)
    midpoint = (a.mean(axis=0) + b.mean(axis=0)) / 2
    assert ((a - midpoint) @ normal < 0).all()
    assert ((b - midpoint) @ normal > 0).all()


def test_fit_is_deterministic():
    rng = np.random.default_rng(14)
    data = rng.normal(0, 1, (20, 3))
    config = SneConfig(perplexity=6.0, seed=42)
    first = sne_fit(data, config)
    second = sne_fit(data, config)
    np.testing.assert_array_equal(first.coords, second.coords)
    np.testing.assert_array_equal(first.cost_trace, second.cost_trace)


def test_gaussian_fit_equals_plain_loop_over_public_kernels():
    rng = np.random.default_rng(21)
    data = rng.normal(0, 1, (30, 4))
    config = SneConfig(perplexity=6.0, seed=4, max_iter=MOMENTUM_SWITCH_ITER + 20)
    p = calibrated_conditionals(data, config.perplexity)
    y = np.random.default_rng(config.seed).normal(0.0, INIT_STD, size=(30, config.target_dim))
    velocity = np.zeros_like(y)
    trace = []
    for it in range(config.max_iter):
        q = sne_conditional_q(y)
        trace.append(sne_cost(p, q))
        momentum = MOMENTUM if it < MOMENTUM_SWITCH_ITER else LATE_MOMENTUM
        velocity = momentum * velocity - config.learning_rate * sne_gradient(p, q, y)
        y = y + velocity
    emb = sne_fit(data, config)
    # the fit takes the same KL and gradient from the row normalisers and three products, so only the rounding differs
    np.testing.assert_allclose(emb.coords, y, rtol=0, atol=1e-12)
    np.testing.assert_allclose(emb.cost_trace, trace, rtol=1e-12)


def _oracle_cases():
    rng = np.random.default_rng(23)
    for n in (3, 30, 294):
        yield f"n={n}", rng.normal(0, 1, (n, 5)), rng.normal(0, 2, (n, 2))
    data, y = rng.normal(0, 1, (30, 4)), rng.normal(0, 2, (30, 2))
    data[7], y[7] = data[3], y[3]
    yield "duplicated point", data, y
    # far enough that the other rows' q of it underflows, near enough that its own row's q does not
    data, y = rng.normal(0, 1, (30, 4)), rng.normal(0, 0.5, (30, 2))
    data[-1] += 1e3
    y[-1] = [60.0, 0.0]
    yield "far point", data, y
    # rows per extractor of the acceptance corpus
    yield "n=1260", rng.normal(0, 1, (1260, 5)), rng.normal(0, 2, (1260, 2))


@pytest.mark.parametrize("case, data, y", [pytest.param(*case, id=case[0]) for case in _oracle_cases()])
def test_gaussian_step_equals_cost_and_gradient_oracles(case, data, y):
    p = calibrated_conditionals(data, default_perplexity(len(data)))
    q = sne_conditional_q(y)
    if case == "far point":  # every other row's q of the far point underflows to 0
        assert (q[:-1, -1] == 0).all()
    expected_cost, expected_grad = sne_cost(p, q), sne_gradient(p, q, y)
    cost, grad = _gaussian_step(y, _gaussian_terms(p), np.empty_like(p))
    assert abs(cost - expected_cost) <= 1e-11 * abs(expected_cost)
    np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=1e-11 * np.abs(expected_grad).max())


@pytest.mark.parametrize("case, data, y", [pytest.param(*case, id=case[0]) for case in _oracle_cases()])
def test_student_t_step_equals_cost_and_gradient_oracles(case, data, y):
    cond = calibrated_conditionals(data, default_perplexity(len(data)))
    p = sne_p_matrix(data)
    q, w = _student_t_q(pairwise_sq_distances(y))
    m = (p - q) * w
    expected_cost, expected_grad = sne_cost(p, q), 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)
    s = _gaussian_terms(cond)[0]
    cost, grad = _student_t_step(y, s, _neg_entropy(s))
    assert abs(cost - expected_cost) <= 1e-12 * abs(expected_cost)
    np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=1e-12 * np.abs(expected_grad).max())


def test_student_t_fit_equals_plain_loop_over_its_kernel():
    rng = np.random.default_rng(24)
    data = np.vstack([rng.normal(0, 1, (15, 4)), rng.normal(6, 1, (15, 4))])
    config = SneConfig(perplexity=8.0, seed=3, kernel="student-t", learning_rate=30.0,
                       max_iter=MOMENTUM_SWITCH_ITER + 20)
    s = _gaussian_terms(calibrated_conditionals(data, config.perplexity))[0]
    y = np.random.default_rng(config.seed).normal(0.0, INIT_STD, size=(30, config.target_dim))
    velocity = np.zeros_like(y)
    trace = []
    for it in range(config.max_iter):
        cost, grad = _student_t_step(y, s, _neg_entropy(s))
        trace.append(cost)
        momentum = MOMENTUM if it < MOMENTUM_SWITCH_ITER else LATE_MOMENTUM
        velocity = momentum * velocity - config.learning_rate * grad
        y = y + velocity
    emb = sne_fit(data, config)
    np.testing.assert_array_equal(emb.coords, y)
    np.testing.assert_array_equal(emb.cost_trace, trace)


def test_fit_detects_divergence():
    rng = np.random.default_rng(15)
    data = rng.normal(0, 1, (20, 3))
    with pytest.raises(NonFiniteCost):
        sne_fit(data, SneConfig(perplexity=6.0, learning_rate=1e6, seed=0))


def test_student_t_kernel_also_descends():
    rng = np.random.default_rng(16)
    data = np.vstack([rng.normal(0, 1, (15, 4)), rng.normal(6, 1, (15, 4))])
    emb = sne_fit(data, SneConfig(perplexity=8.0, seed=3, kernel="student-t", learning_rate=30.0))
    assert emb.cost_trace[-1] < emb.cost_trace[0]


def test_student_t_fit_at_default_settings_separates_three_blobs():
    labels = np.repeat(np.arange(3), 100)
    data = np.random.default_rng(28).normal(0, 1, (300, 8)) + 10.0 * np.eye(3, 8)[labels]
    out, info = reduce_for_pipeline(data, np.ones(300, bool), "sne", config=SneConfig(kernel="student-t"))
    assert info["learning_rate"] == default_learning_rate(300) == 25.0
    d2 = pairwise_sq_distances(out)
    np.fill_diagonal(d2, np.inf)
    assert (labels[d2.argmin(axis=1)] == labels).mean() >= 0.95  # leave-one-out 1-NN; 0.82 at a rate of 0.2


@pytest.mark.parametrize(
    "spec, rate",
    [(ReducerSpec("sne"), DEFAULT_LEARNING_RATE), (ReducerSpec("pca"), DEFAULT_LEARNING_RATE),
     (ReducerSpec("pca", learning_rate=DEFAULT_LEARNING_RATE), DEFAULT_LEARNING_RATE),  # as the grid block prints it
     (ReducerSpec("sne", kernel="student-t"), None), (ReducerSpec("sne", kernel="student-t", learning_rate=50.0), 50.0)],
)
def test_unset_learning_rate_is_the_gaussian_default_or_set_at_fit_time(spec, rate):
    # the report's grid block prints spec.learning_rate
    assert spec.learning_rate == rate and spec.sne_config(seed=0).learning_rate == rate


# --- pipeline glue --------------------------------------------------------------

def test_pipeline_pca_ignores_test_rows_when_fitting():
    rng = np.random.default_rng(17)
    train = rng.normal(0, 1, (30, 4))
    mask = np.concatenate([np.ones(30, bool), np.zeros(5, bool)])
    mild = np.vstack([train, rng.normal(0, 1, (5, 4))])
    wild = np.vstack([train, rng.normal(0, 1, (5, 4)) * 100])
    out_mild, info = reduce_for_pipeline(mild, mask, "pca", config=SneConfig(target_dim=2))
    out_wild, _ = reduce_for_pipeline(wild, mask, "pca", config=SneConfig(target_dim=2))
    np.testing.assert_allclose(out_mild[:30], out_wild[:30], atol=1e-12)
    assert info == {"method": "pca", "transductive": False}


def test_pipeline_sne_is_transductive():
    rng = np.random.default_rng(18)
    data = rng.normal(0, 1, (24, 4))
    mask = np.arange(24) < 16
    out, info = reduce_for_pipeline(data, mask, "sne", config=SneConfig(perplexity=6.0, seed=0))
    assert out.shape == (24, 2)
    assert info["transductive"] is True


def test_pipeline_all_train_mask_matches_plain_fit():
    rng = np.random.default_rng(19)
    data = rng.normal(0, 1, (20, 4))
    mask = np.ones(20, bool)
    out, _ = reduce_for_pipeline(data, mask, "pca", config=SneConfig(target_dim=2))
    model = pca_fit(data, 2)
    np.testing.assert_array_equal(out, pca_transform(model, data))
    config = SneConfig(perplexity=5.0, seed=7)
    out_sne, _ = reduce_for_pipeline(data, mask, "sne", config=config)
    np.testing.assert_array_equal(out_sne, sne_fit(data, config).coords)


@pytest.mark.parametrize("method", REDUCER_NAMES)
def test_pipeline_keeps_config_target_dim_for_every_method(method):
    data = np.random.default_rng(26).normal(0, 1, (24, 5))
    config = SneConfig(target_dim=3, perplexity=6.0, max_iter=20, seed=1)
    out, info = reduce_for_pipeline(data, np.arange(24) < 16, method, config=config)
    assert out.shape == (24, 3)
    assert info["transductive"] is is_transductive(method)


def test_pipeline_names_the_reducers_for_an_unknown_method():
    with pytest.raises(ValueError, match=re.escape(f"method must be one of {REDUCER_NAMES}")):
        reduce_for_pipeline(np.zeros((4, 2)), np.ones(4, bool), "umap")
