"""Random projection, PCA, distortion measurement."""

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    ProjectionModel,
    distortion_profile,
    fit_pca,
    fit_random_projection,
    project,
)


def test_rp_deterministic_for_seed():
    a = fit_random_projection(d=500, p=150, seed=42)
    b = fit_random_projection(d=500, p=150, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.kind == "rp" and a.seed == 42


def test_rp_matrix_shape():
    model = fit_random_projection(d=500, p=150, seed=0)
    assert model.matrix.shape == (150, 500)


def test_rp_entry_variance_one_over_p():
    model = fit_random_projection(d=500, p=200, seed=3)
    var = model.matrix.var()
    assert abs(var - 1.0 / 200) <= 0.05 / 200


def test_rp_rejects_bad_p():
    with pytest.raises(ValueError):
        fit_random_projection(d=10, p=11, seed=0)
    with pytest.raises(ValueError):
        fit_random_projection(d=10, p=0, seed=0)


def test_rp_norm_preservation_unbiased():
    # average squared-norm ratio over independent matrices is 1 for the
    # N(0, 1/p) scheme
    rng = np.random.default_rng(17)
    x = rng.normal(size=100)
    ratios = []
    for seed in range(200):
        model = fit_random_projection(d=100, p=20, seed=seed)
        ratios.append(np.sum((model.matrix @ x) ** 2) / np.sum(x**2))
    assert 0.95 <= np.mean(ratios) <= 1.05


def test_pca_rank_one_data():
    t = np.linspace(-2.0, 3.0, 40)
    X = np.column_stack([t, 2.0 * t])
    model = fit_pca(X, p=2)
    total = model.explained_variance.sum()
    assert model.explained_variance[1] <= 1e-10 * total


def test_pca_rows_orthonormal():
    rng = np.random.default_rng(4)
    model = fit_pca(rng.normal(size=(30, 8)), p=5)
    gram = model.matrix @ model.matrix.T
    assert np.allclose(gram, np.eye(5), atol=1e-8)


def test_pca_hand_eigendecomposition():
    model = fit_pca(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), p=1)
    assert np.allclose(model.matrix, [[1.0, 0.0]], atol=1e-12)  # sign fixed positive
    assert model.explained_variance == pytest.approx([1.0])


def test_pca_explained_variance_non_increasing():
    rng = np.random.default_rng(5)
    model = fit_pca(rng.normal(size=(40, 10)) * np.arange(1, 11), p=10)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_pca_explained_variance_totals():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 6))
    total = X.var(axis=0, ddof=1).sum()
    partial = fit_pca(X, p=3).explained_variance.sum()
    full = fit_pca(X, p=6).explained_variance.sum()
    assert partial <= total + 1e-10
    assert full == pytest.approx(total, rel=1e-10)


def test_pca_rank_error_message():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 10))  # attainable rank 4
    with pytest.raises(ValueError, match="rank"):
        fit_pca(X, p=5)


def test_pca_centers_projected_fitting_data():
    rng = np.random.default_rng(8)
    X = rng.normal(loc=7.0, size=(30, 6))
    model = fit_pca(X, p=4)
    assert np.allclose(project(X, model).mean(axis=0), 0.0, atol=1e-10)


def test_pca_reconstruction_at_full_rank():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 5))
    model = fit_pca(X, p=5)
    back = (X - model.centers) @ model.matrix.T @ model.matrix + model.centers
    assert np.allclose(back, X, atol=1e-8)


def test_project_zero_matrix_rp():
    model = fit_random_projection(d=6, p=3, seed=0)
    assert np.array_equal(project(np.zeros((4, 6)), model), np.zeros((4, 3)))


def test_project_output_shape():
    rng = np.random.default_rng(10)
    model = fit_random_projection(d=500, p=150, seed=0)
    assert project(rng.normal(size=(550, 500)), model).shape == (550, 150)


def test_project_dimension_mismatch():
    model = fit_random_projection(d=6, p=3, seed=0)
    with pytest.raises(ValueError):
        project(np.zeros((4, 7)), model)


def test_project_linear_for_rp():
    rng = np.random.default_rng(11)
    model = fit_random_projection(d=8, p=4, seed=1)
    X, Y = rng.normal(size=(2, 10, 8))
    lhs = project(2.5 * X - 0.75 * Y, model)
    rhs = 2.5 * project(X, model) - 0.75 * project(Y, model)
    assert np.allclose(lhs, rhs, atol=1e-10)


def _orthonormal_model(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    return ProjectionModel(
        kind="rp", matrix=q, centers=np.zeros(d), seed=seed,
        explained_variance=None,
    )


def test_distortion_identity_projection():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 5))
    model = ProjectionModel(
        kind="rp", matrix=np.eye(5), centers=np.zeros(5), seed=0,
        explained_variance=None,
    )
    prof = distortion_profile(X, project(X, model))
    assert prof.epsilon_hat == 0.0
    assert prof.min_ratio == prof.max_ratio == 1.0


def test_distortion_rotation_is_isometry():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 6))
    prof = distortion_profile(X, project(X, _orthonormal_model(6, seed=2)))
    assert prof.epsilon_hat <= 1e-10


def test_distortion_needs_two_rows():
    with pytest.raises(ValueError):
        distortion_profile(np.zeros((1, 3)), np.zeros((1, 2)))


def test_distortion_all_duplicate_rows():
    X = np.ones((5, 3))
    with pytest.raises(DataError):
        distortion_profile(X, X)


def test_distortion_pair_budget():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 6))
    prof = distortion_profile(X, project(X, _orthonormal_model(6, seed=3)), max_pairs=50)
    assert prof.pairs_sampled == 50


def test_distortion_jl_regime():
    # p = 8 ln(100) / 0.5^2 rounds to 148; squared-distance ratios then sit
    # inside [0.5, 1.5] for almost every pair
    rng = np.random.default_rng(15)
    X = rng.normal(size=(100, 500))
    for seed in range(3):
        model = fit_random_projection(d=500, p=148, seed=seed)
        prof = distortion_profile(X, project(X, model), max_pairs=1000, seed=seed)
        assert prof.epsilon_hat <= 0.5


def test_distortion_decays_with_p():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(80, 500))
    medians = []
    for p in (50, 150, 300, 450):
        eps = []
        for seed in range(20):
            model = fit_random_projection(d=500, p=p, seed=seed)
            eps.append(distortion_profile(X, project(X, model), max_pairs=500, seed=seed).epsilon_hat)
        medians.append(np.median(eps))
    assert all(a > b for a, b in zip(medians, medians[1:]))
