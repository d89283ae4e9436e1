"""Distance primitives, spatial median, medoid, robust scaling."""

import math

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    medoid,
    robust_scale_apply,
    robust_scale_fit,
    spatial_median,
)
from oracles import brute_medoid, distance_sum_objective, grid_spatial_median


def test_spatial_median_single_point():
    assert np.allclose(spatial_median([[7.0, -2.0]]), [7.0, -2.0])


def test_spatial_median_1d_is_ordinary_median():
    assert spatial_median([[0.0], [1.0], [10.0]]) == pytest.approx([1.0])


def test_spatial_median_two_points_midpoint():
    assert np.allclose(spatial_median([[0.0, 0.0], [2.0, 4.0]]), [1.0, 2.0])


def test_spatial_median_fermat_point():
    # isoceles triangle with all angles < 120 degrees; the minimizer is the
    # interior Fermat point (2, 2/sqrt(3)), confirmed by grid search
    pts = [[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]]
    sm = spatial_median(pts)
    assert np.allclose(sm, [2.0, 2.0 / math.sqrt(3)], atol=1e-6)
    assert np.allclose(sm, grid_spatial_median(pts), atol=1e-3)


def test_spatial_median_grid_oracle_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(8):
        pts = rng.normal(scale=2.0, size=(int(rng.integers(3, 9)), 2))
        sm = spatial_median(pts)
        assert np.allclose(sm, grid_spatial_median(pts), atol=1e-3)


def test_spatial_median_beats_mean_and_componentwise_median():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(3, 12)), int(rng.integers(1, 5))))
        obj = distance_sum_objective(spatial_median(pts), pts)
        assert obj <= distance_sum_objective(pts.mean(axis=0), pts) + 1e-9
        assert obj <= distance_sum_objective(np.median(pts, axis=0), pts) + 1e-9


def test_spatial_median_translation_equivariance():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(9, 3))
    shift = np.array([100.0, -3.5, 0.25])
    assert np.allclose(spatial_median(pts + shift), spatial_median(pts) + shift, atol=1e-6)


def test_spatial_median_rotation_equivariance():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(8, 2))
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=5):
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.allclose(spatial_median(pts @ q), spatial_median(pts) @ q, atol=1e-6)


def test_spatial_median_breakdown():
    # moving 40% of points arbitrarily far must not drag the median beyond
    # the clean diameter (50% breakdown point)
    rng = np.random.default_rng(9)
    clean = rng.normal(size=(10, 2))
    diameter = max(
        np.linalg.norm(a - b) for a in clean for b in clean
    )
    contaminated = clean.copy()
    contaminated[:4] += 1.0e6
    moved = np.linalg.norm(spatial_median(contaminated) - spatial_median(clean))
    assert moved < diameter


def test_spatial_median_vardi_zhang_lands_on_data_point():
    # heavy multiplicity makes the minimizer one of the inputs; the iterate
    # must settle there instead of oscillating
    pts = [[0.0, 0.0]] * 5 + [[1.0, 0.0], [0.0, 1.0]]
    point, info = spatial_median(pts, full_output=True)
    assert np.allclose(point, [0.0, 0.0], atol=1e-7)
    assert info.converged


def test_spatial_median_convergence_flag():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 4))
    point, info = spatial_median(pts, full_output=True)
    assert info.converged and info.n_iter >= 1
    _, starved = spatial_median(pts, max_iter=1, full_output=True)
    assert not starved.converged


def test_spatial_median_empty_input():
    with pytest.raises(ValueError):
        spatial_median(np.empty((0, 2)))


def test_medoid_singleton():
    idx, point = medoid([[5.0]])
    assert idx == 0 and point == pytest.approx([5.0])


def test_medoid_three_points():
    idx, point = medoid([[0.0], [1.0], [2.0]])
    assert idx == 1 and point == pytest.approx([1.0])


def test_medoid_tie_break_lowest_index():
    idx, point = medoid([[0.0], [0.0], [100.0]])
    assert idx == 0 and point == pytest.approx([0.0])


def test_medoid_even_set_hand_sums():
    # distance sums 12, 10, 10, 24; tie between members 1 and 2 breaks low
    idx, point = medoid([[0.0], [1.0], [2.0], [9.0]])
    assert brute_medoid([[0], [1], [2], [9]])[1] == [12.0, 10.0, 10.0, 24.0]
    assert idx == 1 and point == pytest.approx([1.0])


def test_medoid_matches_exhaustive_oracle():
    # 1-D even-count sets tie exactly between the two central points, so
    # compare objective values and require index equality only when the
    # oracle minimum is unique
    rng = np.random.default_rng(21)
    for _ in range(15):
        pts = rng.normal(size=(int(rng.integers(2, 51)), int(rng.integers(1, 4))))
        idx, _ = medoid(pts)
        oidx, osums = brute_medoid(pts)
        assert osums[idx] <= min(osums) + 1e-9
        runners = sorted(osums)
        if len(runners) > 1 and runners[1] - runners[0] > 1e-9:
            assert idx == oidx


def test_medoid_empty_input():
    with pytest.raises(ValueError):
        medoid(np.empty((0, 3)))


def test_robust_scale_fit_hand_column():
    model = robust_scale_fit(np.array([[1.0], [2.0], [3.0], [4.0], [100.0]]))
    assert model.centers == pytest.approx([3.0])
    assert model.scales == pytest.approx([1.0])
    assert not model.fallback_mask[0]


def test_robust_scale_fit_constant_column_fallback():
    model = robust_scale_fit(np.array([[5.0], [5.0], [5.0]]))
    assert model.centers == pytest.approx([5.0])
    assert model.scales == pytest.approx([1.0])
    assert model.fallback_mask[0]
    assert np.allclose(robust_scale_apply([[5.0]], model), [[0.0]])


def test_robust_scale_fit_even_count_median():
    model = robust_scale_fit(np.array([[-1.0], [1.0]]))
    assert model.centers == pytest.approx([0.0])
    assert model.scales == pytest.approx([1.0])


def test_robust_scale_apply_centers_fitting_data():
    rng = np.random.default_rng(8)
    X = rng.normal(loc=3.0, scale=2.0, size=(25, 6))
    out = robust_scale_apply(X, robust_scale_fit(X))
    assert np.allclose(np.median(out, axis=0), 0.0, atol=1e-12)


def test_robust_scale_apply_direct_arithmetic():
    model = robust_scale_fit(np.array([[2.0], [3.0], [4.0]]))
    assert model.centers == pytest.approx([3.0]) and model.scales == pytest.approx([1.0])
    assert np.allclose(robust_scale_apply([[100.0]], model), [[97.0]])


def test_robust_scale_round_trip():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 5)) * rng.uniform(0.5, 20.0, size=5)
    model = robust_scale_fit(X)
    back = robust_scale_apply(X, model) * model.scales + model.centers
    assert np.allclose(back, X, rtol=1e-12, atol=1e-12)


def test_robust_scale_rejects_nonfinite():
    with pytest.raises(DataError):
        robust_scale_fit(np.array([[1.0], [np.nan]]))


def test_robust_scale_apply_dim_mismatch():
    model = robust_scale_fit(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        robust_scale_apply(np.array([[1.0, 2.0, 3.0]]), model)
