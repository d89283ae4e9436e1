"""Distance primitives, spatial median, medoid, robust scaling."""

import math
import subprocess
import sys

import numpy as np
import pytest

from hdbwdm import (
    DataError,
    medoid,
    robust_scale_apply,
    robust_scale_fit,
    spatial_median,
)
from hdbwdm.geometry import _MEDOID_ROWS, _distance_kernels
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


def test_medoid_row_blocks_are_bitwise_full_row_sums():
    from scipy.spatial.distance import cdist

    from hdbwdm.geometry import _MEDOID_ROWS

    rng = np.random.default_rng(3)
    for m in (_MEDOID_ROWS - 1, _MEDOID_ROWS, _MEDOID_ROWS + 1):
        X = rng.normal(size=(m, 20))
        # the origin, the center of the cloud, is the medoid: first in the
        # last row alone, then tied with the first row (in different
        # blocks at m = B + 1)
        X[-1] = 0.0
        assert int(np.argmin(cdist(X, X).sum(axis=1))) == m - 1
        assert medoid(X)[0] == m - 1
        X[0] = 0.0
        full = cdist(X, X).sum(axis=1)
        blocks = np.concatenate(
            [cdist(X[a : a + _MEDOID_ROWS], X).sum(axis=1) for a in range(0, m, _MEDOID_ROWS)]
        )
        assert np.array_equal(blocks, full)
        assert full[0] == full[-1] == full.min()
        assert medoid(X)[0] == 0


@pytest.mark.parametrize("m", [1, 2, 511, 512, 513])
def test_medoid_pdist_below_the_cap_is_bitwise_the_row_blocks(monkeypatch, m):
    import scipy.spatial.distance as ssd

    from hdbwdm.geometry import _MEDOID_PDIST

    assert _MEDOID_PDIST == 512
    X = np.random.default_rng(m).normal(size=(m, 20))
    # the origin, the center of the cloud, ties between the first and last
    # rows: both paths must keep the lowest index
    X[0] = X[-1] = 0.0
    pair_sums = ssd.squareform(ssd.pdist(X)).sum(axis=1)
    block_sums = np.concatenate(
        [ssd.cdist(X[a : a + _MEDOID_ROWS], X).sum(axis=1) for a in range(0, m, _MEDOID_ROWS)]
    )
    assert np.array_equal(pair_sums, block_sums)
    assert int(np.argmin(pair_sums)) == int(np.argmin(block_sums)) == 0

    # the loaded kernels give the public square and row blocks byte for byte
    kernels = _distance_kernels()
    square = np.zeros((m, m))
    kernels.to_squareform_from_vector_wrap(square, kernels.pdist_euclidean(X))
    assert np.array_equal(square, ssd.squareform(ssd.pdist(X)))
    blocks = np.concatenate(
        [kernels.cdist_euclidean(X[a : a + _MEDOID_ROWS], X) for a in range(0, m, _MEDOID_ROWS)]
    )
    assert np.array_equal(blocks, ssd.cdist(X, X))

    pdist_calls = []
    pdist = kernels.pdist_euclidean
    monkeypatch.setattr(kernels, "pdist_euclidean", lambda X: pdist_calls.append(len(X)) or pdist(X))
    idx, point = medoid(X)
    assert pdist_calls == ([m] if m < 512 else [])
    assert idx == 0 and np.array_equal(point, X[0])


def test_distance_kernels_are_bitwise_the_public_functions():
    import scipy.spatial.distance as ssd

    kernels = _distance_kernels()
    X = np.random.default_rng(11).normal(size=(550, 300))  # the K scan's and the sweep's shape
    centers = X[[3, 100, 200, 300, 400, 500, 540, 7]]
    for K in range(1, 9):
        C = centers[:K]
        assert np.array_equal(kernels.cdist_sqeuclidean(X, C), ssd.cdist(X, C, "sqeuclidean"))
        assert np.array_equal(kernels.cdist_euclidean(C, X), ssd.cdist(C, X))
    moved = np.array([1, 4, 6])
    for C in (centers[moved], centers[::3], centers[2:3], X[::7]):  # fancy-indexed, strided, sliced
        assert np.array_equal(kernels.cdist_sqeuclidean(X, C), ssd.cdist(X, C, "sqeuclidean"))
        assert np.array_equal(kernels.cdist_euclidean(C, X), ssd.cdist(C, X))
    assert np.array_equal(kernels.pdist_euclidean(X[::2, ::3]), ssd.pdist(X[::2, ::3]))


_LOAD_ORDER = """
import hashlib, sys
import numpy as np

X = np.random.default_rng(0).normal(size=(550, 300))
C = X[[5, 50, 500]]

def kernels():
    from hdbwdm.geometry import _distance_kernels
    k = _distance_kernels()
    square = np.zeros((300, 300))
    k.to_squareform_from_vector_wrap(square, k.pdist_euclidean(X[:300]))
    return k.cdist_sqeuclidean(X, C).tobytes() + square.tobytes()

def public():
    from scipy.spatial.distance import cdist, pdist, squareform
    return cdist(X, C, "sqeuclidean").tobytes() + squareform(pdist(X[:300])).tobytes()

routes = [kernels, public] if sys.argv[1] == "kernels first" else [public, kernels]
print(*(hashlib.sha256(route()).hexdigest() for route in routes * 2))
"""


def test_the_kernels_and_scipy_spatial_load_in_either_order():
    # the loader and scipy.spatial.distance each load the same two extension
    # files; whichever comes first, both routes give the same bytes
    digests = set()
    for order in ("kernels first", "scipy.spatial first"):
        proc = subprocess.run(
            [sys.executable, "-c", _LOAD_ORDER, order], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        digests.update(proc.stdout.split())
    assert len(digests) == 1


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
