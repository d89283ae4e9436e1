"""Distance primitives, spatial median, medoid, robust scaling, and each stage's traced peak."""

import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from hdbwdm import (
    TRIMMED,
    DataError,
    MixtureConfig,
    Partition,
    PipelineConfig,
    SpatialMedianInfo,
    awdm,
    fit_random_projection,
    generate,
    medoid,
    project,
    robust_scale_apply,
    robust_scale_fit,
    select_k,
    spatial_median,
)
import hdbwdm.geometry as geometry
from hdbwdm import _openblas
from hdbwdm.geometry import _MEDOID_ROWS, _distance_kernels, _medoid_candidates
from hdbwdm.validity import _embed
from oracles import (
    brute_medoid,
    distance_sum_objective,
    grid_spatial_median,
    median_mad,
    weiszfeld_from_np_median,
)


def pairwise_medoid(X):
    """The medoid from full distance-matrix row sums, by scipy's public functions.

    ``squareform(pdist(X))`` below 512 rows and ``cdist`` in 256-row blocks
    from there up: the package's medoid before its screen, kept as the
    reference.  Returns ``(index, row)``, the lowest index on ties.
    """
    from scipy.spatial.distance import cdist, pdist, squareform

    m = len(X)
    if m < 512:
        sums = squareform(pdist(X)).sum(axis=1)
    else:
        sums = np.concatenate([cdist(X[a : a + 256], X).sum(axis=1) for a in range(0, m, 256)])
    idx = int(np.argmin(sums))
    return idx, X[idx]


@pytest.fixture
def exact_rows(monkeypatch):
    """Row counts of the ``cdist_euclidean`` calls of medoid's exact stage while the test runs."""
    kernels = _distance_kernels()
    calls = []
    original = kernels.cdist_euclidean

    def counting(XA, XB):
        calls.append(len(XA))
        return original(XA, XB)

    monkeypatch.setattr(kernels, "cdist_euclidean", counting)
    return calls


def test_spatial_median_single_point():
    assert np.allclose(spatial_median([[7.0, -2.0]]), [7.0, -2.0])


def test_spatial_median_1d_is_ordinary_median():
    assert spatial_median([[0.0], [1.0], [10.0]]) == pytest.approx([1.0])


def test_spatial_median_two_points_midpoint():
    assert np.allclose(spatial_median([[0.0, 0.0], [2.0, 4.0]]), [1.0, 2.0])


def test_spatial_median_full_output_without_iterating():
    # two points: their midpoint; identical points: that point, at distance 0
    point, info = spatial_median([[0.0, 0.0], [2.0, 4.0]], full_output=True)
    assert point.tolist() == [1.0, 2.0]
    assert info.converged and info.n_iter == 0
    assert info.objective == pytest.approx(2 * math.sqrt(5.0))
    pts = [[1.5, -2.0]] * 4
    point, info = spatial_median(pts, full_output=True)
    assert point.tolist() == [1.5, -2.0]
    assert info == SpatialMedianInfo(converged=True, n_iter=0, objective=0.0)
    assert spatial_median(pts).tobytes() == point.tobytes()


def test_as_points_reads_1d_input_as_scalar_points():
    X = geometry._as_points([3.0, -1.0, 2.5])
    assert X.shape == (3, 1) and X[:, 0].tolist() == [3.0, -1.0, 2.5]


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


def _start_cases():
    rng = np.random.default_rng(31)
    return {
        "one point": [[-0.0, 3.5, -2.0]],
        "two points": [[-0.0, 1.0], [-0.0, -1.0]],
        "three points": rng.normal(size=(3, 4)),
        "rounded ties": rng.normal(size=(7, 3)).round(0),
        "even ties": [[1.0, 1.0], [1.0, 1.0], [2.0, 0.0], [2.0, 0.0]],
        "-0.0 column": np.column_stack([np.full(5, -0.0), rng.normal(size=5)]),
        "-0.0 even column": np.column_stack([np.full(6, -0.0), rng.normal(size=(6, 2))]),
        "one column": rng.normal(size=(8, 1)),
        "twenty columns": rng.normal(size=(6, 20)),
    }


@pytest.mark.parametrize("name", list(_start_cases()))
@pytest.mark.parametrize("tol, max_iter", [(1e-8, 500), (1e-12, 20000), (1e-12, 2)])
def test_spatial_median_is_the_weiszfeld_run_from_np_median(name, tol, max_iter):
    # the start is a selection median, not np.median (which imports numpy.ma):
    # every center, flag and step count stays the one np.median's start gives
    points = np.asarray(_start_cases()[name], dtype=float)
    point, info = spatial_median(points, tol=tol, max_iter=max_iter, full_output=True)
    expected, converged, n_iter = weiszfeld_from_np_median(points, tol, max_iter)
    assert point.tobytes() == expected.tobytes()
    assert (info.converged, info.n_iter) == (converged, n_iter)


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
    # the exact stage sums cdist over chunks of fancy-indexed candidate rows:
    # bitwise the full matrix's row sums, whatever the candidates
    from scipy.spatial.distance import cdist

    kernels = _distance_kernels()
    rng = np.random.default_rng(3)
    for m in (_MEDOID_ROWS - 1, _MEDOID_ROWS, _MEDOID_ROWS + 1):
        X = rng.normal(size=(m, 20))
        # the origin, the center of the cloud, is the medoid: first in the
        # last row alone, then tied with the first row (in different
        # chunks at m = B + 1)
        X[-1] = 0.0
        assert int(np.argmin(cdist(X, X).sum(axis=1))) == m - 1
        assert medoid(X)[0] == m - 1
        X[0] = 0.0
        full = cdist(X, X).sum(axis=1)
        for cand in (np.arange(m), np.array([0, m - 1]), np.arange(1, m, 3), _medoid_candidates(X)):
            chunks = np.concatenate(
                [
                    kernels.cdist_euclidean(X[cand[a : a + _MEDOID_ROWS]], X).sum(axis=1)
                    for a in range(0, cand.size, _MEDOID_ROWS)
                ]
            )
            assert np.array_equal(chunks, full[cand])
        assert full[0] == full[-1] == full.min()
        assert {0, m - 1} <= set(_medoid_candidates(X))
        assert medoid(X)[0] == 0


@pytest.mark.parametrize("m", [1, 2, 3, 511, 512, 513])
def test_medoid_pdist_below_the_cap_is_bitwise_the_row_blocks(exact_rows, m):
    # the square's rows, the 256-row blocks and the screened exact stage all
    # give the same sums, and the medoid keeps the lowest index of a tie
    import scipy.spatial.distance as ssd

    X = np.random.default_rng(m).normal(size=(m, 20))
    # the origin, the center of the cloud, ties between the first and last rows
    X[0] = X[-1] = 0.0
    pair_sums = ssd.squareform(ssd.pdist(X)).sum(axis=1)
    block_sums = np.concatenate(
        [ssd.cdist(X[a : a + _MEDOID_ROWS], X).sum(axis=1) for a in range(0, m, _MEDOID_ROWS)]
    )
    assert np.array_equal(pair_sums, block_sums)
    assert int(np.argmin(pair_sums)) == int(np.argmin(block_sums)) == 0

    # the loaded kernels give the public pdist and row blocks byte for byte
    kernels = _distance_kernels()
    assert np.array_equal(kernels.pdist_euclidean(X), ssd.pdist(X))
    blocks = np.concatenate(
        [kernels.cdist_euclidean(X[a : a + _MEDOID_ROWS], X) for a in range(0, m, _MEDOID_ROWS)]
    )
    assert np.array_equal(blocks, ssd.cdist(X, X))

    exact_rows.clear()
    idx, point = medoid(X)
    assert idx == 0 and np.array_equal(point, X[0])
    cand = _medoid_candidates(X)
    assert {0, m - 1} <= set(cand)
    # every set is screened, the smallest too: exact sums for the kept rows only
    assert sum(exact_rows) == cand.size and min(m, 2) <= cand.size < 10


def _medoid_inputs():
    """``(name, X)``: the medoid cases the screen must pass, small and large."""
    rng = np.random.default_rng(21)
    yield "singleton", np.array([[5.0]])
    yield "three-points", np.array([[0.0], [1.0], [2.0]])
    yield "tie", np.array([[0.0], [0.0], [100.0]])
    yield "even-set", np.array([[0.0], [1.0], [2.0], [9.0]])
    for i in range(15):
        yield f"oracle-{i}", rng.normal(size=(int(rng.integers(2, 51)), int(rng.integers(1, 4))))
    for m in (1, 2, 3, 511, 512, 513):
        yield f"m={m}", rng.normal(size=(m, 20))
    X = np.round(rng.normal(size=(700, 3)), 1)  # many duplicate rows
    X[-1] = X[pairwise_medoid(X)[0]]  # a duplicate of the medoid, so its sum ties exactly
    yield "rounded-duplicates", X
    yield "shifted-by-1e6", rng.normal(size=(800, 5)) + 1e6
    yield "p=1", rng.normal(size=(1000, 1))
    yield "2d-tiles", rng.normal(size=(500, 300))  # m p > 2^17: more than one tile a side
    yield "many-tiles", rng.normal(size=(1990, 20)) * rng.uniform(0.1, 10.0, size=20)
    yield "identical-rows", np.full((600, 4), 3.25)
    yield "overflowing", rng.normal(size=(600, 5)) * 1e200  # every distance is inf


@pytest.mark.parametrize("name, X", [pytest.param(n, X, id=n) for n, X in _medoid_inputs()])
def test_medoid_is_the_pairwise_reference_and_the_screen_keeps_it(name, X):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in the screen is expected, not reported
        idx, point = medoid(X)
    ref_idx, ref_point = pairwise_medoid(X)
    assert idx == ref_idx and np.array_equal(point, ref_point)
    assert point is not ref_point and np.shares_memory(point, X)
    cand = _medoid_candidates(X)
    assert ref_idx in cand and np.all(np.diff(cand) > 0)
    if name == "rounded-duplicates":
        assert idx < len(X) - 1 and np.array_equal(X[idx], X[-1]) and len(X) - 1 in cand


def test_medoid_of_identical_rows_keeps_every_row_in_chunks(exact_rows):
    idx, point = medoid(np.full((600, 4), 3.25))
    assert idx == 0 and exact_rows == [_MEDOID_ROWS, _MEDOID_ROWS, 600 - 2 * _MEDOID_ROWS]


@pytest.mark.parametrize("nudge", [1e-13, -1e-13])
def test_medoid_near_tie_is_decided_by_the_exact_sums(exact_rows, nudge):
    # row 1 is the medoid's twin moved by 1e-13 in one coordinate: the two
    # exact sums differ in their last bits, both rows pass the screen, and
    # the lower exact sum wins whichever index it has
    from scipy.spatial.distance import cdist

    X = np.random.default_rng(7).normal(size=(600, 10))
    k = pairwise_medoid(X)[0]
    X[1] = X[k]
    X[1, 0] += nudge
    sums = cdist(X, X).sum(axis=1)
    assert sums[1] != sums[k] and abs(sums[1] - sums[k]) < 1e-13 * sums[k]
    assert {1, k} <= set(_medoid_candidates(X))
    exact_rows.clear()
    idx, _ = medoid(X)
    assert idx == pairwise_medoid(X)[0] == (1 if sums[1] < sums[k] else k)
    assert sum(exact_rows) >= 2


_ONE_THREAD = """
import os
import numpy as np
from hdbwdm import _openblas
from hdbwdm.geometry import medoid

rng = np.random.default_rng(0)
clusters = [rng.normal(size=shape) for shape in ((100, 400), (300, 300), (1990, 20), (4400, 100))]
_openblas._numpy_openblas().shutdown()
before = len(os.listdir("/proc/self/task"))
for X in clusters:
    medoid(X)
print(before, len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_medoid_screen_never_starts_the_blas_pool():
    # every product of the screen stays under OpenBLAS's threading cutoff, so
    # after the pool is shut down the process keeps its one OS thread
    if _openblas._numpy_openblas() is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS whose pool the package can shut down")
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


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


def _one_kernel_swapped(monkeypatch, name, kernel):
    """Make the next ``_distance_kernels`` load see ``kernel`` in place of scipy's ``name``."""
    loaded = vars(_distance_kernels())
    monkeypatch.setattr(
        geometry, "_scipy_extension", lambda ext: types.SimpleNamespace(**{**loaded, name: kernel})
    )
    geometry._distance_kernels.cache_clear()
    return loaded[name]


@pytest.mark.parametrize("name", ["cdist_sqeuclidean", "cdist_euclidean", "pdist_euclidean"])
@pytest.mark.parametrize("fault", ["other bytes", "other signature", "missing"])
def test_a_kernel_that_fails_its_check_is_one_import_error(monkeypatch, name, fault):
    import scipy

    def nudged(*args):
        return np.nextafter(real(*args), np.inf)  # one ulp up, every entry

    def changed(XA, XB, out):
        return real(XA, XB, out=out)

    swapped = {"other bytes": nudged, "other signature": changed, "missing": None}[fault]
    real = _one_kernel_swapped(monkeypatch, name, swapped)
    try:
        with pytest.raises(ImportError) as err:
            _distance_kernels()
    finally:
        geometry._distance_kernels.cache_clear()
    message = str(err.value)
    assert message == f"scipy {scipy.__version__}'s {name} fails its load-time check against numpy"


_LOAD_ORDER = """
import hashlib, sys
import numpy as np

X = np.random.default_rng(0).normal(size=(550, 300))
C = X[[5, 50, 500]]

def kernels():
    from hdbwdm.geometry import _distance_kernels
    k = _distance_kernels()
    return k.cdist_sqeuclidean(X, C).tobytes() + k.pdist_euclidean(X[:300]).tobytes()

def public():
    from scipy.spatial.distance import cdist, pdist
    return cdist(X, C, "sqeuclidean").tobytes() + pdist(X[:300]).tobytes()

routes = [kernels, public] if sys.argv[1] == "kernels first" else [public, kernels]
print(*(hashlib.sha256(route()).hexdigest() for route in routes * 2))
"""


def test_the_kernels_and_scipy_spatial_load_in_either_order():
    # the loader and scipy.spatial.distance each load the same extension
    # file; whichever comes first, both routes give the same bytes
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 550, 551, 1000, 6600, 6601])
def test_robust_scaling_is_bitwise_two_np_median_calls(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 6))
    tied = np.round(X * 2.0) / 2.0
    tied[tied == 0.0] = -0.0
    cases = {
        "gaussian": X,
        "rounded to 0.5, with -0.0": tied,
        "mixed +-0 and +-1": rng.choice([-0.0, 0.0, 1.0, -1.0], size=X.shape),
        "times 1e300": X * 1e300,
    }
    for name, data in cases.items():
        centers, mads = median_mad(data)
        model = robust_scale_fit(data)
        assert model.centers.tobytes() == centers.tobytes(), name
        assert model.scales.tobytes() == np.where(mads == 0.0, 1.0, mads).tobytes(), name
        expected = (data - centers) / model.scales
        assert robust_scale_apply(data, model).tobytes() == expected.tobytes(), name


def test_robust_scaling_holds_one_working_copy():
    import tracemalloc

    X = np.random.default_rng(4).normal(size=(2000, 300))
    for step in (robust_scale_fit, lambda X: _embed(X, True)):
        tracemalloc.start()
        try:
            step(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * X.nbytes, (step, peak / X.nbytes)


def _traced_peak(step):
    """``step()``'s result and traced peak, after an untraced call has run its one-time imports."""
    import tracemalloc

    step()
    tracemalloc.start()
    try:
        out = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_generation_holds_the_matrix_and_its_shuffled_copy():
    ds, peak = _traced_peak(lambda: generate(MixtureConfig(n_inliers=2000, d=300, seed=3)))
    assert peak <= 2.1 * ds.X.nbytes, peak / ds.X.nbytes


def test_rp_projection_holds_only_its_output():
    X = np.random.default_rng(5).normal(size=(2000, 500))
    model = fit_random_projection(d=500, p=300, seed=1)
    Xp, peak = _traced_peak(lambda: project(X, model))
    assert peak <= 1.05 * Xp.nbytes, peak / Xp.nbytes


def test_awdm_holds_row_blocks_of_the_projected_rows():
    rng = np.random.default_rng(6)
    Xp = rng.normal(size=(2000, 300))
    labels = rng.integers(0, 5, size=2000)
    labels[::10] = TRIMMED
    part = Partition(labels=labels, alpha=0.1)
    _, peak = _traced_peak(lambda: awdm(Xp, part, rng.normal(size=(5, 300))))
    assert peak <= 0.5 * Xp.nbytes, peak / Xp.nbytes


def test_a_k_scan_holds_its_scaled_and_projected_rows():
    # the scaled rows are dropped once projected, so the fits and the index
    # work within the room they leave
    X = generate(MixtureConfig(n_inliers=1800, d=300, seed=5)).X
    cfg = PipelineConfig(p=100, alpha=0.1, seed=4)
    _, peak = _traced_peak(lambda: select_k(X, range(2, 5), cfg))
    bound = X.nbytes + X.shape[0] * cfg.p * 8 + 2**20
    assert peak <= bound, (peak, bound)


def test_robust_scale_rejects_nonfinite():
    with pytest.raises(DataError):
        robust_scale_fit(np.array([[1.0], [np.nan]]))


def test_robust_scale_apply_dim_mismatch():
    model = robust_scale_fit(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        robust_scale_apply(np.array([[1.0, 2.0, 3.0]]), model)
